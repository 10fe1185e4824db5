import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import interactive
from interactive import (
    ConvLayer,
    NetworkSpec,
    PoolLayer,
    ShapeError,
    forward,
    receptive_sets,
)
from interactive import net
from interactive.activeness import _conv_backward_input, _gamma_hop, _pool_backward
from interactive.net import ConvConnectivity, apply_conv, apply_pool
from interactive.oracle import _max_pool_choice

from conftest import random_input


def naive_conv(kernel, bias, stride, padding, x):
    """Quadruple-loop reference convolution: sums x * theta over the window."""
    kw, kh, din, dout = kernel.shape
    W, H, _ = x.shape
    ow = (W + 2 * padding - kw) // stride + 1
    oh = (H + 2 * padding - kh) // stride + 1
    out = np.zeros((ow, oh, dout))
    for wo in range(ow):
        for ho in range(oh):
            for do in range(dout):
                acc = bias[do]
                for a in range(kw):
                    for b in range(kh):
                        w = wo * stride + a - padding
                        h = ho * stride + b - padding
                        if 0 <= w < W and 0 <= h < H:
                            for di in range(din):
                                acc += x[w, h, di] * kernel[a, b, di, do]
                out[wo, ho, do] = acc
    return out


def conv_spec(kernel, bias, stride=1, padding=0, relu=True, input_shape=None):
    layer = ConvLayer(kernel=kernel, bias=bias, stride=stride, padding=padding, apply_relu=relu)
    if input_shape is None:
        input_shape = (1, 1, kernel.shape[2])
    return NetworkSpec(layers=(layer,), input_shape=input_shape, names=("conv-1",))


def test_infer_shapes_examples():
    k1 = np.zeros((3, 3, 3, 4))
    spec = NetworkSpec(
        layers=(ConvLayer(kernel=k1, bias=np.zeros(4), padding=1), PoolLayer(window=2, stride=2)),
        input_shape=(8, 8, 3),
        names=("conv-1", "pool-1"),
    )
    assert spec.shapes[1:] == ((8, 8, 4), (4, 4, 4))


def test_spec_shapes_are_a_tuple_matching_forward():
    layers = (ConvLayer(kernel=np.zeros((3, 3, 3, 4)), bias=np.zeros(4), padding=1), PoolLayer(window=2, stride=2))
    spec = NetworkSpec(layers=layers, input_shape=(8, 8, 3), names=("conv-1", "pool-1"))
    assert type(spec.shapes) is tuple
    assert spec.shapes == tuple(a.shape for a in forward(spec, np.ones((8, 8, 3))))
    with pytest.raises(AttributeError):
        spec.shapes = ()
    # the stored shapes take no part in == or repr
    twin = NetworkSpec(layers=layers, input_shape=(8, 8, 3), names=("conv-1", "pool-1"))
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert "shapes" not in repr(spec)
    assert twin != NetworkSpec(layers=layers, input_shape=(8, 8, 3), names=("conv-1", "pool-2"))
    assert NetworkSpec(layers=layers[:1], input_shape=(8, 8, 3), names=("conv-1",)) != spec


def test_infer_shapes_rejects_oversized_kernel():
    k = np.zeros((5, 5, 1, 1))
    with pytest.raises(ShapeError, match="conv-1"):
        NetworkSpec(
            layers=(ConvLayer(kernel=k, bias=np.zeros(1)),),
            input_shape=(4, 4, 1),
            names=("conv-1",),
        )


@pytest.mark.parametrize("layer, input_shape, message", [
    (PoolLayer(window=1, stride=1), (2049, 2048, 1), "input shape 2049x2048x1 exceeds the 4194304-element guard"),
    (ConvLayer(kernel=np.zeros((3, 3, 1, 1)), bias=np.zeros(1), padding=1), (2047, 2047, 1),
     "c padded input shape 2049x2049x1 exceeds the 4194304-element guard"),
    (ConvLayer(kernel=np.zeros((1, 1, 1, 2)), bias=np.zeros(2)), (2048, 2048, 1),
     "c shape 2048x2048x2 exceeds the 4194304-element guard"),
], ids=["input", "padded-input", "layer-output"])
def test_hand_built_spec_is_held_to_the_size_guard(layer, input_shape, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        NetworkSpec(layers=(layer,), input_shape=input_shape, names=("c",))


def _named(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_the_size_guard_has_one_home():
    # a second copy of the guard would drift from the one NetworkSpec runs
    stores, calls = set(), set()
    for path in sorted(Path(interactive.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Store) and _named(node) == "SHAPE_GUARD":
                    stores.add(path.stem)
                elif isinstance(node, ast.Call) and _named(node.func) == "check_size":
                    calls.add(where)
    assert stores == {"net"}
    # generate_model checks a conv's padded input before it draws a kernel as large as that input
    assert {where for where in calls if where[0] != "net"} == {("model_io", "generate_model")}


def test_foreign_layer_object_is_a_shape_error():
    with pytest.raises(ShapeError, match="^layer x: expected a ConvLayer or PoolLayer, got object$"):
        NetworkSpec((object(),), (4, 4, 3), ("x",))


def test_network_spec_validation():
    k = np.zeros((1, 1, 1, 1))
    layer = ConvLayer(kernel=k, bias=np.zeros(1))
    with pytest.raises(ShapeError, match="unique"):
        NetworkSpec(layers=(layer, layer), input_shape=(2, 2, 1), names=("a", "a"))
    with pytest.raises(ShapeError, match="channels"):
        NetworkSpec(layers=(layer,), input_shape=(2, 2, 3), names=("a",))
    for name in ("input", "", "a,b", " a", "a ", "a\nb"):
        with pytest.raises(ValueError, match="cannot be selected"):
            NetworkSpec(layers=(layer,), input_shape=(2, 2, 1), names=(name,))


def test_conv_layer_rejects_nonfinite():
    k = np.zeros((1, 1, 1, 1))
    k[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ConvLayer(kernel=k, bias=np.zeros(1))


def test_conv_layer_rejects_zero_size_kernel():
    for shape in ((0, 0, 1, 1), (3, 0, 1, 1), (1, 1, 0, 2)):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            ConvLayer(kernel=np.zeros(shape), bias=np.zeros(shape[3]))


def test_pool_layer_validation():
    with pytest.raises(ShapeError):
        PoolLayer(window=0, stride=1)
    with pytest.raises(ShapeError):
        PoolLayer(window=2, stride=2, mode="median")
    with pytest.raises(ShapeError, match="pool-1"):
        NetworkSpec(
            layers=(PoolLayer(window=4, stride=1),), input_shape=(3, 3, 1), names=("pool-1",)
        )


def test_forward_one_by_one_conv_relu():
    spec = conv_spec(np.full((1, 1, 1, 1), 3.0), np.array([-1.0]))
    trace = forward(spec, np.full((1, 1, 1), 2.0))
    assert trace[1][0, 0, 0] == 5.0  # 2*3 - 1

    spec = conv_spec(np.full((1, 1, 1, 1), 3.0), np.array([-7.0]))
    trace = forward(spec, np.full((1, 1, 1), 2.0))
    assert trace[1][0, 0, 0] == 0.0  # ReLU clamps 2*3 - 7


def test_forward_max_pool():
    spec = NetworkSpec(
        layers=(PoolLayer(window=2, stride=2, mode="max"),), input_shape=(2, 2, 1), names=("pool-1",)
    )
    trace = forward(spec, np.arange(1.0, 5.0).reshape(2, 2, 1))
    assert trace[1].shape == (1, 1, 1)
    assert trace[1][0, 0, 0] == 4.0


def test_forward_average_pool():
    spec = NetworkSpec(
        layers=(PoolLayer(window=2, stride=2, mode="average"),),
        input_shape=(2, 2, 1),
        names=("pool-1",),
    )
    trace = forward(spec, np.arange(1.0, 5.0).reshape(2, 2, 1))
    assert trace[1][0, 0, 0] == 2.5


def test_forward_shape_mismatch():
    spec = conv_spec(np.ones((1, 1, 1, 1)), np.zeros(1))
    with pytest.raises(ShapeError):
        forward(spec, np.array([1.0, 2.0]).reshape(2, 1, 1))


def test_forward_overflow_names_layer():
    # -1e308 overflows to -inf, which the ReLU would turn into 0: the check
    # must see the conv output before the ReLU
    for weight in (1e308, -1e308):
        spec = conv_spec(np.full((1, 1, 1, 1), weight), np.zeros(1))
        with pytest.raises(ValueError, match="layer conv-1: output contains NaN or Inf"):
            forward(spec, np.full((1, 1, 1), 1e10))


def test_forward_rejects_nan_that_no_window_reads():
    # a 1x1 conv at stride 2 reads only the corners and the centre of a 3x3
    # input, so (0, 1) never reaches a layer output: the input check alone sees it
    layer = ConvLayer(kernel=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=2)
    spec = NetworkSpec(layers=(layer,), input_shape=(3, 3, 1), names=("conv-1",))
    x = np.zeros((3, 3, 1))
    x[0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^tensor data contains NaN or Inf$"):
        forward(spec, x)


def test_forward_leaves_the_input_writable_and_the_trace_read_only(tiny_net):
    x = random_input(tiny_net, seed=3)
    trace = forward(tiny_net, x)
    assert x.flags.writeable and np.shares_memory(trace[0], x)
    assert not any(a.flags.writeable for a in trace)
    with pytest.raises(ValueError):
        trace[0][0, 0, 0] = 1.0


def test_conv_matches_naive_reference():
    rng = np.random.default_rng(99)
    cases = [
        (1, 1, 3, 3, 1, 0),
        (3, 3, 2, 4, 1, 1),
        (3, 2, 1, 2, 2, 0),
        (5, 5, 2, 3, 2, 2),
        (2, 3, 3, 1, 1, 2),
        (4, 1, 2, 3, 3, 0),
        (1, 3, 2, 2, 2, 2),
        (2, 2, 1, 2, 3, 1),
        (3, 4, 2, 1, 4, 2),
    ]
    for kw, kh, din, dout, stride, padding in cases:
        W = kw + rng.integers(0, 4) * stride
        H = kh + rng.integers(0, 4) * stride
        kernel = rng.standard_normal((kw, kh, din, dout))
        bias = rng.standard_normal(dout)
        x = rng.standard_normal((W, H, din))
        layer = ConvLayer(kernel=kernel, bias=bias, stride=stride, padding=padding)
        npt.assert_allclose(
            apply_conv(layer, x), naive_conv(kernel, bias, stride, padding, x), atol=1e-12
        )


@pytest.mark.parametrize("padding", [1, 2])
@pytest.mark.parametrize("shape", [(7, 6, 3), (7, 6, 4, 3)])
def test_conv_padding_equals_np_pad_bitwise(padding, shape):
    # reference: pad with np.pad, then run the same taps on the padded input unpadded
    rng = np.random.default_rng(padding)
    x = rng.standard_normal(shape)
    layer = ConvLayer(kernel=rng.standard_normal((3, 2, 3, 5)), bias=rng.standard_normal(5), stride=2,
                      padding=padding)
    unpadded = ConvLayer(kernel=layer.kernel, bias=layer.bias, stride=2, padding=0)
    reference = apply_conv(unpadded, np.pad(x, ((padding, padding),) * 2 + ((0, 0),) * (x.ndim - 2)))
    got = apply_conv(layer, x)
    assert got.shape == reference.shape and got.dtype == reference.dtype
    assert np.array_equal(got.view(np.int64), reference.view(np.int64))


def whole_array_conv(layer, x):
    """The tap loop over the whole output: one full-size product per tap, then the bias."""
    kw, kh, _, dout = layer.kernel.shape
    s, p = layer.stride, layer.padding
    xp = np.pad(x, ((p, p), (p, p)) + ((0, 0),) * (x.ndim - 2))
    ow, oh = (xp.shape[0] - kw) // s + 1, (xp.shape[1] - kh) // s + 1
    out = np.zeros((ow, oh, *x.shape[2:-1], dout))
    for a in range(kw):
        for b in range(kh):
            out += xp[a : a + ow * s : s, b : b + oh * s : s] @ layer.kernel[a, b]
    out += layer.bias
    return out


def test_conv_slabs_keep_the_bits(monkeypatch):
    """Cutting the output into column slabs changes no bit: slabs one column
    wide, ragged ones (the last one shorter) and one whole slab all give the
    whole-array tap loop, for any stride, padding and batch axes, and for
    full-extent kernels.  An empty stack gives an empty output."""
    rng = np.random.default_rng(67)
    for case in range(60):
        stride, padding = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        din, dout = (int(v) for v in rng.integers(1, 5, size=2))
        batch = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(0, 3))))
        W, H = (int(v) for v in rng.integers(1, 12, size=2))
        if case % 5 == 4:  # full extent: one output column
            kw, kh = W + 2 * padding, H + 2 * padding
        else:
            kw, kh = (int(v) for v in rng.integers(1, 4, size=2))
            W, H = max(W, kw) + 2 * stride, max(H, kh)
        layer = ConvLayer(kernel=rng.standard_normal((kw, kh, din, dout)), bias=rng.standard_normal(dout),
                          stride=stride, padding=padding)
        x = rng.standard_normal((W, H, *batch, din))
        want = whole_array_conv(layer, x)
        ow, column = want.shape[0], want[0].size
        for budget in (column, ow * column - 1, ow * column):  # 1 column; ow - 1 columns, then 1; all
            monkeypatch.setattr(net, "CONV_SLAB_ELEMENTS", budget)
            got = apply_conv(layer, x)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
    layer = ConvLayer(kernel=rng.standard_normal((3, 3, 2, 4)), bias=rng.standard_normal(4), padding=1)
    assert apply_conv(layer, np.zeros((6, 5, 0, 2))).shape == (6, 5, 0, 4)


def test_conv_slabs_bound_the_peak_memory():
    """At 224x224x3 -> 6 no full-size per-tap product is made: the conv's peak
    stays under its output, its padded input and two slabs."""
    rng = np.random.default_rng(71)
    layer = ConvLayer(kernel=rng.standard_normal((3, 3, 3, 6)), bias=rng.standard_normal(6), padding=1)
    x = rng.standard_normal((224, 224, 3))
    tracemalloc.start()
    try:
        apply_conv(layer, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (224 * 224 * 6 + 226 * 226 * 3 + 2 * net.CONV_SLAB_ELEMENTS)


def test_forward_is_deterministic_bitwise(tiny_net):
    x = random_input(tiny_net, seed=5)
    t1 = forward(tiny_net, x)
    t2 = forward(tiny_net, x)
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)


def test_final_bias_change_is_local(tiny_net):
    x = random_input(tiny_net, seed=6)
    base = forward(tiny_net, x)
    last = tiny_net.layers[-1]
    doubled = ConvLayer(
        kernel=last.kernel,
        bias=last.bias * 2.0,
        stride=last.stride,
        padding=last.padding,
        apply_relu=last.apply_relu,
    )
    spec2 = NetworkSpec(
        layers=tiny_net.layers[:-1] + (doubled,),
        input_shape=tiny_net.input_shape,
        names=tiny_net.names,
    )
    other = forward(spec2, x)
    for a, b in zip(base[:-1], other[:-1]):
        assert np.array_equal(a, b)
    assert not np.array_equal(base[-1], other[-1])


def test_relu_idempotent_on_activations(tiny_net, tiny_trace):
    for layer, act in zip(tiny_net.layers, tiny_trace[1:]):
        if isinstance(layer, ConvLayer) and layer.apply_relu:
            npt.assert_array_equal(np.maximum(act, 0.0), act)


def test_trace_acts_are_read_only(tiny_net, tiny_trace):
    assert type(tiny_trace) is tuple and len(tiny_trace) == len(tiny_net.layers) + 1
    for act in tiny_trace:
        with pytest.raises(ValueError, match="read-only"):
            act[0, 0, 0] = 1.0


def test_receptive_sets_one_by_one():
    spec = conv_spec(np.ones((1, 1, 1, 3)), np.zeros(3), input_shape=(2, 2, 1))
    conn = receptive_sets(spec, 0)
    assert conn.u_set(1, 0, 0) == [(1, 0, 0), (1, 0, 1), (1, 0, 2)]


def test_receptive_sets_interior_and_corner():
    k = np.ones((3, 3, 2, 4))
    spec_pad = NetworkSpec(
        layers=(ConvLayer(kernel=k, bias=np.zeros(4), padding=1),),
        input_shape=(6, 6, 2),
        names=("c",),
    )
    conn = receptive_sets(spec_pad, 0)
    assert len(conn.u_set(3, 3, 0)) == 9 * 4  # interior, same-padding

    spec_nopad = NetworkSpec(
        layers=(ConvLayer(kernel=k, bias=np.zeros(4), padding=0),),
        input_shape=(6, 6, 2),
        names=("c",),
    )
    conn0 = receptive_sets(spec_nopad, 0)
    assert len(conn0.u_set(0, 0, 0)) < len(conn0.u_set(3, 3, 0))


def test_u_set_lists_are_fresh_and_every_call_is_checked():
    conn = ConvConnectivity(in_shape=(6, 6, 2), out_shape=(6, 6, 4), kernel_w=3, kernel_h=3, stride=1, padding=1)
    first = conn.u_set(3, 3, 0)
    expected = list(first)
    first.clear()
    assert conn.u_set(3, 3, 0) == expected
    second = conn.u_set(3, 3, 1)
    second.append((0, 0, 0))
    assert conn.u_set(3, 3, 1) == expected
    with pytest.raises(IndexError, match=r"input neuron \(3,3,2\)"):
        conn.u_set(3, 3, 2)  # D is 2: the position's earlier answers do not cover it


def test_u_set_channels_of_one_position_share_their_consumer_tuples():
    # what lets a walk compare two channels' sets by identity, item by item
    conn = ConvConnectivity(in_shape=(6, 6, 2), out_shape=(6, 6, 4), kernel_w=3, kernel_h=3, stride=1, padding=1)
    u0, u1 = conn.u_set(2, 4, 0), conn.u_set(2, 4, 1)
    assert u0 is not u1
    assert len(u0) == len(u1) == 9 * 4
    assert all(a is b for a, b in zip(u0, u1))


def test_uv_duality(tiny_net):
    rng = np.random.default_rng(17)
    shapes = tiny_net.shapes
    for t in (0, 2):  # conv layers of tiny-2conv
        conn = receptive_sets(tiny_net, t)
        for _ in range(30):
            w, h, d = (int(rng.integers(s)) for s in shapes[t])
            wp, hp, dp = (int(rng.integers(s)) for s in shapes[t + 1])
            in_u = (wp, hp, dp) in conn.u_set(w, h, d)
            in_v = (w, h, d) in conn.v_set(wp, hp, dp)
            assert in_u == in_v == conn.connected(w, h, d, wp, hp, dp)


def test_receptive_sets_returns_the_connectivity_built_with_the_spec(tiny_net):
    shapes = tiny_net.shapes
    layer = tiny_net.layers[2]
    conn = receptive_sets(tiny_net, 2)
    assert receptive_sets(tiny_net, 2) is conn
    assert conn == ConvConnectivity(shapes[2], shapes[3], *layer.kernel.shape[:2], layer.stride, layer.padding)
    assert "_conns" not in repr(tiny_net)


def test_receptive_sets_rejects_pool_and_bad_index(tiny_net):
    with pytest.raises(ShapeError):
        receptive_sets(tiny_net, 1)  # pool-1
    with pytest.raises(IndexError):
        receptive_sets(tiny_net, 9)
    conn = receptive_sets(tiny_net, 0)
    with pytest.raises(IndexError):
        conn.u_set(8, 0, 0)


# Literal per-position loops over every window: the references the tap-walk
# kernels are held to.


def naive_pool(window, stride, mode, x):
    """Pooled output and flat argmax index (first strict maximum in scan order)."""
    W, H, D = x.shape
    ow = (W - window) // stride + 1
    oh = (H - window) // stride + 1
    out = np.zeros((ow, oh, D))
    idx = np.zeros((ow, oh, D), dtype=np.int64)
    for wo in range(ow):
        for ho in range(oh):
            for d in range(D):
                best, total = None, 0.0
                for a in range(window):
                    for b in range(window):
                        v = x[wo * stride + a, ho * stride + b, d]
                        total += v
                        if best is None or v > best:
                            best, idx[wo, ho, d] = v, a * window + b
                out[wo, ho, d] = best if mode == "max" else total / (window * window)
    return out, idx


def naive_pool_backward(window, stride, mode, x, grad_out):
    _, idx = naive_pool(window, stride, mode, x)
    gx = np.zeros_like(x)
    ow, oh, D = grad_out.shape
    for wo in range(ow):
        for ho in range(oh):
            for d in range(D):
                for a in range(window):
                    for b in range(window):
                        if mode == "average":
                            share = grad_out[wo, ho, d] / (window * window)
                        elif idx[wo, ho, d] == a * window + b:
                            share = grad_out[wo, ho, d]
                        else:
                            continue
                        gx[wo * stride + a, ho * stride + b, d] += share
    return gx


def naive_conv_backward_input(kernel, stride, padding, grad_out, in_shape):
    kw, kh, din, dout = kernel.shape
    W, H, _ = in_shape
    gx = np.zeros(in_shape)
    ow, oh, _ = grad_out.shape
    for wo in range(ow):
        for ho in range(oh):
            for do in range(dout):
                for a in range(kw):
                    for b in range(kh):
                        w = wo * stride + a - padding
                        h = ho * stride + b - padding
                        if 0 <= w < W and 0 <= h < H:
                            for di in range(din):
                                gx[w, h, di] += kernel[a, b, di, do] * grad_out[wo, ho, do]
    return gx


def random_pool_cases(seed, n=40):
    """Integer-valued inputs (so windows tie) with the stride below, at and
    above the window: overlapping, tiling and gapped pools."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        k = int(rng.integers(1, 4))
        s = max(1, k + (-1, 0, 1, 2)[i % 4])
        ow, oh = (int(v) for v in rng.integers(1, 5, size=2))
        W = k + (ow - 1) * s + int(rng.integers(0, s))
        H = k + (oh - 1) * s + int(rng.integers(0, s))
        x = rng.integers(-2, 3, size=(W, H, int(rng.integers(1, 4)))).astype(np.float64)
        yield PoolLayer(window=k, stride=s, mode=("max", "average")[i % 2]), x, rng


def test_pool_kernels_match_naive_reference():
    overlapping = gapped = ties = 0
    for layer, x, rng in random_pool_cases(seed=31):
        out, idx = naive_pool(layer.window, layer.stride, layer.mode, x)
        npt.assert_allclose(apply_pool(layer, x), out, rtol=0, atol=1e-12)
        if layer.mode == "max":
            npt.assert_array_equal(_max_pool_choice(layer, x), idx)
        grad_out = rng.integers(-3, 4, size=out.shape).astype(np.float64)
        npt.assert_allclose(
            _pool_backward(layer, x, apply_pool(layer, x), grad_out),
            naive_pool_backward(layer.window, layer.stride, layer.mode, x, grad_out),
            rtol=0,
            atol=1e-12,
        )
        overlapping += layer.stride < layer.window
        gapped += layer.stride > layer.window
        ties += layer.window > 1 and np.unique(x).size < x.size
    assert overlapping and gapped and ties


def conv_backward_cases():
    """40 random transposed-conv cases (kernel, stride, padding, grad_out, (W, H, d_in)):
    kernels up to 4x4, stride 1-3, padding 0-2, the same draws on every call."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        kw, kh = (int(v) for v in rng.integers(1, 5, size=2))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        din, dout = (int(v) for v in rng.integers(1, 4, size=2))
        W = max(1, kw - 2 * padding) + int(rng.integers(0, 2 * stride + 1))
        H = max(1, kh - 2 * padding) + int(rng.integers(0, 2 * stride + 1))
        ow = (W + 2 * padding - kw) // stride + 1
        oh = (H + 2 * padding - kh) // stride + 1
        kernel = rng.standard_normal((kw, kh, din, dout))
        grad_out = rng.integers(-3, 4, size=(ow, oh, dout)).astype(np.float64)
        yield kernel, stride, padding, grad_out, (W, H, din)


def test_conv_backward_input_matches_naive_reference():
    for kernel, stride, padding, grad_out, in_shape in conv_backward_cases():
        for k in (kernel, np.ones_like(kernel)):  # a drawn kernel, and the all-ones one
            npt.assert_allclose(
                _conv_backward_input(k, stride, padding, grad_out, in_shape),
                naive_conv_backward_input(k, stride, padding, grad_out, in_shape),
                rtol=0,
                atol=1e-12,
            )


def test_gamma_hop_equals_the_ones_kernel_transposed_conv():
    """The hop's plain-tap box sum gives the bits of the masked, channel-summed
    score sent through ``_conv_backward_input`` with a (kw, kh, 1, 1) ones kernel,
    for one (W', H', D') score and for two (W', H', N, D') ones stacked on axis 2;
    a per-channel part gives the bits of its copy expanded over (W', H')."""
    data = np.random.default_rng(43)
    for case, (kernel, stride, padding, _, (W, H, din)) in enumerate(conv_backward_cases()):
        relu = case % 4 != 3
        layer = ConvLayer(kernel=kernel, bias=data.standard_normal(kernel.shape[3]), stride=stride,
                          padding=padding, apply_relu=relu)
        for stack, batch in (((), ()), ((2,), (3,))):
            x_t = data.standard_normal((W, H, *batch, din))
            x_next = apply_conv(layer, x_t)
            x_next = np.maximum(x_next, 0.0) if relu else x_next
            score = data.standard_normal((*x_next.shape[:2], *stack, *x_next.shape[2:]))
            mask = (x_next > 0).reshape(x_next.shape[:2] + (1,) * len(stack) + x_next.shape[2:])
            field = (score * mask if relu else score).sum(axis=-1, keepdims=True)
            old = _conv_backward_input(np.ones(kernel.shape[:2] + (1, 1)), stride, padding, field, x_t.shape)
            parts = list(np.moveaxis(score, 2, 0)) if stack else [score]
            got = _gamma_hop(layer, x_t, x_next, parts)
            assert got.shape == (W, H, len(parts), *batch, 1)
            assert np.array_equal(got.reshape(old.shape), old)
            channel = data.standard_normal(x_next.shape[2:])
            expanded = np.broadcast_to(channel, x_next.shape).copy()
            assert np.array_equal(_gamma_hop(layer, x_t, x_next, [parts[0], channel]),
                                  _gamma_hop(layer, x_t, x_next, [parts[0], expanded]))


def test_batched_kernels_equal_per_image_calls():
    """A (W, H, N, D) stack, and a (W, H, S, N, D) one, gives each slice's single-image result."""
    rng = np.random.default_rng(53)
    for layer, x, _ in random_pool_cases(seed=57, n=20):
        stack = np.stack([x, x[::-1], rng.integers(-2, 3, size=x.shape).astype(np.float64)], axis=2)
        out = apply_pool(layer, stack)
        idx = _max_pool_choice(layer, stack)
        grad_out = rng.integers(-3, 4, size=(*out.shape[:2], 2, *out.shape[2:])).astype(np.float64)
        grad_in = _pool_backward(layer, stack, out, grad_out)
        for n in range(stack.shape[2]):
            npt.assert_allclose(out[:, :, n], apply_pool(layer, stack[:, :, n]), rtol=0, atol=1e-12)
            npt.assert_array_equal(idx[:, :, n], _max_pool_choice(layer, stack[:, :, n]))
            for s in range(2):
                npt.assert_allclose(
                    grad_in[:, :, s, n],
                    _pool_backward(layer, stack[:, :, n], out[:, :, n], grad_out[:, :, s, n]),
                    rtol=0,
                    atol=1e-12,
                )
    for _ in range(20):
        kw, kh = (int(v) for v in rng.integers(1, 4, size=2))
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        din, dout = (int(v) for v in rng.integers(1, 4, size=2))
        W = max(1, kw - 2 * padding) + int(rng.integers(0, 4))
        H = max(1, kh - 2 * padding) + int(rng.integers(0, 4))
        kernel = rng.standard_normal((kw, kh, din, dout))
        layer = ConvLayer(kernel=kernel, bias=rng.standard_normal(dout), stride=stride, padding=padding)
        stack = rng.standard_normal((W, H, 4, din))
        out = apply_conv(layer, stack)
        grad_out = rng.standard_normal((*out.shape[:2], 2, 4, dout))
        grad_in = _conv_backward_input(layer.kernel, stride, padding, grad_out, stack.shape)
        assert grad_in.shape == (W, H, 2, 4, din)
        for n in range(4):
            npt.assert_allclose(out[:, :, n], apply_conv(layer, stack[:, :, n]), rtol=0, atol=1e-12)
            for s in range(2):
                npt.assert_allclose(
                    grad_in[:, :, s, n],
                    _conv_backward_input(layer.kernel, stride, padding, grad_out[:, :, s, n], (W, H, din)),
                    rtol=0,
                    atol=1e-12,
                )


def test_connection_count_matches_literal_count():
    rng = np.random.default_rng(61)
    for _ in range(40):
        kw, kh = (int(v) for v in rng.integers(1, 5, size=2))
        stride, padding = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        din, dout = (int(v) for v in rng.integers(1, 4, size=2))
        W = max(1, kw - 2 * padding) + int(rng.integers(0, 6))
        H = max(1, kh - 2 * padding) + int(rng.integers(0, 6))
        kernel = np.zeros((kw, kh, din, dout))
        spec = conv_spec(kernel, np.zeros(dout), stride, padding, input_shape=(W, H, din))
        conn = receptive_sets(spec, 0)
        ow, oh, _ = conn.out_shape
        literal = sum(
            len(conn.v_set(wp, hp, dp)) for wp in range(ow) for hp in range(oh) for dp in range(dout)
        )
        assert conn.connection_count() == literal


def test_v_set_matches_literal_nested_loops():
    # u_set is held to its own literal loop on the same geometries
    def literal_u_set(conn, w, h):
        out = []
        for wp in range(conn.out_shape[0]):
            if 0 <= w - wp * conn.stride + conn.padding < conn.kernel_w:
                for hp in range(conn.out_shape[1]):
                    if 0 <= h - hp * conn.stride + conn.padding < conn.kernel_h:
                        out.extend((wp, hp, dp) for dp in range(conn.out_shape[2]))
        return out

    def literal_v_set(conn, wp, hp):
        out = []
        for a in range(conn.kernel_w):
            w = wp * conn.stride + a - conn.padding
            if 0 <= w < conn.in_shape[0]:
                for b in range(conn.kernel_h):
                    h = hp * conn.stride + b - conn.padding
                    if 0 <= h < conn.in_shape[1]:
                        out.extend((w, h, d) for d in range(conn.in_shape[2]))
        return out

    geometries = 0
    for W in (1, 2, 5, 6):
        for kw in (1, 2, 3, 4):
            for stride in (1, 2, 3, 5):  # 5 exceeds every kernel
                for padding in (0, 1, 2):
                    ow = (W + 2 * padding - kw) // stride + 1
                    if ow < 1:
                        continue
                    H, kh = W + 1, max(1, kw - 1)
                    oh = (H + 2 * padding - kh) // stride + 1
                    conn = ConvConnectivity(in_shape=(W, H, 2), out_shape=(ow, oh, 3), kernel_w=kw,
                                            kernel_h=kh, stride=stride, padding=padding)
                    for wp in range(ow):
                        for hp in range(oh):
                            for dp in range(3):
                                assert conn.v_set(wp, hp, dp) == literal_v_set(conn, wp, hp)
                    # forward, then back: the visits return to positions left earlier, and
                    # each geometry ends at (0, 0), where the next one starts
                    positions = [(w, h) for w in range(W) for h in range(H)]
                    for w, h in positions + positions[::-1]:
                        for d in range(2):
                            assert conn.u_set(w, h, d) == literal_u_set(conn, w, h)
                    geometries += 1
    assert geometries > 150
