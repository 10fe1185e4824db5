import re

import numpy as np
import numpy.testing as npt
import pytest

from interactive import (
    ConvLayer,
    NetworkSpec,
    PoolLayer,
    ShapeError,
    Tensor3,
    forward,
    infer_shapes,
    receptive_sets,
)
from interactive.activeness import _conv_backward_input, _pool_backward
from interactive.net import apply_conv, apply_pool, pool_argmax

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
    assert infer_shapes(spec) == [(8, 8, 4), (4, 4, 4)]


def test_infer_shapes_rejects_oversized_kernel():
    k = np.zeros((5, 5, 1, 1))
    with pytest.raises(ShapeError, match="conv-1"):
        NetworkSpec(
            layers=(ConvLayer(kernel=k, bias=np.zeros(1)),),
            input_shape=(4, 4, 1),
            names=("conv-1",),
        )


def test_network_spec_validation():
    k = np.zeros((1, 1, 1, 1))
    layer = ConvLayer(kernel=k, bias=np.zeros(1))
    with pytest.raises(ShapeError, match="unique"):
        NetworkSpec(layers=(layer, layer), input_shape=(2, 2, 1), names=("a", "a"))
    with pytest.raises(ShapeError, match="channels"):
        NetworkSpec(layers=(layer,), input_shape=(2, 2, 3), names=("a",))


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
    trace = forward(spec, Tensor3(1, 1, 1, [2.0]))
    assert trace.acts[1][0, 0, 0] == 5.0  # 2*3 - 1

    spec = conv_spec(np.full((1, 1, 1, 1), 3.0), np.array([-7.0]))
    trace = forward(spec, Tensor3(1, 1, 1, [2.0]))
    assert trace.acts[1][0, 0, 0] == 0.0  # ReLU clamps 2*3 - 7


def test_forward_max_pool():
    spec = NetworkSpec(
        layers=(PoolLayer(window=2, stride=2, mode="max"),), input_shape=(2, 2, 1), names=("pool-1",)
    )
    trace = forward(spec, Tensor3(2, 2, 1, [1, 2, 3, 4]))
    assert trace.acts[1].shape == (1, 1, 1)
    assert trace.acts[1][0, 0, 0] == 4.0


def test_forward_average_pool():
    spec = NetworkSpec(
        layers=(PoolLayer(window=2, stride=2, mode="average"),),
        input_shape=(2, 2, 1),
        names=("pool-1",),
    )
    trace = forward(spec, Tensor3(2, 2, 1, [1, 2, 3, 4]))
    assert trace.acts[1][0, 0, 0] == 2.5


def test_forward_shape_mismatch():
    spec = conv_spec(np.ones((1, 1, 1, 1)), np.zeros(1))
    with pytest.raises(ShapeError):
        forward(spec, Tensor3(2, 1, 1, [1.0, 2.0]))


def test_forward_overflow_names_layer():
    # -1e308 overflows to -inf, which the ReLU would turn into 0: the check
    # must see the conv output before the ReLU
    for weight in (1e308, -1e308):
        spec = conv_spec(np.full((1, 1, 1, 1), weight), np.zeros(1))
        with pytest.raises(ValueError, match="layer conv-1: output contains NaN or Inf"):
            forward(spec, Tensor3(1, 1, 1, [1e10]))


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


def test_forward_is_deterministic_bitwise(tiny_net):
    x = random_input(tiny_net, seed=5)
    t1 = forward(tiny_net, x)
    t2 = forward(tiny_net, x)
    for a, b in zip(t1.acts, t2.acts):
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
    for a, b in zip(base.acts[:-1], other.acts[:-1]):
        assert np.array_equal(a, b)
    assert not np.array_equal(base.acts[-1], other.acts[-1])


def test_relu_idempotent_on_activations(tiny_net, tiny_trace):
    for layer, act in zip(tiny_net.layers, tiny_trace.acts[1:]):
        if isinstance(layer, ConvLayer) and layer.apply_relu:
            npt.assert_array_equal(np.maximum(act, 0.0), act)


def test_trace_acts_are_read_only(tiny_net, tiny_trace):
    assert len(tiny_trace.acts) == len(tiny_net.layers) + 1
    for act in tiny_trace.acts:
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


def test_uv_duality(tiny_net):
    rng = np.random.default_rng(17)
    shapes = infer_shapes(tiny_net)
    for t in (0, 2):  # conv layers of tiny-2conv
        conn = receptive_sets(tiny_net, t)
        in_shape = tiny_net.input_shape if t == 0 else shapes[t - 1]
        for _ in range(30):
            w, h, d = (int(rng.integers(s)) for s in in_shape)
            wp, hp, dp = (int(rng.integers(s)) for s in shapes[t])
            in_u = (wp, hp, dp) in conn.u_set(w, h, d)
            in_v = (w, h, d) in conn.v_set(wp, hp, dp)
            assert in_u == in_v == conn.connected(w, h, d, wp, hp, dp)


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
            npt.assert_array_equal(pool_argmax(layer, x), idx)
        grad_out = rng.integers(-3, 4, size=out.shape).astype(np.float64)
        npt.assert_allclose(
            _pool_backward(layer, x, grad_out),
            naive_pool_backward(layer.window, layer.stride, layer.mode, x, grad_out),
            rtol=0,
            atol=1e-12,
        )
        overlapping += layer.stride < layer.window
        gapped += layer.stride > layer.window
        ties += layer.window > 1 and np.unique(x).size < x.size
    assert overlapping and gapped and ties


def test_conv_backward_input_matches_naive_reference():
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
        for k in (kernel, np.ones_like(kernel)):  # the gamma hop runs the ones kernel
            npt.assert_allclose(
                _conv_backward_input(k, stride, padding, grad_out, (W, H, din)),
                naive_conv_backward_input(k, stride, padding, grad_out, (W, H, din)),
                rtol=0,
                atol=1e-12,
            )


def test_batched_kernels_equal_per_image_calls():
    """A (W, H, N, D) stack, and a (W, H, S, N, D) one, gives each slice's single-image result."""
    rng = np.random.default_rng(53)
    for layer, x, _ in random_pool_cases(seed=57, n=20):
        stack = np.stack([x, x[::-1], rng.integers(-2, 3, size=x.shape).astype(np.float64)], axis=2)
        out = apply_pool(layer, stack)
        idx = pool_argmax(layer, stack)
        grad_out = rng.integers(-3, 4, size=(*out.shape[:2], 2, *out.shape[2:])).astype(np.float64)
        grad_in = _pool_backward(layer, stack[:, :, None], grad_out)
        for n in range(stack.shape[2]):
            npt.assert_allclose(out[:, :, n], apply_pool(layer, stack[:, :, n]), rtol=0, atol=1e-12)
            npt.assert_array_equal(idx[:, :, n], pool_argmax(layer, stack[:, :, n]))
            for s in range(2):
                npt.assert_allclose(
                    grad_in[:, :, s, n],
                    _pool_backward(layer, stack[:, :, n], grad_out[:, :, s, n]),
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
