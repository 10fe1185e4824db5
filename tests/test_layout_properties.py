"""Property tests: the kernels that keep the channel axis out of numpy's inner loop
give the same bytes as the formulations they replaced.

Engine arrays are (W, H, *batch, D) with a short channel axis D.  Where an
operand broadcast along D, numpy ran its inner loop once per pixel over D
values; the rewritten kernels make the same IEEE operations per element, in
the same order, over whole rows.  Each old formulation is kept here, and the
outputs are compared by ``tobytes()``, so a signed zero that moved would count.
Hypothesis draws forced ties and signed zeros, negative scores, stacked seeds,
batch axes, pool windows wider than their stride, resamples both ways and
random conv geometries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interactive import (
    ActivenessRequest, ConvLayer, NetworkSpec, PoolLayer, RasterImage, Tensor3, forward, neuron_activeness,
    to_input_tensor,
)
from interactive import net
from interactive.activeness import _lift, _pool_backward
from interactive.image import bilinear_resize
from interactive.net import apply_conv, apply_pool, window_taps

LAYOUT = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# few distinct values, so that pool windows tie and zeros of both signs meet
TIED = (-1.5, -1.0, -0.0, 0.0, 0.5, 1.0)
# mostly negative, so that a few zeros of both signs tie for a channel's maximum
SPARSE_ZEROS = (-1.0,) * 8 + (-0.0, 0.0)


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def pool_backward_before(layer, x_in, x_out, grad_out):
    k = layer.window
    gx = np.zeros(x_in.shape[:2] + grad_out.shape[2:])
    free = np.ones(x_out.shape, dtype=bool) if layer.mode == "max" else None
    for _, _, tap in window_taps(k, k, layer.stride, *grad_out.shape[:2]):
        if free is None:
            gx[tap] += grad_out / (k * k)
        else:
            hit = free & (x_in[tap] == x_out)
            free &= ~hit
            gx[tap] += np.where(_lift(hit, grad_out), grad_out, 0.0)
    return gx


def bilinear_resize_before(arr, out_h, out_w):
    out = np.asarray(arr, dtype=np.float64)
    for axis, size in ((1, out_w), (0, out_h)):
        n = out.shape[axis]
        pos = np.clip((np.arange(size) + 0.5) * (n / size) - 0.5, 0, n - 1)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.minimum(i0 + 1, n - 1)
        f = (pos - i0).reshape((-1,) + (1,) * (out.ndim - axis - 1))
        out = (1 - f) * out.take(i0, axis) + f * out.take(i1, axis)
    return out


def apply_conv_before(layer, x):
    kw, kh, _, dout = layer.kernel.shape
    s, p = layer.stride, layer.padding
    ow, oh = (x.shape[0] + 2 * p - kw) // s + 1, (x.shape[1] + 2 * p - kh) // s + 1
    xp = x
    if p:
        xp = np.zeros((x.shape[0] + 2 * p, x.shape[1] + 2 * p, *x.shape[2:]), x.dtype)
        xp[p:-p, p:-p] = x
    out = np.zeros((ow, oh, *x.shape[2:-1], dout))
    cols = max(1, net.CONV_SLAB_ELEMENTS // max(1, out[0].size))
    for lo in range(0, ow, cols):
        slab, xs = out[lo : lo + cols], xp[lo * s :]
        for a, b, tap in window_taps(kw, kh, s, len(slab), oh):
            slab += xs[tap] @ layer.kernel[a, b]
        slab += layer.bias
    return out


def to_input_tensor_before(img, mean):
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    return Tensor3.from_array(img.pixels.transpose(1, 0, 2) - mean)


def tied(draw, shape, rng):
    """An array of ``shape`` drawn from ``TIED``, or standard normal values with zeros of both signs."""
    if draw(st.booleans()):
        return rng.choice(TIED, size=shape)
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


@LAYOUT
@given(data=st.data())
def test_pool_backward_routes_the_same_bytes(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))  # stride < window overlaps
    layer = PoolLayer(window=window, stride=stride, mode=draw(st.sampled_from(["max", "average"])))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    stack = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    shape = (draw(st.integers(window, 8)), draw(st.integers(window, 8)), *batch, draw(st.integers(1, 4)))
    x_in = tied(draw, shape, rng)
    x_out = apply_pool(layer, x_in)
    grad_out = tied(draw, (*x_out.shape[:2], *stack, *x_out.shape[2:]), rng)
    assert same_bytes(_pool_backward(layer, x_in, x_out, grad_out),
                      pool_backward_before(layer, x_in, x_out, grad_out))


@LAYOUT
@given(data=st.data())
def test_max_feature_keeps_the_sign_of_a_tied_zero(data):
    # a nonpositive input under "next" supervision (gamma >= 0) weights every input position to
    # -0.0, +0.0 or below, so most channel maxima are zeros of both signs, tied; 16 or more
    # positions of one channel reach np.max's vector lanes, which break such ties their own way
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 4)))
    kw, kh = draw(st.integers(1, min(3, shape[0]))), draw(st.integers(1, min(3, shape[1])))
    dout = draw(st.integers(1, 3))
    layer = ConvLayer(kernel=rng.standard_normal((kw, kh, shape[2], dout)), bias=0.3 * rng.standard_normal(dout),
                      stride=draw(st.integers(1, 2)), apply_relu=draw(st.booleans()))
    spec = NetworkSpec(layers=[layer], input_shape=shape, names=["conv"])
    x = rng.choice(draw(st.sampled_from([SPARSE_ZEROS, TIED])), size=shape)
    request = ActivenessRequest(0, draw(st.sampled_from(["next", "last"])), draw(st.integers(1, 2)))
    result = neuron_activeness(spec, forward(spec, x), request)
    assert same_bytes(result.feature, np.max(result.activeness, axis=(0, 1)))


@LAYOUT
@given(data=st.data())
def test_bilinear_resize_gives_the_same_bytes(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if draw(st.booleans()):  # a 3-D (h, w, c) array, else a 2-D map
        shape += (draw(st.integers(1, 4)),)
    arr = tied(draw, shape, rng)
    out_h, out_w = draw(st.integers(1, 24)), draw(st.integers(1, 24))  # up and down, each axis on its own
    assert same_bytes(bilinear_resize(arr, out_h, out_w), bilinear_resize_before(arr, out_h, out_w))


@LAYOUT
@given(data=st.data())
def test_apply_conv_adds_the_bias_to_the_same_bytes(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kw, kh, din, dout = (draw(st.integers(1, 3)) for _ in range(4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    bias = rng.standard_normal(dout)
    bias[rng.random(dout) < 0.3] = -0.0
    layer = ConvLayer(kernel=tied(draw, (kw, kh, din, dout), rng), bias=bias, stride=stride, padding=padding)
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    w = draw(st.integers(max(1, kw - 2 * padding), 9))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    x = tied(draw, (w, h, *batch, din), rng)
    budget = draw(st.sampled_from([1, 7, net.CONV_SLAB_ELEMENTS]))  # one column, a few, all in one slab
    default, net.CONV_SLAB_ELEMENTS = net.CONV_SLAB_ELEMENTS, budget
    try:
        assert same_bytes(apply_conv(layer, x), apply_conv_before(layer, x))
    finally:
        net.CONV_SLAB_ELEMENTS = default


@LAYOUT
@given(data=st.data())
def test_to_input_tensor_subtracts_to_the_same_bytes(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.sampled_from([1, 3]))
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    stack = rng.integers(0, 256, size=(*batch, draw(st.integers(1, 9)), draw(st.integers(1, 9)), channels),
                         dtype=np.uint8)
    img = RasterImage(pixels=stack[(0,) * len(batch)])
    means = st.sampled_from([0.0, -0.0, 128.0, 127.5, 255.0, -3.25, 1e-300])
    mean = [draw(means) for _ in range(channels)]
    got, want = to_input_tensor(img.pixels, mean).array, to_input_tensor_before(img, mean).array
    assert same_bytes(got, want) and got.flags.c_contiguous and not got.flags.writeable

    def stacked(pixels):  # (W, H, *batch, D): each image's old-form input, stacked on axis 2 per batch axis
        if pixels.ndim == 3:
            return to_input_tensor_before(RasterImage(pixels=pixels), mean).array
        return np.stack([stacked(p) for p in pixels], axis=2)

    got = to_input_tensor(stack, mean).array
    assert same_bytes(got, stacked(stack)) and got.flags.c_contiguous and not got.flags.writeable
