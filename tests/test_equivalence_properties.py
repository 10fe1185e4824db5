"""Property tests: on randomly drawn small networks, the engine agrees with the oracles.

The templates cover one geometry only (3x3 convs, stride 1, and 2x2 max pools
with stride 2).  Here hypothesis draws 1-4 layers on a 3-9 per side input:
convs with kernels of 1-3 per axis, stride 1-3, padding 0-2 and the ReLU on or
off, and max or average pools with a window and a stride of 1-3 (overlapping,
tiling and gapped).  Each net is checked three ways: gamma against the literal
enumeration, the score against finite differences at every entry of one
activation, and the connection activeness against the connection probe.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interactive import (
    ActivenessRequest,
    ConvLayer,
    NetworkSpec,
    PoolLayer,
    backprop_score,
    connection_activeness,
    enumerate_gamma,
    fd_connection_check,
    forward,
    receptive_sets,
)
from interactive.activeness import gamma_stacks, valid_targets
from interactive.oracle import fd_activation_score

NETS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
CONFIGS = [("last", 1), ("last", 2), ("next", 1), ("next", 2)]


@st.composite
def nets(draw):
    """A ``(spec, trace)`` pair: a random network with at least one conv, on a seeded input."""
    shape = (draw(st.integers(3, 9)), draw(st.integers(3, 9)), draw(st.integers(1, 3)))
    kinds = draw(st.lists(st.sampled_from(["conv", "max", "average"]), min_size=1, max_size=4))
    kinds[draw(st.integers(0, len(kinds) - 1))] = "conv"  # an activeness target
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers, (w, h, d) = [], shape
    for kind in kinds:
        if kind == "conv":
            padding = draw(st.integers(0, 2))
            kw = draw(st.integers(1, min(3, w + 2 * padding)))
            kh = draw(st.integers(1, min(3, h + 2 * padding)))
            stride, dout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            layers.append(ConvLayer(kernel=rng.standard_normal((kw, kh, d, dout)) / np.sqrt(kw * kh * d),
                                    bias=0.1 * rng.standard_normal(dout), stride=stride, padding=padding,
                                    apply_relu=draw(st.booleans())))
            w, h, d = (w + 2 * padding - kw) // stride + 1, (h + 2 * padding - kh) // stride + 1, dout
        else:
            window, stride = draw(st.integers(1, min(3, w, h))), draw(st.integers(1, 3))
            layers.append(PoolLayer(window=window, stride=stride, mode=kind))
            w, h = (w - window) // stride + 1, (h - window) // stride + 1
    spec = NetworkSpec(layers=layers, input_shape=shape, names=[f"layer-{i}" for i in range(len(layers))])
    return spec, forward(spec, rng.standard_normal(shape))


def _agree(engine, fd):
    """gradcheck's bounds: 1e-4 relative, or 1e-7 absolute on a near-zero pair."""
    scale = max(abs(engine), abs(fd))
    return abs(engine - fd) <= (1e-7 if scale <= 1e-6 else 1e-4 * scale)


@NETS
@given(net=nets())
def test_gamma_stacks_match_enumeration(net):
    spec, trace = net
    for t, gamma in gamma_stacks(spec, trace, valid_targets(spec), CONFIGS).items():
        assert np.abs(gamma - enumerate_gamma(spec, trace, t, CONFIGS)).max() <= 1e-10


@NETS
@given(net=nets(), data=st.data())
def test_backprop_score_matches_finite_differences_at_every_entry(net, data):
    spec, trace = net
    layer_index = data.draw(st.integers(0, len(spec.layers) - 1), label="activation")
    T = data.draw(st.integers(layer_index + 1, len(spec.layers)), label="supervision")
    p = data.draw(st.sampled_from([1, 2]), label="p")
    score = backprop_score(spec, trace, T, p, layer_index)
    for coord in np.ndindex(score.shape):
        fd = fd_activation_score(spec, trace, T, p, layer_index, coord)
        assert fd is None or _agree(score[coord], fd), coord


@NETS
@given(net=nets(), data=st.data())
def test_connection_activeness_matches_connection_probe(net, data):
    spec, trace = net
    # a conv can have output windows wholly in its padding: those have no connection
    targets = [t for t in valid_targets(spec) if receptive_sets(spec, t).connection_count() > 0]
    if not targets:
        return
    for _ in range(4):
        t = data.draw(st.sampled_from(targets), label="target")
        sup, p = data.draw(st.sampled_from(CONFIGS), label="config")
        request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
        conn = receptive_sets(spec, t)
        outputs = [out for out in np.ndindex(conn.out_shape) if conn.v_set(*out)]
        wp, hp, dp = data.draw(st.sampled_from(outputs), label="output")
        w, h, d = data.draw(st.sampled_from(conn.v_set(wp, hp, dp)), label="source")
        connection = (w, h, d, wp, hp, dp)
        fd = fd_connection_check(spec, trace, request, [connection])[0]
        assert fd is None or _agree(connection_activeness(spec, trace, request, [connection])[0], fd), connection
