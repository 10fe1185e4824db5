import ast
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from interactive import (
    ActivenessRequest,
    ConvLayer,
    NetworkSpec,
    Tensor3,
    connection_activeness,
    enumerate_gamma,
    fd_connection_score,
    forward,
    generate_model,
    neuron_activeness,
    receptive_sets,
)
from interactive.net import apply_conv
from interactive.oracle import ENUMERATION_GUARD, FDSettings, fd_activation_score, fd_connection_check

from conftest import random_input


def test_settings_validation():
    with pytest.raises(ValueError):
        FDSettings(step=0.0)
    with pytest.raises(ValueError):
        FDSettings(rel_tol=-1.0)
    s = FDSettings()
    assert s.step == 1e-4 and s.rel_tol == 1e-4 and s.kink_guard == 1e-6


def test_fd_zero_upstream_activation(tiny_net):
    x0 = Tensor3.from_array(np.zeros(tiny_net.input_shape))
    trace = forward(tiny_net, x0)
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    conn = receptive_sets(tiny_net, 0)
    wp, hp, dp = 3, 3, 0
    w, h, d = conn.v_set(wp, hp, dp)[0]
    fd = fd_connection_score(tiny_net, x0, request, (w, h, d, wp, hp, dp), trace=trace)
    assert abs(fd) <= 1e-8


def test_fd_clamped_downstream_flat_region(tiny_net, tiny_trace):
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    pre = apply_conv(tiny_net.layers[0], tiny_trace.acts[0])
    wp, hp, dp = map(int, np.unravel_index(pre.argmin(), pre.shape))
    margin = -pre[wp, hp, dp]
    conn = receptive_sets(tiny_net, 0)
    settings = FDSettings()
    # pick a source whose perturbation cannot cross the clamp boundary
    x0 = Tensor3.from_array(tiny_trace.acts[0])
    for w, h, d in conn.v_set(wp, hp, dp):
        x = tiny_trace.acts[0][w, h, d]
        if margin > settings.step * abs(x) * 10 and abs(x) > 0.1:
            fd = fd_connection_score(tiny_net, x0, request, (w, h, d, wp, hp, dp))
            assert abs(fd) <= 1e-8
            return
    pytest.fail("no safely clamped connection found")


def test_fd_matches_engine_on_random_net(tiny_net, tiny_trace):
    rng = np.random.default_rng(55)
    settings = FDSettings()
    checked = 0
    for sup in ("last", "next"):
        for p in (1, 2):
            request = ActivenessRequest(target_layer=0, supervision=sup, p=p)
            conn = receptive_sets(tiny_net, 0)
            for _ in range(15):
                wp, hp, dp = (int(rng.integers(s)) for s in conn.out_shape)
                sources = conn.v_set(wp, hp, dp)
                w, h, d = sources[int(rng.integers(len(sources)))]
                sample = (w, h, d, wp, hp, dp)
                engine = connection_activeness(tiny_net, tiny_trace, request, sample)
                fd = fd_connection_check(tiny_net, tiny_trace, request, sample, settings)
                if fd is None:
                    continue
                scale = max(abs(engine), abs(fd))
                if scale > 1e-6:
                    assert abs(engine - fd) / scale <= settings.rel_tol
                else:
                    assert abs(engine - fd) <= 1e-7
                checked += 1
    assert checked >= 40


def test_fd_rejects_unconnected(tiny_net, tiny_trace):
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    with pytest.raises(ValueError, match="does not exist"):
        fd_connection_score(tiny_net, Tensor3.from_array(tiny_trace.acts[0]), request, (0, 0, 0, 7, 7, 0),
                            trace=tiny_trace)
    # one step outside the 3x3 pad-1 window: kernel offset -1, which must not
    # wrap around to the kernel's far column and probe another weight
    with pytest.raises(ValueError, match="does not exist"):
        fd_connection_check(tiny_net, tiny_trace, request, (4, 4, 0, 6, 6, 0))


def test_fd_step_halving_is_stable(tiny_net, tiny_trace):
    # difference quotients on this piecewise-polynomial likelihood converge
    # at O(step^2); halving the step must not move stable estimates
    rng = np.random.default_rng(56)
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    conn = receptive_sets(tiny_net, 0)
    samples = 0
    while samples < 10:
        wp, hp, dp = (int(rng.integers(s)) for s in conn.out_shape)
        sources = conn.v_set(wp, hp, dp)
        w, h, d = sources[int(rng.integers(len(sources)))]
        sample = (w, h, d, wp, hp, dp)
        e_h = fd_connection_check(tiny_net, tiny_trace, request, sample, FDSettings(step=1e-4))
        e_h2 = fd_connection_check(tiny_net, tiny_trace, request, sample, FDSettings(step=5e-5))
        if e_h is None or e_h2 is None:
            continue
        samples += 1
        assert abs(e_h - e_h2) <= max(1e-8, 1e-6 * abs(e_h))


def test_fd_activation_score_rejects_coords_outside_the_activation():
    spec = generate_model("tiny-2conv", seed=1)
    trace = forward(spec, random_input(spec, seed=0))
    L = len(spec.layers)
    # on the 8x8x3 input, (-5, -5, -2) would wrap around and probe (3, 3, 1)
    assert fd_activation_score(spec, trace, L, 2, 0, (3, 3, 1)) == pytest.approx(-0.0360596, abs=1e-7)
    for coord in ((-5, -5, -2), (8, 0, 0), (0, 0, 3), (0, 0)):
        with pytest.raises(IndexError, match=re.escape(f"coord {coord} outside activation 0 of shape (8, 8, 3)")):
            fd_activation_score(spec, trace, L, 2, 0, coord)


class TestEnumerateGamma:
    def test_closed_form_single_conv(self):
        # 1x1 spatial, 1x1 conv: gamma[d] = sum_dp 2 * post[dp] for active dp
        kernel = np.array([[[[0.5, -2.0], [1.5, 0.25]]]])  # (1,1,2,2)
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=kernel, bias=np.array([0.1, 0.2])),),
            input_shape=(1, 1, 2),
            names=("conv-1",),
        )
        x = Tensor3(1, 1, 2, [1.0, 2.0])
        trace = forward(spec, x)
        post = trace.acts[1][0, 0]
        expected = sum(2.0 * v for v in post if v > 0)
        request = ActivenessRequest(target_layer=0, supervision="next", p=2)
        got = enumerate_gamma(spec, trace, request)
        npt.assert_allclose(got, expected, atol=1e-12)

    def test_matches_engine_all_configurations(self, tiny_net, tiny_trace):
        for sup in ("last", "next"):
            for p in (1, 2):
                for t in (0, 2):
                    request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
                    enum = enumerate_gamma(tiny_net, tiny_trace, request)
                    engine = neuron_activeness(tiny_net, tiny_trace, request).gamma
                    assert np.abs(enum - engine).max() <= 1e-10

    def test_guard_rejects_oversize_net(self):
        # 32x32 outputs x 60 channels x (up to 25 kernel cells) x 8 input channels > 1e7
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=np.zeros((5, 5, 8, 60)), bias=np.zeros(60), padding=2),),
            input_shape=(32, 32, 8),
            names=("big",),
        )
        conn = receptive_sets(spec, 0)
        assert conn.connection_count() > ENUMERATION_GUARD
        trace = forward(spec, Tensor3.from_array(np.zeros((32, 32, 8))))
        request = ActivenessRequest(target_layer=0, supervision="next", p=1)
        with pytest.raises(ValueError, match="guard"):
            enumerate_gamma(spec, trace, request)


# The engine's backward path.  The oracles check it, so they must not run it.
ENGINE_BACKWARD = {
    "reverse_sweep", "gamma_stacks", "_gamma_hop", "_conv_backward_input",
    "_pool_backward", "_lift", "weighted_features", "window_taps",
}


def test_oracle_imports_nothing_of_the_engine_backward_path():
    import interactive.oracle

    tree = ast.parse(Path(interactive.oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "*" not in used
    assert not used & ENGINE_BACKWARD
