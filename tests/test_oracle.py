import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interactive import (
    ActivenessRequest,
    ConvLayer,
    NetworkSpec,
    ShapeError,
    connection_activeness,
    enumerate_gamma,
    fd_connection_check,
    forward,
    generate_model,
    neuron_activeness,
    receptive_sets,
)
from interactive import cli, oracle
from interactive.activeness import backprop_score, log_likelihood, valid_targets, validate_request
from interactive.net import ConvConnectivity, apply_conv, apply_pool
from interactive.oracle import ENUMERATION_GUARD, FD_STEP, KINK_GUARD, fd_activation_score

from conftest import random_input
from test_equivalence_properties import nets

CONFIGS = [("last", 1), ("last", 2), ("next", 1), ("next", 2)]


def _padded_stride2_net():
    """A 5x5 conv with padding 2 and stride 2 on a 9x9x3 input, under a 3x3
    conv: every output position but the centre row and column reads padding."""
    rng = np.random.default_rng(21)
    layers = (
        ConvLayer(kernel=0.3 * rng.standard_normal((5, 5, 3, 4)), bias=0.1 * rng.standard_normal(4),
                  stride=2, padding=2),
        ConvLayer(kernel=0.3 * rng.standard_normal((3, 3, 4, 2)), bias=np.full(2, 0.05), padding=1),
    )
    spec = NetworkSpec(layers=layers, input_shape=(9, 9, 3), names=("conv-1", "conv-2"))
    x0 = rng.standard_normal(spec.input_shape)
    return spec, x0, forward(spec, x0)


def test_fd_zero_upstream_activation(tiny_net):
    trace = forward(tiny_net, np.zeros(tiny_net.input_shape))
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    conn = receptive_sets(tiny_net, 0)
    wp, hp, dp = 3, 3, 0
    w, h, d = conn.v_set(wp, hp, dp)[0]
    fd = fd_connection_check(tiny_net, trace, request, [(w, h, d, wp, hp, dp)])[0]
    assert fd is not None and abs(fd) <= 1e-8


def test_fd_clamped_downstream_flat_region(tiny_net, tiny_trace):
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    pre = apply_conv(tiny_net.layers[0], tiny_trace[0])
    wp, hp, dp = map(int, np.unravel_index(pre.argmin(), pre.shape))
    margin = -pre[wp, hp, dp]
    conn = receptive_sets(tiny_net, 0)
    # pick a source whose perturbation cannot cross the clamp boundary
    for w, h, d in conn.v_set(wp, hp, dp):
        x = tiny_trace[0][w, h, d]
        if margin > FD_STEP * abs(x) * 10 and abs(x) > 0.1:
            fd = fd_connection_check(tiny_net, tiny_trace, request, [(w, h, d, wp, hp, dp)])[0]
            assert fd is not None and abs(fd) <= 1e-8
            return
    pytest.fail("no safely clamped connection found")


def test_fd_matches_engine_on_random_net(tiny_net, tiny_trace):
    rng = np.random.default_rng(55)
    checked = 0
    for sup in ("last", "next"):
        for p in (1, 2):
            request = ActivenessRequest(target_layer=0, supervision=sup, p=p)
            conn = receptive_sets(tiny_net, 0)
            samples = []
            for _ in range(15):
                wp, hp, dp = (int(rng.integers(s)) for s in conn.out_shape)
                sources = conn.v_set(wp, hp, dp)
                w, h, d = sources[int(rng.integers(len(sources)))]
                samples.append((w, h, d, wp, hp, dp))
            engines = connection_activeness(tiny_net, tiny_trace, request, samples)
            for engine, fd in zip(engines, fd_connection_check(tiny_net, tiny_trace, request, samples)):
                if fd is None:
                    continue
                scale = max(abs(engine), abs(fd))
                if scale > 1e-6:
                    assert abs(engine - fd) / scale <= 1e-4
                else:
                    assert abs(engine - fd) <= 1e-7
                checked += 1
    assert checked >= 40


def test_fd_rejects_unconnected(tiny_net, tiny_trace):
    request = ActivenessRequest(target_layer=0, supervision="last", p=2)
    with pytest.raises(ValueError, match="does not exist"):
        fd_connection_check(tiny_net, tiny_trace, request, [(0, 0, 0, 7, 7, 0)])[0]
    # one step outside the 3x3 pad-1 window: kernel offset -1, which must not
    # wrap around to the kernel's far column and probe another weight
    with pytest.raises(ValueError, match="does not exist"):
        fd_connection_check(tiny_net, tiny_trace, request, [(4, 4, 0, 6, 6, 0)])[0]
    # on a pad-2, stride-2 conv: the tap one step into the top-left padding of
    # output (0, 0), given as its wrapped coordinate
    spec, _, trace = _padded_stride2_net()
    with pytest.raises(ValueError, match="does not exist"):
        fd_connection_check(spec, trace, request, [(8, 8, 0, 0, 0, 0)])[0]


def test_probe_whose_bump_crosses_the_hit_relu_is_skipped():
    # X(1) = relu(0.5 * 1 + b) sits 1e-5 above its kink: past kink_guard, but a
    # weight bump of 1e-4 puts it on either side.  No layer follows, so the
    # bumped entry's own sign is all that shows the passes straddle the kink.
    spec = NetworkSpec(
        layers=(ConvLayer(kernel=np.full((1, 1, 1, 1), 0.5), bias=np.array([-0.5 + 1e-5])),),
        input_shape=(1, 1, 1),
        names=("conv-1",),
    )
    trace = forward(spec, np.ones((1, 1, 1)))
    request = ActivenessRequest(target_layer=0, supervision="last", p=1)
    assert fd_connection_check(spec, trace, request, [(0, 0, 0, 0, 0, 0)])[0] is None


def test_fd_step_halving_is_stable(tiny_net, tiny_trace, monkeypatch):
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
        e_h = fd_connection_check(tiny_net, tiny_trace, request, [sample])[0]
        monkeypatch.setattr(oracle, "FD_STEP", FD_STEP / 2)
        e_h2 = fd_connection_check(tiny_net, tiny_trace, request, [sample])[0]
        monkeypatch.undo()
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


def test_fd_activation_score_reads_a_list_coord_as_one_entry():
    spec = generate_model("tiny-2conv", seed=1)
    trace = forward(spec, random_input(spec, seed=0))
    L = len(spec.layers)
    assert fd_activation_score(spec, trace, L, 2, 0, [3, 3, 1]) == fd_activation_score(spec, trace, L, 2, 0, (3, 3, 1))


class TestTraceOfAnotherNetwork:
    # a toy-cnn trace at 20x20 has the right layers but not the 16x16 spec's shapes
    @pytest.fixture()
    def mismatch(self):
        other = generate_model("toy-cnn", seed=0, input_shape=(20, 20, 3))
        x0 = random_input(other, seed=0)
        return generate_model("toy-cnn", seed=0), x0, forward(other, x0)

    def test_fd_connection_check_rejects_it(self, mismatch):
        spec, _, trace = mismatch
        with pytest.raises(ShapeError, match="trace activation shapes"):
            fd_connection_check(spec, trace, ActivenessRequest(target_layer=0), [(0, 0, 0, 0, 0, 0)])[0]

    def test_fd_activation_score_rejects_it(self, mismatch):
        spec, _, trace = mismatch
        with pytest.raises(ShapeError, match="trace activation shapes"):
            fd_activation_score(spec, trace, 5, 2, 0, (0, 0, 0))


class TestWindowCutAtTheBorder:
    def _border_positions(self, conn):
        # output positions whose window reaches into the padding, with their window origin
        ow, oh, _ = conn.out_shape
        for wp in range(ow):
            for hp in range(oh):
                w0, h0 = wp * conn.stride - conn.padding, hp * conn.stride - conn.padding
                over_w = w0 < 0 or w0 + conn.kernel_w > conn.in_shape[0]
                over_h = h0 < 0 or h0 + conn.kernel_h > conn.in_shape[1]
                if over_w or over_h:
                    yield wp, hp, w0, h0

    @staticmethod
    def _corner(origin, extent, size):
        # the in-range tap next to the padding (the low one when the window overruns neither side)
        return min(origin + extent, size) - 1 if origin + extent > size else max(origin, 0)

    def test_in_range_corner_taps_match_the_engine(self):
        spec, _, trace = _padded_stride2_net()
        conn = receptive_sets(spec, 0)
        positions = list(self._border_positions(conn))
        assert len(positions) == 16
        for sup, p in (("next", 2), ("last", 2)):
            request = ActivenessRequest(target_layer=0, supervision=sup, p=p)
            connections = []
            for k, (wp, hp, w0, h0) in enumerate(positions):
                w = self._corner(w0, conn.kernel_w, conn.in_shape[0])
                h = self._corner(h0, conn.kernel_h, conn.in_shape[1])
                dp = int(trace[1][wp, hp].argmax())  # an active consumer, so both sides are nonzero
                connections.append((w, h, k % 3, wp, hp, dp))
            engines = connection_activeness(spec, trace, request, connections)
            fds = fd_connection_check(spec, trace, request, connections)
            for connection, engine, fd in zip(connections, engines, fds):
                assert engine != 0.0 and fd is not None
                assert abs(engine - fd) <= 1e-6 * max(abs(engine), abs(fd)), (sup, connection, engine, fd)


def _drawn_connections(conn, rng, count):
    """``count`` connections drawn as gradcheck draws them: an output neuron, then one of its sources."""
    connections = []
    while len(connections) < count:
        wp, hp, dp = (int(rng.integers(n)) for n in conn.out_shape)
        sources = conn.v_set(wp, hp, dp)
        if sources:
            w, h, d = sources[int(rng.integers(len(sources)))]
            connections.append((w, h, d, wp, hp, dp))
    return connections


class TestStackedProbes:
    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-2conv", "tiny-3conv", "tiny-fc"])
    @pytest.mark.parametrize("model_seed", [0, 3])
    def test_a_stack_equals_one_probe_calls(self, arch, model_seed, monkeypatch):
        spec = generate_model(arch, seed=model_seed)
        trace = forward(spec, random_input(spec, seed=model_seed))
        rng = np.random.default_rng(model_seed)
        stacks, replay = [], oracle._fd_replay
        monkeypatch.setattr(oracle, "_fd_replay", lambda *args: stacks.append(len(args[5])) or replay(*args))
        for i, t in enumerate(valid_targets(spec)):
            sup, p = CONFIGS[i % len(CONFIGS)]
            request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
            connections = _drawn_connections(receptive_sets(spec, t), rng, 60)
            singles = [fd_connection_check(spec, trace, request, [c])[0] for c in connections]
            assert any(fd is not None for fd in singles)
            # a stack's bound counts its largest array, a cone region, a box or the rebuilt
            # X(T), over both copies; X(T) is rebuilt on one channel when no layer runs
            T = validate_request(spec, request)
            cone = oracle._cone(spec, t + 1, T)
            rebuilt = trace[T].size if T > t + 1 else math.prod(trace[T].shape[:2])
            largest = max([rebuilt] + [math.prod(shape) for step in cone for shape in step[-2:]])
            for bound, stack in ((1, 1), (4 * largest, 2), (2**40, None)):  # stacks of 1, 2 and all probes
                monkeypatch.setattr(oracle, "FD_STACK_ELEMENTS", bound)
                stacks.clear()
                assert fd_connection_check(spec, trace, request, connections) == singles, (t, bound)
                assert len(stacks) == 1 if stack is None else max(stacks) == stack, (t, bound, stacks)

    def test_a_pair_that_straddles_a_kink_is_none_alone(self):
        # X(1) = (1, 2); conv-2's pre-activation at w = 0 sits 1e-6 above its kink, so a
        # 1e-4 bump of the weight into X(1)[0] crosses it, while the one into X(1)[1] does not
        spec = NetworkSpec(
            layers=(
                ConvLayer(kernel=np.ones((1, 1, 1, 1)), bias=np.zeros(1)),
                ConvLayer(kernel=np.ones((1, 1, 1, 1)), bias=np.array([-1.0 + 1e-6])),
            ),
            input_shape=(2, 1, 1),
            names=("conv-1", "conv-2"),
        )
        trace = forward(spec, np.array([1.0, 2.0]).reshape(2, 1, 1))
        request = ActivenessRequest(target_layer=0, supervision="last", p=1)
        far, kink = (1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0)
        got = fd_connection_check(spec, trace, request, [far, kink, far])
        single = fd_connection_check(spec, trace, request, [far])[0]
        assert got == [single, None, single]
        assert single == pytest.approx(1.0)  # -ln f = (X(1)[0] - 1 + 1e-6 + X(1)[1] - 1 + 1e-6) / 2, X(1)[1] = 2 w

    def test_an_unconnected_connection_anywhere_raises_before_any_replay(self, tiny_net, tiny_trace, monkeypatch):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        good = _drawn_connections(receptive_sets(tiny_net, 0), np.random.default_rng(5), 4)
        monkeypatch.setattr(oracle, "_fd_replay", lambda *args: pytest.fail("replayed before checking"))
        for at in (0, 2, 4):
            with pytest.raises(ValueError, match=re.escape("connection (0, 0, 0, 7, 7, 0) does not exist")):
                fd_connection_check(tiny_net, tiny_trace, request, [*good[:at], (0, 0, 0, 7, 7, 0), *good[at:]])


def _whole_layer_replay(spec, trace, start, T, p, coords, bumps):
    """What a cone replay must equal bit for bit: every layer start..T-1 run
    whole on one (W, H, n, 2, D) stack of bumped copies of X(start)."""
    base = trace[start]
    x = np.broadcast_to(base[:, :, None, None], (*base.shape[:2], len(coords), 2, base.shape[2])).copy()
    for i, ((w, h, d), bump) in enumerate(zip(coords.tolist(), bumps)):
        x[w, h, i, :, d] = bump
    agree = np.ones(len(coords), dtype=bool)
    for layer in spec.layers[start:T]:
        field = None
        if isinstance(layer, ConvLayer):
            x = apply_conv(layer, x)
            if layer.apply_relu:
                field = x > 0
                np.maximum(x, 0.0, out=x)
        else:
            if layer.mode == "max":
                field = oracle._max_pool_choice(layer, x)
            x = apply_pool(layer, x)
        if field is not None:
            agree &= (field[:, :, :, 0] == field[:, :, :, 1]).all(axis=(0, 1, 3))
    return [
        (log_likelihood(down, p) - log_likelihood(up, p)) / (2.0 * FD_STEP) if same else None
        for (up, down), same in zip(x.mean(axis=(0, 1)), agree.tolist())
    ]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(net=nets(), seed=st.integers(0, 2**32 - 1))
def test_cone_replay_equals_whole_layer_replay(net, seed):
    spec, trace = net
    rng = np.random.default_rng(seed)
    for start in range(len(spec.layers) + 1):
        W, H, D = trace[start].shape
        corners = [(w, h, int(rng.integers(D))) for w in (0, W - 1) for h in (0, H - 1)]
        coords = np.array(corners + [[int(rng.integers(n)) for n in (W, H, D)] for _ in range(4)])
        # every other bump is large, so pairs that straddle a kink share stacks with pairs that do not
        steps = np.where(np.arange(len(coords)) % 2, 0.5, FD_STEP)[:, None] * [1.0, -1.0]
        bumps = trace[start][tuple(coords.T)][:, None] + steps
        for T in range(start, len(spec.layers) + 1):
            for p in (1, 2):
                cone = oracle._fd_probes(spec, trace, start, T, p, coords, bumps)
                assert cone == _whole_layer_replay(spec, trace, start, T, p, coords, bumps), (start, T, p)


def _window_loop(hop, conn, x, connections):
    """What ``_hop_probes`` must equal bit for bit: one window and one bumped
    kernel column per connection, each summed on its own."""
    kw, kh, _, _ = hop.kernel.shape
    pres, keep = [], []
    for w, h, d, wp, hp, dp in connections:
        w0, h0 = wp * hop.stride - hop.padding, hp * hop.stride - hop.padding
        w_lo, w_hi, h_lo, h_hi = max(w0, 0), min(w0 + kw, x.shape[0]), max(h0, 0), min(h0 + kh, x.shape[1])
        window = np.zeros((kw, kh, x.shape[2]))
        window[w_lo - w0 : w_hi - w0, h_lo - h0 : h_hi - h0] = x[w_lo:w_hi, h_lo:h_hi]
        unbumped = (window * hop.kernel[:, :, :, dp]).sum() + hop.bias[dp]
        pair = []
        for delta in (FD_STEP, -FD_STEP):
            column = hop.kernel[:, :, :, dp].copy()
            column[(*conn.kernel_offset(w, h, wp, hp), d)] += delta
            pair.append((window * column).sum() + hop.bias[dp])
        keep.append(not hop.apply_relu or (abs(unbumped) >= KINK_GUARD and (pair[0] > 0) == (pair[1] > 0)))
        pres.append([pre if pre > 0 or not hop.apply_relu else 0.0 for pre in pair])
    return pres, keep


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(net=nets(), seed=st.integers(0, 2**32 - 1))
def test_hop_probes_equal_one_window_at_a_time(net, seed):
    spec, trace = net
    rng = np.random.default_rng(seed)
    for t in valid_targets(spec):
        conn = receptive_sets(spec, t)
        if conn.connection_count() == 0:
            continue
        connections = _drawn_connections(conn, rng, 12)
        pres, keep = oracle._hop_probes(spec.layers[t], conn, trace[t], np.array(connections))
        assert (pres.tolist(), keep.tolist()) == _window_loop(spec.layers[t], conn, trace[t], connections), t


# Most bytes, by tracemalloc, that one finite-difference call of the gradcheck
# ops below allocated above what it was handed, measured as this test measures
# it (Python 3.11, numpy 2.4) with whole-layer replays in stacks of 2^13
# elements of X(start).
WHOLE_LAYER_REPLAY_PEAK = 142_877


def test_gradcheck_fd_calls_peak_no_higher_than_whole_layer_replays(tmp_path, monkeypatch):
    peaks, check = [], cli.fd_connection_check

    def measured(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        quotients = check(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return quotients

    model = str(tmp_path / "toy-cnn.bin")
    cli.main(["gen-model", "--arch", "toy-cnn", "--seed", "0", "--out", model])
    monkeypatch.setattr(cli, "fd_connection_check", measured)
    tracemalloc.start()
    try:
        for seed in range(8):
            assert cli.main(["gradcheck", "--model", model, "--seed", str(seed)]) == 0
    finally:
        tracemalloc.stop()
    assert len(peaks) == 8 * 12  # one call per (target, config) group
    assert max(peaks) <= WHOLE_LAYER_REPLAY_PEAK


def _per_consumer_walk(spec, trace, t, configs):
    """What ``enumerate_gamma`` must equal bit for bit: every input neuron's
    U-set walked one consumer at a time, each active consumer adding its
    score to one Python float per config, starting from 0.0."""
    conn, hop = receptive_sets(spec, t), spec.layers[t]
    scores = [
        backprop_score(spec, trace, validate_request(spec, ActivenessRequest(t, sup, p)), p, t + 1).tolist()
        for sup, p in configs
    ]
    active = (trace[t + 1] > 0).tolist()
    gamma = np.zeros((*conn.in_shape[:2], len(configs), conn.in_shape[2]))
    for w, h, d in np.ndindex(conn.in_shape):
        totals = [0.0] * len(configs)
        for wp, hp, dp in conn.u_set(w, h, d):
            if hop.apply_relu and not active[wp][hp][dp]:
                continue
            for k, score in enumerate(scores):
                totals[k] += score[wp][hp][dp]
        gamma[w, h, :, d] = totals
    return gamma


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(net=nets())
def test_enumeration_equals_the_per_consumer_walk_bit_for_bit(net):
    # K = 1 too: a sum over a kept axis of length 1 may switch numpy to pairwise summation
    spec, trace = net
    for t in valid_targets(spec):
        for configs in (CONFIGS, *([config] for config in CONFIGS)):
            got = enumerate_gamma(spec, trace, t, configs)
            assert got.tobytes() == _per_consumer_walk(spec, trace, t, configs).tobytes(), (t, configs)


# Most bytes, by tracemalloc, that one ``enumerate_gamma`` call of a toy-cnn
# gradcheck op (model seed 0, input seed 0) allocated above what it was handed,
# measured as this test measures it (Python 3.11, numpy 2.4) with the walk
# that added one consumer at a time from nested-list slabs of X(t+1).
PER_CONSUMER_WALK_PEAK = 163_544


def test_enumeration_peak_no_higher_than_the_per_consumer_walk():
    spec = generate_model("toy-cnn", seed=0)
    trace = forward(spec, np.random.default_rng(0).standard_normal(spec.input_shape))
    peaks = []
    for t in valid_targets(spec):  # first-call allocations (caches, free lists) stay outside the figure
        enumerate_gamma(spec, trace, t, CONFIGS)
    tracemalloc.start()
    try:
        for t in valid_targets(spec):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            enumerate_gamma(spec, trace, t, CONFIGS)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= PER_CONSUMER_WALK_PEAK


class TestEnumerateGamma:
    def test_closed_form_single_conv(self):
        # 1x1 spatial, 1x1 conv: gamma[d] = sum_dp 2 * post[dp] for active dp
        kernel = np.array([[[[0.5, -2.0], [1.5, 0.25]]]])  # (1,1,2,2)
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=kernel, bias=np.array([0.1, 0.2])),),
            input_shape=(1, 1, 2),
            names=("conv-1",),
        )
        trace = forward(spec, np.array([1.0, 2.0]).reshape(1, 1, 2))
        post = trace[1][0, 0]
        expected = sum(2.0 * v for v in post if v > 0)
        request = ActivenessRequest(target_layer=0, supervision="next", p=2)
        got = enumerate_gamma(spec, trace, request.target_layer, [(request.supervision, request.p)])
        npt.assert_allclose(got, expected, atol=1e-12)

    def test_matches_engine_all_configurations(self, tiny_net, tiny_trace):
        for sup in ("last", "next"):
            for p in (1, 2):
                for t in (0, 2):
                    request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
                    enum = enumerate_gamma(tiny_net, tiny_trace, t, [(sup, p)])[:, :, 0]
                    engine = neuron_activeness(tiny_net, tiny_trace, request).gamma
                    assert np.abs(enum - engine).max() <= 1e-10

    def test_stacked_configs_equal_one_config_walks(self, tiny_net, tiny_trace):
        for t in (0, 2):
            stacked = enumerate_gamma(tiny_net, tiny_trace, t, CONFIGS)
            assert stacked.shape == (*tiny_trace[t].shape[:2], 4, tiny_trace[t].shape[2])
            for k, config in enumerate(CONFIGS):
                assert np.array_equal(stacked[:, :, k], enumerate_gamma(tiny_net, tiny_trace, t, [config])[:, :, 0])

    def test_matches_engine_on_padded_stride2_conv(self):
        spec, _, trace = _padded_stride2_net()
        stacked = enumerate_gamma(spec, trace, 0, CONFIGS)
        for k, (sup, p) in enumerate(CONFIGS):
            engine = neuron_activeness(spec, trace, ActivenessRequest(target_layer=0, supervision=sup, p=p)).gamma
            assert np.abs(stacked[:, :, k] - engine).max() <= 1e-10

    def test_matches_engine_when_stride_exceeds_kernel(self):
        # every other input column and row feeds no consumer
        rng = np.random.default_rng(22)
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=rng.standard_normal((1, 1, 2, 3)), bias=np.full(3, 0.1), stride=2),),
            input_shape=(5, 5, 2),
            names=("conv-1",),
        )
        trace = forward(spec, rng.standard_normal(spec.input_shape))
        stacked = enumerate_gamma(spec, trace, 0, CONFIGS)
        for k, (sup, p) in enumerate(CONFIGS):
            engine = neuron_activeness(spec, trace, ActivenessRequest(target_layer=0, supervision=sup, p=p)).gamma
            assert np.abs(stacked[:, :, k] - engine).max() <= 1e-10

    def test_reuse_is_keyed_on_the_set_not_the_channel(self, monkeypatch):
        # channel 1 alone loses its last consumer: a walk that copied channel
        # 0's sums instead of comparing the sets would leave it unchanged
        spec, _, trace = _padded_stride2_net()
        before = enumerate_gamma(spec, trace, 0, CONFIGS)
        u_set = ConvConnectivity.u_set

        def channel_1_drops_last(self, w, h, d):
            full = u_set(self, w, h, d)
            return full[:-1] if d == 1 else full

        monkeypatch.setattr(ConvConnectivity, "u_set", channel_1_drops_last)
        after = enumerate_gamma(spec, trace, 0, CONFIGS)
        monkeypatch.undo()
        assert np.array_equal(after[:, :, :, [0, 2]], before[:, :, :, [0, 2]])
        conn = receptive_sets(spec, 0)
        active = trace[1] > 0
        for k, (sup, p) in enumerate(CONFIGS):
            T = validate_request(spec, ActivenessRequest(target_layer=0, supervision=sup, p=p))
            score = backprop_score(spec, trace, T, p, 1)
            literal = np.zeros(spec.input_shape[:2])
            for w in range(spec.input_shape[0]):
                for h in range(spec.input_shape[1]):
                    total = 0.0
                    for wp, hp, dp in conn.u_set(w, h, 1)[:-1]:
                        if active[wp, hp, dp]:
                            total += float(score[wp, hp, dp])
                    literal[w, h] = total
            assert np.array_equal(after[:, :, k, 1], literal)
        assert not np.array_equal(after[:, :, :, 1], before[:, :, :, 1])

    def test_guard_rejects_oversize_net(self):
        # 32x32 outputs x 60 channels x (up to 25 kernel cells) x 8 input channels > 1e7
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=np.zeros((5, 5, 8, 60)), bias=np.zeros(60), padding=2),),
            input_shape=(32, 32, 8),
            names=("big",),
        )
        conn = receptive_sets(spec, 0)
        assert conn.connection_count() > ENUMERATION_GUARD
        trace = forward(spec, np.zeros((32, 32, 8)))
        request = ActivenessRequest(target_layer=0, supervision="next", p=1)
        with pytest.raises(ValueError, match="guard"):
            enumerate_gamma(spec, trace, request.target_layer, [(request.supervision, request.p)])


# The engine's backward path.  The oracles check it, so they must not run it.
ENGINE_BACKWARD = {
    "reverse_sweep", "gamma_stacks", "_gamma_hop", "_hop_field", "_conv_backward_input",
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
