import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from interactive import (
    ActivenessRequest,
    ConvLayer,
    NetworkSpec,
    ShapeError,
    backprop_score,
    connection_activeness,
    forward,
    generate_model,
    layer_score,
    log_likelihood,
    neuron_activeness,
    receptive_sets,
)
from interactive.activeness import (
    _conv_backward_input,
    _gamma_hop,
    _lift,
    _pool_backward,
    gamma_stacks,
    reverse_sweep,
    valid_targets,
    validate_request,
    weighted_features,
)
from interactive.evalharness import INPUT_MEAN, toy_samples
from interactive.image import to_input_tensor
from interactive.net import apply_conv
from interactive.oracle import enumerate_gamma, fd_activation_score

from conftest import random_input


class TestLogLikelihood:
    def test_values(self):
        assert log_likelihood(np.array([3.0, 4.0]), p=2) == -25.0
        assert log_likelihood(np.array([3.0, 4.0]), p=1) == -7.0
        assert log_likelihood(np.array([0.0, 0.0, 0.0]), p=2) == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("D", [1, 3, 8, 17, 40])
    def test_a_stack_gives_each_row_its_one_row_value(self, D, p):
        # every width around numpy's 8-wide pairwise blocks, as FD replays stack (n, 2, D)
        xbar = np.random.default_rng(D).standard_normal((5, 2, D)) * np.logspace(-4, 4, D)
        stacked = log_likelihood(xbar, p)
        assert isinstance(log_likelihood(xbar[0, 0], p), float)
        assert stacked.shape == (5, 2)
        assert stacked.tolist() == [[log_likelihood(row, p) for row in pair] for pair in xbar]

    def test_rejects_other_norms(self):
        with pytest.raises(ValueError):
            log_likelihood(np.array([1.0]), p=3)


class TestLayerScore:
    def test_p1_is_uniform(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 5, size=(2, 2, 3))
        npt.assert_array_equal(layer_score(t, p=1), np.full((2, 2, 3), 0.25))

    def test_p1_handles_zero_channels(self):
        t = np.zeros((2, 2, 3))
        npt.assert_array_equal(layer_score(t, p=1), np.full((2, 2, 3), 0.25))

    def test_p2_single_position(self):
        t = np.array([3.0, 4.0]).reshape(1, 1, 2)
        npt.assert_array_equal(layer_score(t, p=2).reshape(-1), [6.0, 8.0])

    def test_p2_broadcasts_channel_average(self):
        t = np.array([1.0, 3.0]).reshape(2, 1, 1)  # mean 2, W*H = 2
        npt.assert_array_equal(layer_score(t, p=2).reshape(-1), [2.0, 2.0])

    def test_rejects_other_norms(self):
        with pytest.raises(ValueError):
            layer_score(np.ones((1, 1, 1)), p=0)


class TestBackpropScore:
    def test_empty_chain_returns_layer_score(self, tiny_net, tiny_trace):
        for p in (1, 2):
            got = backprop_score(tiny_net, tiny_trace, T=3, p=p, down_to=3)
            want = layer_score(tiny_trace[3], p)
            npt.assert_array_equal(got, want)

    def test_one_by_one_conv_chain_rule(self):
        # x -> conv(w, b); score at T=1 back to input
        w, x = 3.0, 2.0

        def input_score(b, p):
            spec = NetworkSpec(
                layers=(ConvLayer(kernel=np.full((1, 1, 1, 1), w), bias=np.array([b])),),
                input_shape=(1, 1, 1),
                names=("conv-1",),
            )
            trace = forward(spec, np.full((1, 1, 1), x))
            return backprop_score(spec, trace, T=1, p=p, down_to=0)[0, 0, 0]

        # positive pre-activation
        assert input_score(0.5, 2) == pytest.approx(2.0 * (w * x + 0.5) * w, rel=1e-14)
        # the p = 1 score is 1 at the output; the ReLU passes it only where the
        # conv output is positive, so a pre-activation of exactly 0 (b = -6) is masked
        assert input_score(0.5, 1) == w
        assert input_score(-6.0, 1) == 0.0
        assert input_score(-7.0, 1) == 0.0

    def test_matches_finite_differences(self):
        # >= 100 coordinates across >= 3 seeded nets, both norms, rel err <= 1e-4
        checked = 0
        for arch, seed in (("tiny-2conv", 1), ("tiny-2conv", 2), ("tiny-3conv", 3)):
            spec = generate_model(arch, seed)
            trace = forward(spec, random_input(spec, seed=seed + 50))
            rng = np.random.default_rng(seed + 100)
            L = len(spec.layers)
            for _ in range(40):
                p = int(rng.integers(1, 3))
                ell = int(rng.integers(0, L + 1))
                shape = trace[ell].shape
                coord = tuple(int(rng.integers(s)) for s in shape)
                engine = backprop_score(spec, trace, T=L, p=p, down_to=ell)[coord]
                fd = fd_activation_score(spec, trace, L, p, ell, coord)
                if fd is None:
                    continue
                scale = max(abs(engine), abs(fd))
                if scale > 1e-6:
                    assert abs(engine - fd) / scale <= 1e-4
                checked += 1
        assert checked >= 100

    def test_index_validation(self, tiny_net, tiny_trace):
        with pytest.raises(IndexError):
            backprop_score(tiny_net, tiny_trace, T=2, p=1, down_to=3)
        with pytest.raises(IndexError):
            backprop_score(tiny_net, tiny_trace, T=9, p=1, down_to=0)

    def test_trace_mismatch(self, tiny_net, tiny_trace):
        other = generate_model("tiny-3conv", seed=5)
        with pytest.raises(ShapeError):
            backprop_score(other, tiny_trace, T=1, p=1, down_to=0)


class TestTraceBoundary:
    """Every public function that takes a trace rejects one that does not
    fit the network it is given."""

    CALLS = {
        "neuron_activeness": lambda spec, trace: neuron_activeness(spec, trace, ActivenessRequest(target_layer=0)),
        "backprop_score": lambda spec, trace: backprop_score(spec, trace, T=2, p=2, down_to=0),
        "connection_activeness": lambda spec, trace: connection_activeness(
            spec, trace, ActivenessRequest(target_layer=0), [(0, 0, 0, 0, 0, 0)]
        ),
        "enumerate_gamma": lambda spec, trace: enumerate_gamma(spec, trace, 0, [("last", 2)]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_trace_of_another_network(self, tiny_net, call):
        other = generate_model("tiny-3conv", seed=5)
        with pytest.raises(ShapeError, match="trace activation shapes"):
            self.CALLS[call](other, forward(tiny_net, random_input(tiny_net, seed=1)))

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_trace_with_an_activation_dropped(self, tiny_net, tiny_trace, call):
        dropped = tiny_trace[:1] + tiny_trace[2:]
        with pytest.raises(ShapeError, match="trace activation shapes"):
            self.CALLS[call](tiny_net, dropped)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_trace_at_another_input_size(self, tiny_net, call):
        larger = generate_model("tiny-2conv", seed=7, input_shape=(10, 10, 3))
        with pytest.raises(ShapeError, match="trace activation shapes"):
            self.CALLS[call](tiny_net, forward(larger, random_input(larger, seed=1)))


class TestConnectionActiveness:
    def test_zero_upstream_neuron(self, tiny_net):
        trace = forward(tiny_net, np.zeros(tiny_net.input_shape))
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        conn = receptive_sets(tiny_net, 0)
        wp, hp, dp = 2, 2, 1
        w, h, d = conn.v_set(wp, hp, dp)[0]
        assert connection_activeness(tiny_net, trace, request, [(w, h, d, wp, hp, dp)]) == [0.0]

    def test_clamped_downstream_neuron(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        pre = apply_conv(tiny_net.layers[0], tiny_trace[0])
        wp, hp, dp = map(int, np.unravel_index(pre.argmin(), pre.shape))
        assert pre[wp, hp, dp] < 0
        conn = receptive_sets(tiny_net, 0)
        w, h, d = conn.v_set(wp, hp, dp)[0]
        assert connection_activeness(tiny_net, tiny_trace, request, [(w, h, d, wp, hp, dp)]) == [0.0]

    def test_unconnected_pair_is_zero_not_error(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        # 3x3 pad-1 conv: (0,0) and output (7,7) are far apart
        assert connection_activeness(tiny_net, tiny_trace, request, [(0, 0, 0, 7, 7, 0)]) == [0.0]

    def test_out_of_range_raises(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        with pytest.raises(IndexError):
            connection_activeness(tiny_net, tiny_trace, request, [(0, 0, 0, 8, 0, 0)])


class TestConnectionGroup:
    """``connection_activeness`` takes a list of connections and sweeps once for all of them."""

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return reverse_sweep(*args, **kwargs)

        monkeypatch.setattr("interactive.activeness.reverse_sweep", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_one_sweep_per_call(self, tiny_net, tiny_trace, sweeps, n):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        conn = receptive_sets(tiny_net, 0)
        connections = [(*conn.v_set(wp, 3, 1)[0], wp, 3, 1) for wp in range(8)] * 5
        values = connection_activeness(tiny_net, tiny_trace, request, connections[:n])
        assert len(values) == n and len(sweeps) == 1

    @pytest.mark.parametrize("t, sup", [(0, "last"), (2, "last"), (2, "next")])
    def test_values_in_order(self, tiny_net, tiny_trace, t, sup):
        request = ActivenessRequest(target_layer=t, supervision=sup, p=2)
        score = backprop_score(tiny_net, tiny_trace, validate_request(tiny_net, request), 2, t + 1)
        conn = receptive_sets(tiny_net, t)
        x, active = tiny_trace[t], tiny_trace[t + 1] > 0
        rng = np.random.default_rng(t)
        connections, want = [], []
        while len(connections) < 60:
            wp, hp, dp = (int(rng.integers(n)) for n in conn.out_shape)
            if not active[wp, hp, dp]:
                continue
            sources = conn.v_set(wp, hp, dp)
            w, h, d = sources[int(rng.integers(len(sources)))]
            connections.append((w, h, d, wp, hp, dp))
            want.append(float(x[w, h, d] * score[wp, hp, dp]))
            far = (conn.in_shape[0] - 1 - w, conn.in_shape[1] - 1 - h, d, wp, hp, dp)
            if not conn.connected(*far):
                connections.append(far)
                want.append(0.0)
        assert 0.0 in want and len(set(want)) > 10
        assert connection_activeness(tiny_net, tiny_trace, request, connections) == want

    @pytest.mark.parametrize("bad", [(0, 0, 0, 8, 0, 0), (0, 0, 3, 0, 0, 0), (-1, 0, 0, 0, 0, 0)])
    def test_out_of_range_anywhere_raises_before_the_sweep(self, tiny_net, tiny_trace, sweeps, bad):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        with pytest.raises(IndexError):
            connection_activeness(tiny_net, tiny_trace, request, [(0, 0, 0, 0, 0, 0)] * 5 + [bad])
        assert sweeps == []

    def test_empty_list(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        assert connection_activeness(tiny_net, tiny_trace, request, []) == []


class TestNeuronActiveness:
    def test_zero_input_zeroes_activeness_not_gamma(self, tiny_net):
        trace = forward(tiny_net, np.zeros(tiny_net.input_shape))
        request = ActivenessRequest(target_layer=0, supervision="last", p=1)
        result = neuron_activeness(tiny_net, trace, request)
        npt.assert_array_equal(result.activeness, 0.0)
        npt.assert_array_equal(result.feature, 0.0)
        assert result.gamma.max() > 0  # biases keep downstream neurons active

    def test_next_p1_uniform_hop_value(self):
        # 1x1 spatial, 1x1 conv, all outputs positive: gamma = D_next / (W*H) = dout
        dout = 5
        spec = NetworkSpec(
            layers=(ConvLayer(kernel=np.ones((1, 1, 2, dout)), bias=np.full(dout, 1.0)),),
            input_shape=(1, 1, 2),
            names=("conv-1",),
        )
        trace = forward(spec, np.array([0.5, 0.25]).reshape(1, 1, 2))
        request = ActivenessRequest(target_layer=0, supervision="next", p=1)
        result = neuron_activeness(spec, trace, request)
        npt.assert_allclose(result.gamma, float(dout), atol=1e-12)

    def test_activeness_identity_and_map2d(self, tiny_net, tiny_trace):
        for sup in ("last", "next"):
            for p in (1, 2):
                for t in (0, 2):
                    request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
                    result = neuron_activeness(tiny_net, tiny_trace, request)
                    npt.assert_array_equal(
                        result.activeness,
                        tiny_trace[t] * result.gamma,
                    )
                    npt.assert_allclose(
                        result.map2d, result.gamma.sum(axis=2), atol=0, rtol=0
                    )

    def test_connection_sum_equals_activeness_entry(self, tiny_net, tiny_trace):
        rng = np.random.default_rng(40)
        for t in (0, 2):
            conn = receptive_sets(tiny_net, t)
            request = ActivenessRequest(target_layer=t, supervision="last", p=2)
            result = neuron_activeness(tiny_net, tiny_trace, request)
            for _ in range(10):
                w, h, d = (int(rng.integers(s)) for s in conn.in_shape)
                connections = [(w, h, d, wp, hp, dp) for wp, hp, dp in conn.u_set(w, h, d)]
                total = sum(connection_activeness(tiny_net, tiny_trace, request, connections))
                assert abs(total - result.activeness[w, h, d]) <= 1e-12

    def test_next_gamma_nonnegative(self, tiny_net):
        for seed in range(20):
            trace = forward(tiny_net, random_input(tiny_net, seed=seed))
            for p in (1, 2):
                for t in (0, 2):
                    request = ActivenessRequest(target_layer=t, supervision="next", p=p)
                    result = neuron_activeness(tiny_net, trace, request)
                    assert result.gamma.min() >= 0.0

    def test_summarize_modes(self, tiny_net, tiny_trace):
        req_max = ActivenessRequest(target_layer=2, supervision="last", p=2, summarize="max")
        req_avg = ActivenessRequest(target_layer=2, supervision="last", p=2, summarize="average")
        r_max = neuron_activeness(tiny_net, tiny_trace, req_max)
        r_avg = neuron_activeness(tiny_net, tiny_trace, req_avg)
        x = r_max.activeness
        npt.assert_array_equal(r_max.feature, x.max(axis=(0, 1)))
        npt.assert_array_equal(r_avg.feature, x.mean(axis=(0, 1)))

    def test_result_arrays_are_read_only(self, tiny_net, tiny_trace):
        result = neuron_activeness(tiny_net, tiny_trace, ActivenessRequest(target_layer=2))
        for name in ("gamma", "activeness", "map2d", "feature"):
            arr = getattr(result, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_deterministic_bitwise(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        a = neuron_activeness(tiny_net, tiny_trace, request)
        b = neuron_activeness(tiny_net, tiny_trace, request)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.feature, b.feature)
        assert a.log_likelihood == b.log_likelihood

    def test_input_scaling_keeps_map_argmax_for_bias_free_net(self):
        base = generate_model("tiny-2conv", seed=13)
        layers = tuple(
            ConvLayer(
                kernel=l.kernel, bias=np.zeros_like(l.bias),
                stride=l.stride, padding=l.padding, apply_relu=l.apply_relu,
            )
            if isinstance(l, ConvLayer)
            else l
            for l in base.layers
        )
        spec = NetworkSpec(layers=layers, input_shape=base.input_shape, names=base.names)
        x = random_input(spec, seed=14)
        request = ActivenessRequest(target_layer=0, supervision="next", p=1)
        m1 = neuron_activeness(spec, forward(spec, x), request).map2d
        x3 = 3.0 * x
        m3 = neuron_activeness(spec, forward(spec, x3), request).map2d
        assert np.unravel_index(np.argmax(m1), m1.shape) == np.unravel_index(np.argmax(m3), m3.shape)


def mixed_net(seed=0, relu_last=False):
    """conv -> average pool -> conv (optionally linear): exercises the paths
    that the generated templates do not."""
    rng = np.random.default_rng(seed)
    from interactive import PoolLayer

    k1 = rng.standard_normal((3, 3, 2, 4)) / 3.0
    k2 = rng.standard_normal((2, 2, 4, 5)) / 4.0
    layers = (
        ConvLayer(kernel=k1, bias=np.full(4, 0.1), padding=1),
        PoolLayer(window=2, stride=2, mode="average"),
        ConvLayer(kernel=k2, bias=np.full(5, 0.1), padding=0, apply_relu=relu_last),
    )
    return NetworkSpec(layers=layers, input_shape=(6, 6, 2), names=("conv-1", "pool-1", "conv-2"))


class TestNonTemplatePaths:
    def test_backprop_through_average_pool_matches_fd(self):
        spec = mixed_net(seed=2)
        trace = forward(spec, random_input(spec, seed=3))
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(30):
            p = int(rng.integers(1, 3))
            ell = int(rng.integers(0, 3))
            coord = tuple(int(rng.integers(s)) for s in trace[ell].shape)
            engine = backprop_score(spec, trace, T=3, p=p, down_to=ell)[coord]
            fd = fd_activation_score(spec, trace, 3, p, ell, coord)
            if fd is None:
                continue
            assert abs(engine - fd) <= 1e-4 * max(abs(fd), 1e-6)
            checked += 1
        assert checked >= 25

    def test_relu_free_hop_has_no_indicator(self):
        # conv-2 applies no ReLU: negative downstream responses still carry score
        from interactive.oracle import fd_connection_check

        spec = mixed_net(seed=5, relu_last=False)
        trace = forward(spec, random_input(spec, seed=6))
        post = trace[3]
        assert post.min() < 0  # genuinely linear layer
        request = ActivenessRequest(target_layer=2, supervision="last", p=2)
        conn = receptive_sets(spec, 2)
        wp, hp, dp = map(int, np.unravel_index(post.argmin(), post.shape))
        w, h, d = conn.v_set(wp, hp, dp)[0]
        sample = (w, h, d, wp, hp, dp)
        [engine] = connection_activeness(spec, trace, request, [sample])
        assert engine != 0.0  # an activated-only rule would zero this out
        fd = fd_connection_check(spec, trace, request, [sample])[0]
        assert fd is not None
        assert abs(engine - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_max_pool_tie_routes_to_first_scan_position(self):
        from interactive import PoolLayer

        spec = NetworkSpec(
            layers=(PoolLayer(window=2, stride=2, mode="max"),),
            input_shape=(4, 4, 1),
            names=("pool-1",),
        )
        trace = forward(spec, np.ones((4, 4, 1)))
        grad = backprop_score(spec, trace, T=1, p=1, down_to=0)
        # every 2x2 window ties; the (0, 0) window cell wins, weight 1/(2*2)
        expected = np.zeros((4, 4, 1))
        expected[::2, ::2, 0] = 0.25
        npt.assert_array_equal(grad, expected)


class TestRequestValidation:
    def test_pool_successor_rejected(self, tiny_net):
        with pytest.raises(ShapeError, match="pool"):
            validate_request(tiny_net, ActivenessRequest(target_layer=1, supervision="last", p=1))

    def test_bad_fields_rejected(self, tiny_net):
        with pytest.raises(ValueError):
            validate_request(tiny_net, ActivenessRequest(target_layer=0, supervision="first", p=1))
        with pytest.raises(ValueError):
            validate_request(tiny_net, ActivenessRequest(target_layer=0, p=3))
        with pytest.raises(ValueError):
            validate_request(tiny_net, ActivenessRequest(target_layer=0, summarize="sum"))
        with pytest.raises(IndexError):
            validate_request(tiny_net, ActivenessRequest(target_layer=5))

    def test_supervision_indices(self, tiny_net):
        assert validate_request(tiny_net, ActivenessRequest(target_layer=0, supervision="last")) == 3
        assert validate_request(tiny_net, ActivenessRequest(target_layer=0, supervision="next")) == 1


class TestGammaStacks:
    def test_conv_backward_input_stack_axis_is_bit_identical(self):
        rng = np.random.default_rng(0)
        kernel = rng.standard_normal((3, 3, 5, 7))
        grad = rng.standard_normal((64, 64, 7))
        plain = _conv_backward_input(kernel, 1, 1, grad, (64, 64, 5))
        stacked = _conv_backward_input(kernel, 1, 1, grad[:, :, None], (64, 64, 5))
        assert stacked.shape == (64, 64, 1, 5)
        npt.assert_array_equal(stacked[:, :, 0], plain)

    # Not tiny-fc: its 1x1 output makes a one-config product a single row,
    # which numpy hands to a different BLAS routine than a four-row stack
    # (the two differ in the last place).
    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-3conv"])
    def test_one_config_equals_its_slice_of_four(self, arch):
        spec = generate_model(arch, seed=1)
        acts = forward(spec, random_input(spec, seed=2))
        targets = [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]
        configs = [(sup, p) for sup in ("last", "next") for p in (1, 2)]
        four = gamma_stacks(spec, acts, targets, configs)
        assert list(four) == sorted(targets, reverse=True)
        four_scores = config_scores(spec, acts, targets, configs)
        for k, config in enumerate(configs):
            one_scores = config_scores(spec, acts, targets, [config])
            for t, gamma in gamma_stacks(spec, acts, targets, [config]).items():
                assert one_scores[t].shape[2] == gamma.shape[2] == 1
                npt.assert_array_equal(one_scores[t][:, :, 0], four_scores[t][:, :, k])
                npt.assert_array_equal(gamma[:, :, 0], four[t][:, :, k])

    def test_last_score_matches_backprop_score(self, tiny_net, tiny_trace):
        score = config_scores(tiny_net, tiny_trace, [0], [("last", 2)])[0]
        npt.assert_array_equal(score[:, :, 0], backprop_score(tiny_net, tiny_trace, 3, 2, 1))

    @pytest.mark.parametrize("arch, batch", [
        ("toy-cnn", ()), ("tiny-2conv", ()), ("tiny-3conv", ()), ("tiny-fc", ()), ("toy-cnn", (3,)),
    ], ids=["toy-cnn", "tiny-2conv", "tiny-3conv", "tiny-fc", "toy-cnn-batch"])
    def test_gamma_field_matches_ones_kernel_reference(self, arch, batch):
        # the D-channel formulation the field replaces: the masked score
        # through an all-ones (kw, kh, d_in, d_out) kernel
        spec = generate_model(arch, seed=1)
        w, h, d = spec.input_shape
        x = np.random.default_rng(2).standard_normal((w, h, *batch, d))
        acts = forward(spec, x)
        targets = [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]
        configs = [(sup, p) for sup in ("last", "next") for p in (1, 2)]
        scores = config_scores(spec, acts, targets, configs)
        for t, gamma in gamma_stacks(spec, acts, targets, configs).items():
            hop, score = spec.layers[t], scores[t]
            masked = score * _lift(acts[t + 1] > 0, score) if hop.apply_relu else score
            reference = _conv_backward_input(np.ones_like(hop.kernel), hop.stride, hop.padding, masked, acts[t].shape)
            assert gamma.shape == (*acts[t].shape[:2], len(configs), *batch, 1)
            npt.assert_allclose(np.broadcast_to(gamma, reference.shape), reference, rtol=1e-12, atol=0)

    def test_result_gamma_is_a_read_only_broadcast_field(self, tiny_net, tiny_trace):
        for t in (0, 2):
            result = neuron_activeness(tiny_net, tiny_trace, ActivenessRequest(target_layer=t))
            gamma = result.gamma
            assert gamma.shape == tiny_trace[t].shape
            assert not gamma.flags.writeable
            with pytest.raises(ValueError):
                gamma[0, 0, 0] = 1.0
            assert np.ptp(gamma, axis=2).max() == 0.0
            npt.assert_array_equal(result.map2d, gamma.shape[2] * gamma[:, :, 0])

    def test_hops_run_inside_the_call(self, tiny_net, tiny_trace, monkeypatch):
        # the result is complete when the call returns; nothing is left to iterate
        hops = []

        def counted(hop, *args):
            hops.append(hop)
            return _gamma_hop(hop, *args)

        monkeypatch.setattr("interactive.activeness._gamma_hop", counted)
        stacks = gamma_stacks(tiny_net, tiny_trace, [0, 2], [("last", 2), ("next", 1)])
        assert hops == [tiny_net.layers[2], tiny_net.layers[0]]
        assert list(stacks) == [2, 0]

    @pytest.mark.parametrize("configs", [[("last", 2)], [("next", 1)]])
    def test_no_target_gives_an_empty_dict(self, tiny_net, tiny_trace, configs):
        assert gamma_stacks(tiny_net, tiny_trace, [], configs) == {}


# Most bytes, by tracemalloc, that ``weighted_features`` allocated above what it
# was handed, on one toybench group (toy-cnn seed 0, the first 8 images of toy
# dataset 0), measured as the test below measures it (Python 3.11, numpy 2.4)
# when each hop read a concatenated copy of its configs' scores.
WEIGHTED_FEATURES_PEAK = 1_367_814


def test_weighted_features_peak_no_higher_than_with_stacked_score_copies():
    spec = generate_model("toy-cnn", seed=0)
    images = toy_samples(0, spec.input_shape)[0][:8]
    trace = forward(spec, np.stack([to_input_tensor(img, [INPUT_MEAN] * 3).array for img in images], axis=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weighted_features(spec, trace, valid_targets(spec))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= WEIGHTED_FEATURES_PEAK


# The same measure, on one toybench group of 16 images (the first 16 of toy
# dataset 0), when the hop wrote all its configs' masked scores into one
# (W', H', K, *batch, D') buffer.
WEIGHTED_FEATURES_PEAK_16 = 1_708_000


def test_weighted_features_peak_on_a_group_of_16_no_higher_than_with_one_masked_buffer():
    spec = generate_model("toy-cnn", seed=0)
    images = toy_samples(0, spec.input_shape)[0][:16]
    trace = forward(spec, np.stack([to_input_tensor(img, [INPUT_MEAN] * 3).array for img in images], axis=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weighted_features(spec, trace, valid_targets(spec))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= WEIGHTED_FEATURES_PEAK_16


# The same measure, on the one toybench group of all 48 images of toy dataset 0,
# when every hop masked each config's score into one full (W', H', *batch, D')
# scratch array before summing it over the channels: the highest of eleven runs
# (2,952,080 to 2,952,877 B).
WEIGHTED_FEATURES_PEAK_48 = 2_952_877


def test_weighted_features_peak_on_the_group_of_48_no_higher_than_with_a_full_masked_array():
    spec = generate_model("toy-cnn", seed=0)
    images = toy_samples(0, spec.input_shape)[0]
    assert len(images) == 48
    trace = forward(spec, np.stack([to_input_tensor(img, [INPUT_MEAN] * 3).array for img in images], axis=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weighted_features(spec, trace, valid_targets(spec))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= WEIGHTED_FEATURES_PEAK_48


def config_scores(spec, acts, targets, configs):
    """The (supervision, p) scores at X(t+1) that ``gamma_stacks`` hops from,
    ``{t: (W', H', K, *batch, D')}``, configs in order on axis 2: a "last"
    config's slot of one stacked ``reverse_sweep`` of the final layer scores,
    a "next" config's ``layer_score`` of X(t+1)."""
    last_ps = [p for sup, p in configs if sup == "last"]
    swept = {}
    if last_ps:
        seed = np.stack([layer_score(acts[-1], p) for p in last_ps], axis=2)
        swept = reverse_sweep(spec, acts, seed, len(spec.layers), {t + 1 for t in targets})
    scores = {}
    for t in targets:
        lasts = iter(np.moveaxis(swept[t + 1], 2, 0) if last_ps else ())
        parts = [next(lasts) if sup == "last" else layer_score(acts[t + 1], p) for sup, p in configs]
        scores[t] = np.stack(parts, axis=2)
    return scores


class TestReverseSweep:
    # toy-cnn: conv-1, pool-1, conv-2, pool-2, conv-3 consume X(0)..X(4)
    @pytest.mark.parametrize("keep, convs, pools", [
        ({5}, 0, 0), ({4, 5}, 1, 0), ({3}, 1, 1), ({1, 3, 5}, 2, 2), ({0, 2}, 3, 2),
    ])
    def test_returns_the_kept_scores_and_stops_at_the_lowest(self, keep, convs, pools, monkeypatch):
        spec = generate_model("toy-cnn", seed=0)
        acts = forward(spec, random_input(spec, seed=1))
        calls = []
        for name, run in (("_conv_backward_input", _conv_backward_input), ("_pool_backward", _pool_backward)):
            def counted(*args, _name=name, _run=run):
                calls.append(_name)
                return _run(*args)
            monkeypatch.setattr(f"interactive.activeness.{name}", counted)
        scores = reverse_sweep(spec, acts, layer_score(acts[5], 2), 5, keep)
        assert set(scores) == keep
        assert (calls.count("_conv_backward_input"), calls.count("_pool_backward")) == (convs, pools)
        monkeypatch.undo()
        for j in keep:
            npt.assert_array_equal(scores[j], backprop_score(spec, acts, 5, 2, j))


# Flat-region inputs tie many max-pool windows at a positive maximum, so
# any change to which tied tap takes the score moves these outputs.  The
# record was taken once, at exact float64 values; the large arrays are kept
# as SHA-256 digests of their little-endian float64 bytes.
TIE_MODELS = (("toy-cnn", 0), ("toy-cnn", 3), ("tiny-3conv", 0))
TIE_CONFIGS = [("last", 1), ("last", 2), ("next", 1), ("next", 2)]
TIE_RECORD = json.loads((Path(__file__).parent / "data" / "activeness_ties.json").read_text())


def flat_regions(shape):
    """A 200 | 40 split down the middle with a 255 square, minus 128."""
    w, h, d = shape
    x = np.full((w, h, d), 40.0)
    x[: w // 2] = 200.0
    x[w // 4 : w // 4 + w // 3, h // 4 : h // 4 + h // 3] = 255.0
    return x - 128.0


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def tie_record(arch, seed):
    """Every target's ``neuron_activeness`` feature and map2d under the four
    configs, and on a two-image stack the four configs' scores at X(t+1)
    (``config_scores``) and ``gamma_stacks``' gamma, on flat regions."""
    spec = generate_model(arch, seed)
    x = flat_regions(spec.input_shape)
    trace = forward(spec, x)
    targets = [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]
    record = {}
    for t in targets:
        for sup, p in TIE_CONFIGS:
            result = neuron_activeness(spec, trace, ActivenessRequest(target_layer=t, supervision=sup, p=p))
            record[f"{t}/{sup}/p{p}"] = {"feature": result.feature.tolist(), "map2d": _digest(result.map2d)}
    acts = forward(spec, np.stack([x, x[::-1]], axis=2))
    scores = config_scores(spec, acts, targets, TIE_CONFIGS)
    for t, gamma in gamma_stacks(spec, acts, targets, TIE_CONFIGS).items():
        record[f"{t}/stack"] = {"score": _digest(scores[t]), "gamma": _digest(gamma)}
    return record


@pytest.mark.parametrize("arch, seed", TIE_MODELS, ids=[f"{a}-{s}" for a, s in TIE_MODELS])
def test_tie_heavy_outputs_match_record_exactly(arch, seed):
    # JSON floats round-trip exactly, so == on the feature lists is exact equality
    assert tie_record(arch, seed) == TIE_RECORD[f"{arch}-{seed}"]


def test_tie_record_input_ties_max_pool_windows():
    spec = generate_model("toy-cnn", 0)
    x1 = forward(spec, flat_regions(spec.input_shape))[1]
    windows = [x1[a::2, b::2][:8, :8] for a in range(2) for b in range(2)]
    top = np.max(windows, axis=0)
    ties = (sum(v == top for v in windows) > 1) & (top > 0)
    assert ties.sum() >= 100
