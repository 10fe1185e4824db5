import numpy as np
import numpy.testing as npt
import pytest

from interactive import (
    ActivenessRequest,
    ConvLayer,
    ForwardTrace,
    NetworkSpec,
    ShapeError,
    Tensor3,
    backprop_score,
    connection_activeness,
    forward,
    generate_model,
    layer_score,
    log_likelihood,
    neuron_activeness,
    receptive_sets,
)
from interactive.activeness import _conv_backward_input, _lift, gamma_stacks, trace_arrays, validate_request
from interactive.net import apply_conv, forward_arrays
from interactive.oracle import FDSettings, fd_activation_score

from conftest import random_input


class TestLogLikelihood:
    def test_values(self):
        assert log_likelihood(np.array([3.0, 4.0]), p=2) == -25.0
        assert log_likelihood(np.array([3.0, 4.0]), p=1) == -7.0
        assert log_likelihood(np.array([0.0, 0.0, 0.0]), p=2) == 0.0

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
            want = layer_score(tiny_trace.acts[3], p)
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
            trace = forward(spec, Tensor3(1, 1, 1, [x]))
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
        settings = FDSettings()
        checked = 0
        for arch, seed in (("tiny-2conv", 1), ("tiny-2conv", 2), ("tiny-3conv", 3)):
            spec = generate_model(arch, seed)
            trace = forward(spec, random_input(spec, seed=seed + 50))
            rng = np.random.default_rng(seed + 100)
            L = len(spec.layers)
            for _ in range(40):
                p = int(rng.integers(1, 3))
                ell = int(rng.integers(0, L + 1))
                shape = trace.acts[ell].shape
                coord = tuple(int(rng.integers(s)) for s in shape)
                engine = backprop_score(spec, trace, T=L, p=p, down_to=ell)[coord]
                fd = fd_activation_score(spec, trace, L, p, ell, coord, settings)
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
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_trace_of_another_network(self, tiny_net, call):
        other = generate_model("tiny-3conv", seed=5)
        with pytest.raises(ShapeError, match="trace activation shapes"):
            self.CALLS[call](other, forward(tiny_net, random_input(tiny_net, seed=1)))

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_trace_with_an_activation_dropped(self, tiny_net, tiny_trace, call):
        dropped = ForwardTrace(acts=tiny_trace.acts[:1] + tiny_trace.acts[2:])
        with pytest.raises(ShapeError, match="trace activation shapes"):
            self.CALLS[call](tiny_net, dropped)


class TestConnectionActiveness:
    def test_zero_upstream_neuron(self, tiny_net):
        x0 = Tensor3.from_array(np.zeros(tiny_net.input_shape))
        trace = forward(tiny_net, x0)
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        conn = receptive_sets(tiny_net, 0)
        wp, hp, dp = 2, 2, 1
        w, h, d = conn.v_set(wp, hp, dp)[0]
        assert connection_activeness(tiny_net, trace, request, (w, h, d, wp, hp, dp)) == 0.0

    def test_clamped_downstream_neuron(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        pre = apply_conv(tiny_net.layers[0], tiny_trace.acts[0])
        wp, hp, dp = map(int, np.unravel_index(pre.argmin(), pre.shape))
        assert pre[wp, hp, dp] < 0
        conn = receptive_sets(tiny_net, 0)
        w, h, d = conn.v_set(wp, hp, dp)[0]
        assert connection_activeness(tiny_net, tiny_trace, request, (w, h, d, wp, hp, dp)) == 0.0

    def test_unconnected_pair_is_zero_not_error(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        # 3x3 pad-1 conv: (0,0) and output (7,7) are far apart
        assert connection_activeness(tiny_net, tiny_trace, request, (0, 0, 0, 7, 7, 0)) == 0.0

    def test_out_of_range_raises(self, tiny_net, tiny_trace):
        request = ActivenessRequest(target_layer=0, supervision="last", p=2)
        with pytest.raises(IndexError):
            connection_activeness(tiny_net, tiny_trace, request, (0, 0, 0, 8, 0, 0))


class TestNeuronActiveness:
    def test_zero_input_zeroes_activeness_not_gamma(self, tiny_net):
        trace = forward(tiny_net, Tensor3.from_array(np.zeros(tiny_net.input_shape)))
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
        trace = forward(spec, Tensor3(1, 1, 2, [0.5, 0.25]))
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
                        tiny_trace.acts[t] * result.gamma,
                    )
                    npt.assert_allclose(
                        result.map2d, result.gamma.sum(axis=2), atol=0, rtol=0
                    )

    def test_connection_sum_equals_activeness_entry(self, tiny_net, tiny_trace):
        rng = np.random.default_rng(40)
        for t in (0, 2):
            conn = receptive_sets(tiny_net, t)
            request = ActivenessRequest(target_layer=t, supervision="last", p=2)
            T = validate_request(tiny_net, request)
            hop_score = backprop_score(tiny_net, tiny_trace, T, request.p, t + 1)
            result = neuron_activeness(tiny_net, tiny_trace, request)
            for _ in range(10):
                w, h, d = (int(rng.integers(s)) for s in conn.in_shape)
                total = sum(
                    connection_activeness(
                        tiny_net, tiny_trace, request, (w, h, d, wp, hp, dp), hop_score=hop_score
                    )
                    for wp, hp, dp in conn.u_set(w, h, d)
                )
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
        x3 = Tensor3.from_array(3.0 * x.array)
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
            coord = tuple(int(rng.integers(s)) for s in trace.acts[ell].shape)
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
        post = trace.acts[3]
        assert post.min() < 0  # genuinely linear layer
        request = ActivenessRequest(target_layer=2, supervision="last", p=2)
        conn = receptive_sets(spec, 2)
        wp, hp, dp = map(int, np.unravel_index(post.argmin(), post.shape))
        w, h, d = conn.v_set(wp, hp, dp)[0]
        sample = (w, h, d, wp, hp, dp)
        engine = connection_activeness(spec, trace, request, sample)
        assert engine != 0.0  # an activated-only rule would zero this out
        fd = fd_connection_check(spec, trace, request, sample)
        assert fd is not None
        assert abs(engine - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_max_pool_tie_routes_to_first_scan_position(self):
        from interactive import PoolLayer

        spec = NetworkSpec(
            layers=(PoolLayer(window=2, stride=2, mode="max"),),
            input_shape=(4, 4, 1),
            names=("pool-1",),
        )
        trace = forward(spec, Tensor3.from_array(np.ones((4, 4, 1))))
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
        acts = trace_arrays(spec, forward(spec, random_input(spec, seed=2)))
        targets = [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]
        configs = [(sup, p) for sup in ("last", "next") for p in (1, 2)]
        four = {t: (score, gamma) for t, score, gamma in gamma_stacks(spec, acts, targets, configs)}
        assert list(four) == sorted(targets, reverse=True)
        for k, config in enumerate(configs):
            for t, score, gamma in gamma_stacks(spec, acts, targets, [config]):
                assert score.shape[2] == gamma.shape[2] == 1
                npt.assert_array_equal(score[:, :, 0], four[t][0][:, :, k])
                npt.assert_array_equal(gamma[:, :, 0], four[t][1][:, :, k])

    def test_last_score_matches_backprop_score(self, tiny_net, tiny_trace):
        acts = trace_arrays(tiny_net, tiny_trace)
        [(_, score, _)] = gamma_stacks(tiny_net, acts, [0], [("last", 2)])
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
        acts = forward_arrays(spec, x)
        targets = [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]
        configs = [(sup, p) for sup in ("last", "next") for p in (1, 2)]
        for t, score, gamma in gamma_stacks(spec, acts, targets, configs):
            hop = spec.layers[t]
            masked = score * _lift(acts[t + 1] > 0, score) if hop.apply_relu else score
            reference = _conv_backward_input(np.ones_like(hop.kernel), hop.stride, hop.padding, masked, acts[t].shape)
            assert gamma.shape == (*acts[t].shape[:2], len(configs), *batch, 1)
            npt.assert_allclose(np.broadcast_to(gamma, reference.shape), reference, rtol=1e-12, atol=0)

    def test_result_gamma_is_a_read_only_broadcast_field(self, tiny_net, tiny_trace):
        for t in (0, 2):
            result = neuron_activeness(tiny_net, tiny_trace, ActivenessRequest(target_layer=t))
            gamma = result.gamma
            assert gamma.shape == tiny_trace.acts[t].shape
            assert not gamma.flags.writeable
            with pytest.raises(ValueError):
                gamma[0, 0, 0] = 1.0
            assert np.ptp(gamma, axis=2).max() == 0.0
            npt.assert_array_equal(result.map2d, gamma.shape[2] * gamma[:, :, 0])
