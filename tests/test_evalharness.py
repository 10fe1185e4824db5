import hashlib
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import interactive.evalharness as evalharness
from interactive import (
    ActivenessRequest,
    ShapeError,
    forward,
    generate_model,
    neuron_activeness,
)
from interactive.activeness import valid_targets
from interactive.evalharness import (
    INPUT_MEAN,
    PIPELINE_CONFIGS,
    SLACK_C,
    accuracy,
    compare_pipelines,
    toy_image,
    toy_samples,
    train_linear,
)
from interactive.image import to_input_tensor

# SHA-256 of the stacked uint8 pixels of ``toy_samples(seed, shape)``, recorded
# from the one-image-at-a-time painter; the labels, train and test arrays as
# little-endian int64, one after the other, share one digest for every seed and shape
DATASET_PIXELS = {
    (0, (16, 16, 3)): "aad320425c53662313f4284f67a0c3148492ea7b828796ffdea07a9532dd99ba",
    (0, (16, 16, 1)): "f9513733df69683cfa8fc3a5f5b00c5df897d3d9ff5815360a0458945b1b1d9d",
    (0, (12, 20, 3)): "297af848d8c1d7e3673dffd43e1f69337efe6193c6925ea14cb8a6853693b114",
    (3, (16, 16, 3)): "9351b1888a392d26b926e257c1befdde132832c2e1f06b314170a98e21575789",
    (3, (16, 16, 1)): "28a6b354c6f5b7afa281619a26001bc9147d91e892b4ebded509ff7be276b94b",
    (3, (12, 20, 3)): "b61c6ff2d45aacae0aca2dd4f3b40ce7cb4029e3027d8718ba4109e71c73f9a7",
}
DATASET_SPLIT = "48056819b13857ef8094c1eea959edd5dd8832f031e19e25a6f78e5c8b2a0bf4"

# frozen on the first verified run: tiny-2conv(seed 3) features on the
# seed-3 toy dataset, 24 test samples, accuracies as 24ths
SEED3_SNAPSHOT = [
    ("input", "orig-avg", 11), ("input", "orig-max", 13), ("input", "next-p1", 10),
    ("input", "next-p2", 10), ("input", "last-p1", 11), ("input", "last-p2", 10),
    ("pool-1", "orig-avg", 13), ("pool-1", "orig-max", 18), ("pool-1", "next-p1", 12),
    ("pool-1", "next-p2", 11), ("pool-1", "last-p1", 12), ("pool-1", "last-p2", 11),
]


def two_blob_set(n_per_class=20, separation=4.0, seed=0, shuffle_labels=False):
    """(X_train, y_train, X_test, y_test), the rows as (1, N, 2) stacks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, 2)) + [separation, 0.0]
    b = rng.standard_normal((n_per_class, 2)) - [separation, 0.0]
    feats = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    if shuffle_labels:
        labels = rng.permutation(labels)
    idx = rng.permutation(2 * n_per_class)
    train, test = idx[: n_per_class], idx[n_per_class :]
    return feats[None, train], labels[train], feats[None, test], labels[test]


def regularized_loss(W, X, y):
    """The objective ``train_linear`` descends, per stacked set: mean binary
    cross-entropy over the one-vs-rest outputs plus reg * ||W||^2, the
    intercept column unregularized."""
    n = X.shape[1]
    Xb = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    Y = (y[:, None] == np.arange(W.shape[1])[None, :]).astype(np.float64)
    S = evalharness._sigmoid(Xb @ np.swapaxes(W, -1, -2))
    eps = 1e-12
    bce = -(Y * np.log(S + eps) + (1 - Y) * np.log(1 - S + eps)).sum(axis=-1).mean(axis=-1)
    return bce + (W[..., :-1] ** 2).sum(axis=(-2, -1)) / (SLACK_C * n)


class TestTrainLinear:
    def test_separable_classes_reach_full_accuracy(self):
        X, y, X_test, y_test = two_blob_set()
        w = train_linear(X, y)
        assert accuracy(w, X_test, y_test).tolist() == [1.0]

    def test_shuffled_labels_sit_at_chance(self):
        accs = []
        for seed in range(5):
            X, y, X_test, y_test = two_blob_set(seed=seed, shuffle_labels=True)
            w = train_linear(X, y)
            accs.append(accuracy(w, X_test, y_test)[0])
        assert 0.4 <= float(np.mean(accs)) <= 0.6

    def test_identical_rows_stay_at_chance(self):
        feats = np.ones((1, 30, 4))
        labels = np.array([0, 1, 2] * 10)
        w = train_linear(feats[:, :15], labels[:15])
        assert accuracy(w, feats[:, 15:], labels[15:])[0] == pytest.approx(1.0 / 3.0)

    def test_loss_monotone_nonincreasing(self, monkeypatch):
        # the weights after 0, 10, ..., 150 steps: the objective never rises
        X, y, _, _ = two_blob_set(separation=1.0, seed=3)
        losses = []
        for epochs in range(0, 151, 10):
            monkeypatch.setattr(evalharness, "EPOCHS", epochs)
            losses.append(regularized_loss(train_linear(X, y), X, y)[0])
        assert np.all(np.diff(losses) <= 1e-12)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((1, 3, 2))
        with pytest.raises(ValueError, match="two classes"):
            train_linear(X, np.zeros(3, dtype=int))

    def test_deterministic(self):
        X, y, _, _ = two_blob_set(seed=5)
        w1 = train_linear(X, y)
        w2 = train_linear(X, y)
        assert np.array_equal(w1, w2)

    def test_stacked_fit_equals_separate_fits(self):
        sets = [two_blob_set(separation=s, seed=7) for s in (0.5, 1.0, 3.0)]
        X = np.concatenate([X for X, _, _, _ in sets])
        X_test = np.concatenate([X_test for _, _, X_test, _ in sets])
        _, y, _, y_test = sets[0]
        weights = train_linear(X, y)
        assert weights.shape == (3, 2, 3)
        accs = accuracy(weights, X_test, y_test)
        for c, (X_c, y_c, X_test_c, y_test_c) in enumerate(sets):
            alone = train_linear(X_c, y_c)
            assert alone.shape == (1, 2, 3)
            npt.assert_allclose(weights[c], alone[0], rtol=0, atol=1e-12)
            assert accs[c] == accuracy(weights[c : c + 1], X_test_c, y_test_c)[0]


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    def masked_sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2]
    grid = np.concatenate([edges, np.linspace(-40, 40, 801), 30 * rng.standard_normal(600)])
    for z in (grid, grid.reshape(3, -1, 3)):
        got, want = evalharness._sigmoid(z), masked_sigmoid(z)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the fit's call: in place, on reused scratch buffers that hold an earlier call's values
        buf, e, pos = z.copy(), np.full(z.shape, np.nan), np.ones(z.shape, dtype=bool)
        evalharness._sigmoid(-z, None, e, pos)
        assert evalharness._sigmoid(buf, buf, e, pos) is buf
        assert np.array_equal(buf.view(np.int64), want.view(np.int64))


def sigmoid_before(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def train_linear_before(X, y):
    """``train_linear`` as it was before it ran in buffers: a new array per step,
    the decay as 2 * reg * (W * mask).  Also returns the largest |z| it saw."""
    k = int(y.max()) + 1
    c, n, d = X.shape
    reg = 1.0 / (SLACK_C * n)
    Xb = np.concatenate([X, np.ones((c, n, 1))], axis=2)
    Y = (y[:, None] == np.arange(k)[None, :]).astype(np.float64)
    W = np.zeros((c, k, d + 1))
    mask = np.ones((1, 1, d + 1))
    mask[..., -1] = 0.0
    z_max = 0.0
    for _ in range(evalharness.EPOCHS):
        z = Xb @ W.transpose(0, 2, 1)
        z_max = max(z_max, float(np.abs(z).max()))
        S = sigmoid_before(z)
        grad = (S - Y).transpose(0, 2, 1) @ Xb / n + 2.0 * reg * (W * mask)
        W = W - evalharness.LEARNING_RATE * grad
    return W, z_max


def test_an_epoch_of_the_fit_allocates_no_array(monkeypatch):
    # the tracemalloc peak of a 300-epoch fit is that of a fit with no epoch, up to
    # a few small objects: each array of an epoch here holds 5 KB or more
    X = np.random.default_rng(0).standard_normal((18, 24, 12))
    y = np.arange(24) % 3
    train_linear(X, y)  # numpy's first-call caches
    peaks = []
    for epochs in (0, 300):
        monkeypatch.setattr(evalharness, "EPOCHS", epochs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_linear(X, y)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 8.0, 30.0])
def test_buffered_fit_is_bit_identical_to_the_allocating_loop(scale, seed):
    # random (C, N, D) stacks whose trailing columns are zero, as the padded fit's are
    rng = np.random.default_rng(seed)
    c, n, d = rng.integers(1, 7), rng.integers(4, 25), rng.integers(1, 9)
    X = scale * rng.standard_normal((c, n, d))
    X[..., rng.integers(1, d + 1) :] = 0.0
    y = rng.permutation(np.arange(n) % rng.integers(2, 5))
    want, z_max = train_linear_before(X, y)
    got = train_linear(X, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if scale == 30.0:  # past 745, exp(-|z|) underflows to 0
        assert z_max > 800.0


class TestToyDataset:
    def test_deterministic_given_seed(self):
        a = toy_image(9, (16, 16, 3), label=1, sample=2)
        b = toy_image(9, (16, 16, 3), label=1, sample=2)
        assert np.array_equal(a.pixels, b.pixels)
        c = toy_image(10, (16, 16, 3), label=1, sample=2)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_samples_shape_and_split(self, monkeypatch):
        monkeypatch.setattr(evalharness, "SAMPLES_PER_CLASS", 6)
        images, labels, train_idx, test_idx = toy_samples(0, (8, 8, 3))
        assert len(images) == 18 and labels.shape == (18,)
        assert len(train_idx) == 9 and len(test_idx) == 9
        assert set(train_idx) | set(test_idx) == set(range(18))
        assert all(img.shape == (8, 8, 3) for img in images)
        # stratified: every class appears in both splits
        assert set(labels[list(train_idx)]) == set(labels[list(test_idx)]) == {0, 1, 2}

    @pytest.mark.parametrize("seed, shape", list(DATASET_PIXELS))
    def test_pixels_labels_and_split_match_the_record(self, seed, shape):
        # accuracies cannot see a pixel that moved by one level; the digests do
        pixels, labels, train_idx, test_idx = toy_samples(seed, shape)
        assert pixels.dtype == np.uint8 and pixels.shape == (48, shape[1], shape[0], shape[2])
        assert hashlib.sha256(pixels.tobytes()).hexdigest() == DATASET_PIXELS[seed, shape]
        split = b"".join(np.asarray(a, dtype="<i8").tobytes() for a in (labels, train_idx, test_idx))
        assert hashlib.sha256(split).hexdigest() == DATASET_SPLIT
        assert all(a.dtype == np.int64 for a in (labels, train_idx, test_idx))

    @pytest.mark.parametrize("seed, shape", [(0, (16, 16, 3)), (3, (12, 20, 3)), (5, (7, 4, 1))])
    def test_toy_image_equals_its_slot_in_toy_samples(self, seed, shape):
        images, labels, _, _ = toy_samples(seed, shape)
        for idx, (img, label) in enumerate(zip(images, labels)):
            sample = idx % evalharness.SAMPLES_PER_CLASS
            assert np.array_equal(toy_image(seed, shape, int(label), sample).pixels, img)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^toy dataset paints 1 or 3 channels; network input is 8x8x2$"):
            toy_samples(0, (8, 8, 2))

    def test_negative_seed_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            toy_image(-1, (8, 8, 3), 0, 0)


def batched_and_per_image_features(spec, dataset_seed, monkeypatch):
    """Per (target, image): the six feature rows ``compare_pipelines`` built in its
    image groups, and the same rows from one forward pass and one
    ``neuron_activeness`` call per weighted config on that image alone."""
    seen = []
    normalize = evalharness.l2_normalize_rows
    monkeypatch.setattr(evalharness, "l2_normalize_rows", lambda m: seen.append(m) or normalize(m))
    compare_pipelines(dataset_seed, spec)
    targets = valid_targets(spec)
    assert len(seen) == len(targets)
    images = toy_samples(dataset_seed, spec.input_shape)[0]
    for t, batched in zip(targets, seen):
        assert batched.shape == (len(PIPELINE_CONFIGS), len(images), spec.layers[t].kernel.shape[2])
        for n, img in enumerate(images):
            trace = forward(spec, to_input_tensor(img, [INPUT_MEAN] * spec.input_shape[2]).array)
            expected = [trace[t].mean(axis=(0, 1)), trace[t].max(axis=(0, 1))]
            for sup in ("next", "last"):
                for p in (1, 2):
                    request = ActivenessRequest(target_layer=t, supervision=sup, p=p, summarize="max")
                    expected.append(neuron_activeness(spec, trace, request).feature)
            yield batched[:, n], np.stack(expected)


@pytest.fixture(scope="module")
def seed3_report():
    return compare_pipelines(3, generate_model("tiny-2conv", seed=3))


class TestComparePipelines:
    def test_six_rows_per_layer(self, seed3_report):
        layers = {row[0] for row in seed3_report.rows}
        assert layers == {"input", "pool-1"}
        for layer in layers:
            configs = [row[1] for row in seed3_report.rows if row[0] == layer]
            assert configs == list(PIPELINE_CONFIGS)

    def test_snapshot_accuracies(self, seed3_report):
        got = [(name, config, round(acc * 24)) for name, config, _, acc in seed3_report.rows]
        assert got == SEED3_SNAPSHOT

    def test_report_is_pure_function_of_inputs(self, seed3_report):
        again = compare_pipelines(3, generate_model("tiny-2conv", seed=3))
        assert again.to_text() == seed3_report.to_text()
        assert json.dumps(again.to_json_dict()) == json.dumps(seed3_report.to_json_dict())

    def test_rejects_bad_targets_before_any_forward_pass(self, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)  # conv-1, pool-1, conv-2
        monkeypatch.setattr(evalharness, "forward", lambda *args: pytest.fail("forward pass ran"))
        with pytest.raises(ShapeError, match="followed by pooling layer 'pool-1'"):
            compare_pipelines(3, spec, targets=[0, 1])
        with pytest.raises(ShapeError, match="final layer"):
            compare_pipelines(3, spec, targets=[3])
        with pytest.raises(ValueError, match=r"repeated target layers in \['input', 'pool-1', 'input'\]"):
            compare_pipelines(3, spec, targets=[0, 2, 0])

    def test_group_size_does_not_change_report(self, seed3_report, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 1)  # a group per image
        assert compare_pipelines(3, spec).to_text() == seed3_report.to_text()

    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-fc"])
    def test_batched_features_equal_per_image_features(self, arch, monkeypatch):
        spec = generate_model(arch, seed=1)
        w, h, d = spec.input_shape
        monkeypatch.setattr(evalharness, "SAMPLES_PER_CLASS", 5)
        # groups of 4 for 15 images: the last group is short
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 4 * w * h * d + 1)
        for batched, expected in batched_and_per_image_features(spec, 2, monkeypatch):
            if arch == "tiny-fc":
                # tiny-fc's 1x1 fc output takes numpy's vector-matrix product for one
                # image and a matrix product for a stack, so its last bit may differ
                # (1.8e-12 absolute on entries near 7.5e3 was seen)
                npt.assert_allclose(batched, expected, rtol=1e-12, atol=1e-12)
            else:
                assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("group", [None, 8], ids=["default-group", "groups-of-8"])
    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-2conv", "tiny-3conv"])
    def test_batched_features_are_bit_identical_to_per_image_features(self, arch, group, monkeypatch):
        # the whole 48-image dataset, at the group size toybench runs and at groups of 8
        spec = generate_model(arch, seed=0)
        if group is not None:
            monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", group * math.prod(spec.input_shape))
        for batched, expected in batched_and_per_image_features(spec, 0, monkeypatch):
            assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("dataset_seed", [0, 1])
    @pytest.mark.parametrize("model_seed", [0, 3])
    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-fc", "tiny-2conv", "tiny-3conv"])
    def test_one_padded_fit_equals_separate_fits(self, arch, model_seed, dataset_seed, monkeypatch):
        # every target's slice of the one zero-padded fit is, bit for bit, the fit
        # of its own unpadded rows, and each padded weight column stays 0.0
        spec = generate_model(arch, seed=model_seed)
        feats, fits, tested = [], [], []
        normalize = evalharness.l2_normalize_rows
        monkeypatch.setattr(evalharness, "l2_normalize_rows", lambda m: feats.append(normalize(m)) or feats[-1])
        monkeypatch.setattr(evalharness, "train_linear", lambda X, y: fits.append(train_linear(X, y)) or fits[-1])
        monkeypatch.setattr(evalharness, "accuracy", lambda w, X, y: tested.append((w, X)) or accuracy(w, X, y))
        report = compare_pipelines(dataset_seed, spec)

        _, labels, train, test = toy_samples(dataset_seed, spec.input_shape)
        targets, n = valid_targets(spec), len(PIPELINE_CONFIGS)
        [fused] = fits
        assert fused.shape[0] == n * len(targets) and len(feats) == len(tested) == len(targets)
        for i, (f, (w, X_test)) in enumerate(zip(feats, tested)):
            d = f.shape[2]
            alone = train_linear(f[:, train], labels[train])
            block = fused[i * n : (i + 1) * n]
            assert np.array_equal(block[..., :d], alone[..., :d]) and np.array_equal(block[..., -1], alone[..., -1])
            assert np.all(block[..., d:-1] == 0.0)
            assert np.array_equal(w, alone) and np.array_equal(X_test, f[:, test])
            assert [row[2] for row in report.rows[i * n : (i + 1) * n]] == [d] * n

    @pytest.mark.parametrize("targets", [[0], None])
    def test_one_classifier_fit_per_run(self, targets, monkeypatch):
        monkeypatch.setattr(evalharness, "SAMPLES_PER_CLASS", 4)
        calls = []
        monkeypatch.setattr(evalharness, "train_linear", lambda X, y: calls.append(X.shape) or train_linear(X, y))
        spec = generate_model("toy-cnn", seed=0)
        compare_pipelines(0, spec, targets=targets)
        assert len(calls) == 1
        assert calls[0][0] == len(PIPELINE_CONFIGS) * (1 if targets else len(valid_targets(spec)))

    def test_one_forward_pass_per_toy_cnn_run(self, monkeypatch):
        # the 48 toy images at 16x16x3 make one group, one forward pass
        shapes = []
        monkeypatch.setattr(evalharness, "forward", lambda spec, x: shapes.append(x.shape) or forward(spec, x))
        compare_pipelines(0, generate_model("toy-cnn", seed=0))
        assert shapes == [(16, 16, 48, 3)]

    def test_text_report_shape(self, seed3_report):
        lines = seed3_report.to_text().splitlines()
        assert len(lines) == 2 + 12  # header lines + 6 configs x 2 layers
        assert lines[1].split() == ["layer", "config", "dims", "accuracy"]
