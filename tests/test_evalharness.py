import json

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
    ToyDatasetSpec,
    accuracy,
    compare_pipelines,
    toy_image,
    toy_samples,
    train_linear,
)
from interactive.image import to_input_tensor

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


class TestTrainLinear:
    def test_separable_classes_reach_full_accuracy(self):
        X, y, X_test, y_test = two_blob_set()
        w = train_linear(X, y, epochs=400, lr=1.0)
        assert accuracy(w, X_test, y_test).tolist() == [1.0]

    def test_shuffled_labels_sit_at_chance(self):
        accs = []
        for seed in range(5):
            X, y, X_test, y_test = two_blob_set(seed=seed, shuffle_labels=True)
            w = train_linear(X, y, epochs=200, lr=1.0)
            accs.append(accuracy(w, X_test, y_test)[0])
        assert 0.4 <= float(np.mean(accs)) <= 0.6

    def test_identical_rows_stay_at_chance(self):
        feats = np.ones((1, 30, 4))
        labels = np.array([0, 1, 2] * 10)
        w = train_linear(feats[:, :15], labels[:15], epochs=100, lr=1.0)
        assert accuracy(w, feats[:, 15:], labels[15:])[0] == pytest.approx(1.0 / 3.0)

    def test_loss_monotone_nonincreasing(self):
        X, y, _, _ = two_blob_set(separation=1.0, seed=3)
        losses = []
        train_linear(X, y, epochs=150, lr=1.0, track_loss=losses)
        diffs = np.diff([loss[0] for loss in losses])
        assert np.all(diffs <= 1e-12)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((1, 3, 2))
        with pytest.raises(ValueError, match="two classes"):
            train_linear(X, np.zeros(3, dtype=int))

    def test_deterministic(self):
        X, y, _, _ = two_blob_set(seed=5)
        w1 = train_linear(X, y, epochs=50, lr=0.5)
        w2 = train_linear(X, y, epochs=50, lr=0.5)
        assert np.array_equal(w1, w2)

    def test_stacked_fit_equals_separate_fits(self):
        sets = [two_blob_set(separation=s, seed=7) for s in (0.5, 1.0, 3.0)]
        X = np.concatenate([X for X, _, _, _ in sets])
        X_test = np.concatenate([X_test for _, _, X_test, _ in sets])
        _, y, _, y_test = sets[0]
        losses = []
        weights = train_linear(X, y, epochs=60, lr=0.7, track_loss=losses)
        assert weights.shape == (3, 2, 3) and losses[0].shape == (3,)
        accs = accuracy(weights, X_test, y_test)
        for c, (X_c, y_c, X_test_c, y_test_c) in enumerate(sets):
            single = []
            alone = train_linear(X_c, y_c, epochs=60, lr=0.7, track_loss=single)
            assert alone.shape == (1, 2, 3) and single[0].shape == (1,)
            npt.assert_allclose(weights[c], alone[0], rtol=0, atol=1e-12)
            npt.assert_allclose([loss[c] for loss in losses], [loss[0] for loss in single], rtol=0, atol=1e-12)
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


class TestToyDataset:
    def test_deterministic_given_seed(self):
        spec = ToyDatasetSpec(seed=9)
        a = toy_image(spec, (16, 16, 3), label=1, sample=2)
        b = toy_image(spec, (16, 16, 3), label=1, sample=2)
        assert np.array_equal(a.pixels, b.pixels)
        c = toy_image(ToyDatasetSpec(seed=10), (16, 16, 3), label=1, sample=2)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_samples_shape_and_split(self):
        spec = ToyDatasetSpec(seed=0, classes=3, samples_per_class=6)
        images, labels, train_idx, test_idx = toy_samples(spec, (8, 8, 3))
        assert len(images) == 18 and labels.shape == (18,)
        assert len(train_idx) == 9 and len(test_idx) == 9
        assert set(train_idx) | set(test_idx) == set(range(18))
        assert all(img.pixels.shape == (8, 8, 3) for img in images)
        # stratified: every class appears in both splits
        assert set(labels[list(train_idx)]) == set(labels[list(test_idx)]) == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyDatasetSpec(classes=1)
        with pytest.raises(ValueError, match="channels must be 1 or 3"):
            toy_samples(ToyDatasetSpec(), (8, 8, 2))

    def test_negative_seed_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ToyDatasetSpec(seed=-1)


@pytest.fixture(scope="module")
def seed3_report():
    spec = generate_model("tiny-2conv", seed=3)
    dataset = ToyDatasetSpec(seed=3)
    return compare_pipelines(dataset, spec)


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
        spec = generate_model("tiny-2conv", seed=3)
        dataset = ToyDatasetSpec(seed=3)
        again = compare_pipelines(dataset, spec)
        assert again.to_text() == seed3_report.to_text()
        assert json.dumps(again.to_json_dict()) == json.dumps(seed3_report.to_json_dict())

    def test_rejects_bad_targets_before_any_forward_pass(self, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)  # conv-1, pool-1, conv-2
        dataset = ToyDatasetSpec(seed=3)
        monkeypatch.setattr(evalharness, "forward", lambda *args: pytest.fail("forward pass ran"))
        with pytest.raises(ShapeError, match="followed by pooling layer 'pool-1'"):
            compare_pipelines(dataset, spec, targets=[0, 1])
        with pytest.raises(ShapeError, match="final layer"):
            compare_pipelines(dataset, spec, targets=[3])
        with pytest.raises(ValueError, match=r"repeated target layers in \['input', 'pool-1', 'input'\]"):
            compare_pipelines(dataset, spec, targets=[0, 2, 0])

    def test_group_size_does_not_change_report(self, seed3_report, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)
        dataset = ToyDatasetSpec(seed=3)
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 1)  # a group per image
        assert compare_pipelines(dataset, spec).to_text() == seed3_report.to_text()

    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-fc"])
    def test_batched_features_equal_per_image_features(self, arch, monkeypatch):
        spec = generate_model(arch, seed=1)
        w, h, d = spec.input_shape
        dataset = ToyDatasetSpec(seed=2, samples_per_class=5)
        # groups of 4 for 15 images: the last group is short
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 4 * w * h * d + 1)
        seen = []
        normalize = evalharness.l2_normalize_rows
        monkeypatch.setattr(evalharness, "l2_normalize_rows", lambda m: seen.append(m) or normalize(m))
        compare_pipelines(dataset, spec)
        targets = valid_targets(spec)
        assert len(seen) == len(targets)

        images = toy_samples(dataset, spec.input_shape)[0]
        for t, batched in zip(targets, seen):
            assert batched.shape == (len(PIPELINE_CONFIGS), len(images), spec.layers[t].kernel.shape[2])
            for n, img in enumerate(images):
                trace = forward(spec, to_input_tensor(img, [INPUT_MEAN] * d).array)
                x_t = trace[t]
                expected = [x_t.mean(axis=(0, 1)), x_t.max(axis=(0, 1))]
                for sup in ("next", "last"):
                    for p in (1, 2):
                        request = ActivenessRequest(target_layer=t, supervision=sup, p=p, summarize="max")
                        expected.append(neuron_activeness(spec, trace, request).feature)
                # relative: tiny-fc's 1x1 fc output takes numpy's vector-matrix product
                # for one image and a matrix product for a stack, so its last bit
                # may differ (1.8e-12 absolute on entries near 7.5e3 was seen)
                npt.assert_allclose(batched[:, n], np.stack(expected), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dataset_seed", [0, 1])
    @pytest.mark.parametrize("model_seed", [0, 3])
    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-fc", "tiny-2conv", "tiny-3conv"])
    def test_one_padded_fit_equals_separate_fits(self, arch, model_seed, dataset_seed, monkeypatch):
        # every target's slice of the one zero-padded fit is, bit for bit, the fit
        # of its own unpadded rows, and each padded weight column stays 0.0
        spec = generate_model(arch, seed=model_seed)
        dataset = ToyDatasetSpec(seed=dataset_seed)
        feats, fits, tested = [], [], []
        normalize = evalharness.l2_normalize_rows
        monkeypatch.setattr(evalharness, "l2_normalize_rows", lambda m: feats.append(normalize(m)) or feats[-1])
        monkeypatch.setattr(evalharness, "train_linear", lambda X, y: fits.append(train_linear(X, y)) or fits[-1])
        monkeypatch.setattr(evalharness, "accuracy", lambda w, X, y: tested.append((w, X)) or accuracy(w, X, y))
        report = compare_pipelines(dataset, spec)

        _, labels, train, test = toy_samples(dataset, spec.input_shape)
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
        calls = []
        monkeypatch.setattr(evalharness, "train_linear", lambda X, y: calls.append(X.shape) or train_linear(X, y))
        spec = generate_model("toy-cnn", seed=0)
        compare_pipelines(ToyDatasetSpec(seed=0, samples_per_class=4), spec, targets=targets)
        assert len(calls) == 1
        assert calls[0][0] == len(PIPELINE_CONFIGS) * (1 if targets else len(valid_targets(spec)))

    def test_text_report_shape(self, seed3_report):
        lines = seed3_report.to_text().splitlines()
        assert len(lines) == 2 + 12  # header lines + 6 configs x 2 layers
        assert lines[1].split() == ["layer", "config", "dims", "accuracy"]
