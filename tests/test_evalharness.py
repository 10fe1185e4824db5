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
    spatial_average,
    spatial_max,
)
from interactive.evalharness import (
    INPUT_MEAN,
    LabeledFeatureSet,
    PIPELINE_CONFIGS,
    ToyDatasetSpec,
    accuracy,
    compare_pipelines,
    toy_image,
    toy_samples,
    train_linear,
    valid_targets,
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
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, 2)) + [separation, 0.0]
    b = rng.standard_normal((n_per_class, 2)) - [separation, 0.0]
    feats = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    if shuffle_labels:
        labels = rng.permutation(labels)
    idx = rng.permutation(2 * n_per_class)
    train, test = idx[: n_per_class], idx[n_per_class :]
    return LabeledFeatureSet(features=feats, labels=labels, train_idx=tuple(train), test_idx=tuple(test))


class TestTrainLinear:
    def test_separable_classes_reach_full_accuracy(self):
        fs = two_blob_set()
        w = train_linear(fs, epochs=400, lr=1.0)
        assert accuracy(w, fs, fs.test_idx) == 1.0

    def test_shuffled_labels_sit_at_chance(self):
        accs = []
        for seed in range(5):
            fs = two_blob_set(seed=seed, shuffle_labels=True)
            w = train_linear(fs, epochs=200, lr=1.0)
            accs.append(accuracy(w, fs, fs.test_idx))
        assert 0.4 <= float(np.mean(accs)) <= 0.6

    def test_identical_rows_stay_at_chance(self):
        feats = np.ones((30, 4))
        labels = np.array([0, 1, 2] * 10)
        fs = LabeledFeatureSet(
            features=feats, labels=labels, train_idx=tuple(range(15)), test_idx=tuple(range(15, 30))
        )
        w = train_linear(fs, epochs=100, lr=1.0)
        assert accuracy(w, fs, fs.test_idx) == pytest.approx(1.0 / 3.0)

    def test_loss_monotone_nonincreasing(self):
        fs = two_blob_set(separation=1.0, seed=3)
        losses = []
        train_linear(fs, epochs=150, lr=1.0, track_loss=losses)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_single_class_rejected(self):
        fs = LabeledFeatureSet(
            features=np.random.default_rng(0).standard_normal((6, 2)),
            labels=np.zeros(6, dtype=int),
            train_idx=(0, 1, 2),
            test_idx=(3, 4, 5),
        )
        with pytest.raises(ValueError, match="two classes"):
            train_linear(fs)

    def test_deterministic(self):
        fs = two_blob_set(seed=5)
        w1 = train_linear(fs, epochs=50, lr=0.5)
        w2 = train_linear(fs, epochs=50, lr=0.5)
        assert np.array_equal(w1, w2)


    def test_stacked_fit_equals_separate_fits(self):
        sets = [two_blob_set(separation=s, seed=7) for s in (0.5, 1.0, 3.0)]
        stack = LabeledFeatureSet(
            features=np.stack([fs.features for fs in sets]),
            labels=sets[0].labels,
            train_idx=sets[0].train_idx,
            test_idx=sets[0].test_idx,
        )
        losses = []
        weights = train_linear(stack, epochs=60, lr=0.7, track_loss=losses)
        assert weights.shape == (3, 2, 3) and losses[0].shape == (3,)
        accs = accuracy(weights, stack, stack.test_idx)
        for c, fs in enumerate(sets):
            single = []
            alone = train_linear(fs, epochs=60, lr=0.7, track_loss=single)
            npt.assert_allclose(weights[c], alone, rtol=0, atol=1e-12)
            npt.assert_allclose([loss[c] for loss in losses], single, rtol=0, atol=1e-12)
            assert accs[c] == accuracy(weights[c], fs, fs.test_idx)


class TestLabeledFeatureSet:
    def test_split_validation(self):
        feats = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="overlap"):
            LabeledFeatureSet(features=feats, labels=labels, train_idx=(0, 1), test_idx=(1, 2, 3))
        with pytest.raises(ValueError, match="cover"):
            LabeledFeatureSet(features=feats, labels=labels, train_idx=(0,), test_idx=(1, 2))
        with pytest.raises(ValueError, match="match"):
            LabeledFeatureSet(features=feats, labels=labels[:3], train_idx=(0, 1), test_idx=(2, 3))


class TestToyDataset:
    def test_deterministic_given_seed(self):
        spec = ToyDatasetSpec(seed=9)
        a = toy_image(spec, label=1, sample=2)
        b = toy_image(spec, label=1, sample=2)
        assert np.array_equal(a.pixels, b.pixels)
        c = toy_image(ToyDatasetSpec(seed=10), label=1, sample=2)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_samples_shape_and_split(self):
        spec = ToyDatasetSpec(seed=0, classes=3, samples_per_class=6, image_size=(8, 8))
        images, labels, train_idx, test_idx = toy_samples(spec)
        assert len(images) == 18 and labels.shape == (18,)
        assert len(train_idx) == 9 and len(test_idx) == 9
        assert set(train_idx) | set(test_idx) == set(range(18))
        assert all(img.pixels.shape == (8, 8, 3) for img in images)
        # stratified: every class appears in both splits
        assert set(labels[list(train_idx)]) == set(labels[list(test_idx)]) == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyDatasetSpec(classes=1)
        with pytest.raises(ValueError):
            ToyDatasetSpec(channels=2)


@pytest.fixture(scope="module")
def seed3_report():
    spec = generate_model("tiny-2conv", seed=3)
    dataset = ToyDatasetSpec(seed=3, image_size=(8, 8), channels=3)
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
        dataset = ToyDatasetSpec(seed=3, image_size=(8, 8), channels=3)
        again = compare_pipelines(dataset, spec)
        assert again.to_text() == seed3_report.to_text()
        assert json.dumps(again.to_json_dict()) == json.dumps(seed3_report.to_json_dict())

    def test_size_mismatch_rejected(self):
        spec = generate_model("tiny-2conv", seed=3)
        dataset = ToyDatasetSpec(seed=3, image_size=(16, 16), channels=3)
        with pytest.raises(ValueError, match="fit"):
            compare_pipelines(dataset, spec)

    def test_rejects_bad_targets_before_any_forward_pass(self, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)  # conv-1, pool-1, conv-2
        dataset = ToyDatasetSpec(seed=3, image_size=(8, 8), channels=3)
        monkeypatch.setattr(evalharness, "forward_arrays", lambda *args: pytest.fail("forward pass ran"))
        with pytest.raises(ShapeError, match="followed by pooling layer 'pool-1'"):
            compare_pipelines(dataset, spec, targets=[0, 1])
        with pytest.raises(ShapeError, match="final layer"):
            compare_pipelines(dataset, spec, targets=[3])

    def test_group_size_does_not_change_report(self, seed3_report, monkeypatch):
        spec = generate_model("tiny-2conv", seed=3)
        dataset = ToyDatasetSpec(seed=3, image_size=(8, 8), channels=3)
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 1)  # a group per image
        assert compare_pipelines(dataset, spec).to_text() == seed3_report.to_text()

    @pytest.mark.parametrize("arch", ["toy-cnn", "tiny-fc"])
    def test_batched_features_equal_per_image_features(self, arch, monkeypatch):
        spec = generate_model(arch, seed=1)
        w, h, d = spec.input_shape
        dataset = ToyDatasetSpec(seed=2, samples_per_class=5, image_size=(w, h), channels=d)
        # groups of 4 for 15 images: the last group is short
        monkeypatch.setattr(evalharness, "GROUP_INPUT_ELEMENTS", 4 * w * h * d + 1)
        seen = []
        normalize = evalharness.l2_normalize_rows
        monkeypatch.setattr(evalharness, "l2_normalize_rows", lambda m: seen.append(m) or normalize(m))
        compare_pipelines(dataset, spec)
        targets = valid_targets(spec)
        assert len(seen) == len(targets)

        images = toy_samples(dataset)[0]
        for t, batched in zip(targets, seen):
            assert batched.shape == (len(PIPELINE_CONFIGS), len(images), spec.layers[t].kernel.shape[2])
            for n, img in enumerate(images):
                trace = forward(spec, to_input_tensor(img, [INPUT_MEAN] * d))
                x_t = trace.activation(t)
                expected = [spatial_average(x_t).values, spatial_max(x_t).values]
                for sup in ("next", "last"):
                    for p in (1, 2):
                        request = ActivenessRequest(target_layer=t, supervision=sup, p=p, summarize="max")
                        expected.append(neuron_activeness(spec, trace, request).feature.values)
                # relative: tiny-fc's 1x1 fc output takes numpy's vector-matrix product
                # for one image and a matrix product for a stack, so its last bit
                # may differ (1.8e-12 absolute on entries near 7.5e3 was seen)
                npt.assert_allclose(batched[:, n], np.stack(expected), rtol=1e-12, atol=1e-12)

    def test_text_report_shape(self, seed3_report):
        lines = seed3_report.to_text().splitlines()
        assert len(lines) == 2 + 12  # header lines + 6 configs x 2 layers
        assert lines[1].split() == ["layer", "config", "dims", "accuracy"]
