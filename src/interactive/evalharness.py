"""Desk-scale feature evaluation: toy dataset, linear classifier, pipeline table.

A toy dataset, fixed but for its seed, paints small, off-center class
signatures onto noisy canvases, deliberately leaving most of each image
uninformative so that spatial weighting has signal to exploit.  All its
images are painted as one stack; only the random draws run per image.
Features are l2-normalized and scored with a one-vs-rest logistic
regression trained by full-batch gradient descent (the same linear
hypothesis class as an SVM, with no external solver); the regularizer
maps a slack constant C through reg = 1 / (C * N).  The class count,
samples per class, C, epoch count and learning rate are module constants.

Accuracy DIFFERENCES between pipelines are reported, never asserted:
a random-weight toy net carries no promise about their ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activeness import WEIGHTED_CONFIGS, ActivenessRequest, target_name, valid_targets, validate_request
from .activeness import weighted_features
from .activeness import neuron_activeness  # noqa: F401 -- only the benchmark's tracer wraps it here
from .image import RasterImage, to_input_tensor
from .net import NetworkSpec, forward

# The classifier: slack C, and a fixed number of full-batch steps of one size
SLACK_C = 10.0
EPOCHS = 300
LEARNING_RATE = 1.0
INPUT_MEAN = 128.0

# The toy dataset (``toy_image``): class count, samples per class (half train,
# half test), blob width, noise level and jitter
CLASSES = 3
SAMPLES_PER_CLASS = 16
BLOB_SIGMA = 2.0
NOISE_LEVEL = 60
JITTER = 1

# Input elements per image group in ``compare_pipelines``: 16 toy-cnn images
# at 16x16x3, so the 48 toy images make 3 groups.  Every intermediate of the
# forward pass and the reverse sweep grows with the group, so the process's
# peak RSS does too; the gamma hop masks one config at a time, which keeps
# its share small (README, "Toy benchmark", has the figures per group size).
# An image larger than the budget is a group of one.
GROUP_INPUT_ELEMENTS = 16 * 16 * 16 * 3

PIPELINE_CONFIGS = ("orig-avg", "orig-max", *(f"{sup}-p{p}" for sup, p in WEIGHTED_CONFIGS))


def toy_image(seed: int, shape, label: int, sample: int) -> RasterImage:
    """One deterministic sample of the toy dataset ``seed``, painted at ``shape`` = (W, H, D).

    Each class paints a small gaussian blob at a class-specific off-center
    position, textured by a ripple whose frequency and orientation encode
    the class; the blob's color profile is the same for every class, so
    nothing global (mean color, total energy) separates them.  The rest of
    the canvas is uniform noise in [0, ``NOISE_LEVEL``); the blob's sigma is
    ``BLOB_SIGMA`` pixels and per-sample jitter moves it by up to ``JITTER``
    pixels.  The one-image case of ``_paint``.
    """
    return RasterImage(pixels=_paint(seed, shape, [label], [sample])[0])


def _paint(seed: int, shape, labels: list[int], samples: list[int]) -> np.ndarray:
    """The (N, H, W, D) uint8 pixels of the toy images (``labels[i]``,
    ``samples[i]``) of dataset ``seed`` at ``shape`` = (W, H, D).  Only the
    random draws run per image; the blob and its ripple are painted once
    over the stack, per-image constants broadcast, the same bits as alone."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    w, h, d = shape
    if d not in (1, 3):
        raise ValueError(f"toy dataset paints 1 or 3 channels; network input is {w}x{h}x{d}")
    canvas = np.empty((len(labels), h, w, d))
    jitter = np.empty((len(labels), 2), dtype=np.int64)
    for i, (label, sample) in enumerate(zip(labels, samples)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label, sample])))
        canvas[i] = rng.uniform(0.0, NOISE_LEVEL, size=(h, w, d))
        jitter[i] = rng.integers(-JITTER, JITTER + 1), rng.integers(-JITTER, JITTER + 1)

    def per_image(values):  # one Python float per image, as an (N, 1, 1) column
        return np.array(values)[:, None, None]

    angles = [2.0 * math.pi * label / CLASSES for label in labels]
    orients = [math.pi * label / CLASSES for label in labels]
    cx = per_image([w * (0.5 + 0.27 * math.cos(a)) for a in angles]) + jitter[:, 0, None, None]
    cy = per_image([h * (0.5 + 0.27 * math.sin(a)) for a in angles]) + jitter[:, 1, None, None]
    ys, xs = np.mgrid[0:h, 0:w]
    bump = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * BLOB_SIGMA**2))
    freq = per_image([1.5 + 1.25 * label for label in labels])
    cos_o, sin_o = per_image([math.cos(o) for o in orients]), per_image([math.sin(o) for o in orients])
    phase = cos_o * (xs - cx) + sin_o * (ys - cy)
    ripple = 0.7 + 0.3 * np.sin(2.0 * math.pi * freq * phase / w)
    mix = np.array([1.0, 0.85, 0.7][:d])  # identical for every class
    canvas += 195.0 * bump[..., None] * ripple[..., None] * mix
    return np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8)


def toy_samples(seed: int, shape) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The toy dataset ``seed`` at ``shape`` = (W, H, D): all its images painted as
    one (N, H, W, D) uint8 stack, labels, and a stratified half/half train/test
    split as index arrays."""
    labels = np.repeat(np.arange(CLASSES), SAMPLES_PER_CLASS)
    samples = np.tile(np.arange(SAMPLES_PER_CLASS), CLASSES)
    pixels = _paint(seed, shape, labels.tolist(), samples.tolist())
    train = samples < SAMPLES_PER_CLASS // 2
    return pixels, labels, np.flatnonzero(train), np.flatnonzero(~train)


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-norm copy of every row (last axis) of a (..., D) array."""
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return matrix / safe


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def train_linear(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-vs-rest logistic regression by full-batch gradient descent.

    ``X`` is a (C, N, D) stack of C training sets that share the N labels
    ``y``; returns a (C, K, D+1) tensor of C independent fits, K = y.max() + 1,
    last column the intercept (which is not regularized).  Deterministic:
    zero init, then ``EPOCHS`` steps of size ``LEARNING_RATE``.  An all-zero
    feature column gets zero gradient and zero regularization, so its weight
    stays exactly 0.0.
    """
    if y.size == 0:
        raise ValueError("empty training split")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training split must contain at least two classes")
    k = int(y.max()) + 1
    c, n, d = X.shape
    reg = 1.0 / (SLACK_C * n)
    Xb = np.concatenate([X, np.ones((c, n, 1))], axis=2)
    Y = (y[:, None] == np.arange(k)[None, :]).astype(np.float64)
    W = np.zeros((c, k, d + 1))
    mask = np.ones((1, 1, d + 1))
    mask[..., -1] = 0.0  # intercept unregularized
    for _ in range(EPOCHS):
        S = _sigmoid(Xb @ W.transpose(0, 2, 1))
        grad = (S - Y).transpose(0, 2, 1) @ Xb / n + 2.0 * reg * (W * mask)
        W = W - LEARNING_RATE * grad
    return W


def accuracy(weights: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fraction of the rows of each stacked set in ``X`` (C, N, D) that the
    (C, K, D+1) ``weights`` classify as ``y``: one value per set, shape (C,)."""
    Xb = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    return ((Xb @ np.swapaxes(weights, -1, -2)).argmax(axis=-1) == y).mean(axis=-1)


def _group_vectors(spec: NetworkSpec, x: np.ndarray, targets: list[int]) -> dict:
    """Feature rows for a (W, H, N, D) image stack: ``{t: array (6, N, D_t)}``
    in ``PIPELINE_CONFIGS`` order."""
    trace = forward(spec, x)
    weighted = weighted_features(spec, trace, targets)
    return {
        t: np.stack([trace[t].mean(axis=(0, 1)), trace[t].max(axis=(0, 1)), *weighted[t]])
        for t in targets
    }


@dataclass(frozen=True)
class PipelineReport:
    """Accuracy table: one row per (target layer, configuration)."""

    rows: tuple  # (layer_name, config, dims, accuracy)
    dataset_seed: int
    classes: int
    train_size: int
    test_size: int

    def to_text(self) -> str:
        lines = [
            f"toy dataset: seed={self.dataset_seed} classes={self.classes} "
            f"train={self.train_size} test={self.test_size}",
            f"{'layer':<12} {'config':<10} {'dims':>5} {'accuracy':>9}",
        ]
        for name, config, dims, acc in self.rows:
            lines.append(f"{name:<12} {config:<10} {dims:>5d} {acc:>9.4f}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "dataset_seed": self.dataset_seed,
            "classes": self.classes,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "rows": [
                {"layer": name, "config": config, "dims": dims, "accuracy": acc}
                for name, config, dims, acc in self.rows
            ],
        }


def compare_pipelines(dataset_seed: int, spec: NetworkSpec, targets: list[int] | None = None) -> PipelineReport:
    """Test accuracy of original vs activeness-weighted features per layer.

    Six configurations per target layer mirror the standard comparison:
    original features under average and max pooling, then the weighted
    features for supervision next/last and norms p = 1/2.
    """
    if targets is None:
        targets = valid_targets(spec)
    if not targets:
        raise ValueError("no valid target layers (need a conv layer)")
    for t in targets:
        validate_request(spec, ActivenessRequest(target_layer=t))
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target layers in {[target_name(spec, t) for t in targets]}")

    pixels, labels, train, test = toy_samples(dataset_seed, spec.input_shape)
    mean = [INPUT_MEAN] * spec.input_shape[2]

    # One input, one forward and one reverse sweep per group of images, stacked
    # on a batch axis between the spatial axes and the channel axis.
    size = max(1, GROUP_INPUT_ELEMENTS // math.prod(spec.input_shape))
    groups = [
        _group_vectors(spec, to_input_tensor(pixels[i : i + size], mean).array, targets)
        for i in range(0, len(pixels), size)
    ]

    # All targets' six configs train as one stack, rows zero-padded to the widest D:
    # a zero column keeps an exactly zero weight, so each target's slice is its own fit.
    feats = [l2_normalize_rows(np.concatenate([g[t] for g in groups], axis=1)) for t in targets]
    width = max(f.shape[2] for f in feats)
    padded = [np.pad(f[:, train], ((0, 0), (0, 0), (0, width - f.shape[2]))) for f in feats]
    weights = np.split(train_linear(np.concatenate(padded), labels[train]), len(targets))
    rows = []
    for t, f, w in zip(targets, feats, weights):
        # slice the first D_t columns and the intercept before testing the unpadded rows
        for config, acc in zip(PIPELINE_CONFIGS, accuracy(w[..., [*range(f.shape[2]), -1]], f[:, test], labels[test])):
            rows.append((target_name(spec, t), config, f.shape[2], float(acc)))
    return PipelineReport(
        rows=tuple(rows),
        dataset_seed=dataset_seed,
        classes=CLASSES,
        train_size=len(train),
        test_size=len(test),
    )
