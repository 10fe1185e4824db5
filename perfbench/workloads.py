"""The benchmark's workloads: seeded inputs, the argv of each op, and output checks.

A workload is built from ``(seed, workdir)``.  ``generate()`` writes every
input file the program will see; ``argv(i)`` is op ``i`` as a command line
for ``interactive.cli.main``; ``check(i, rc, stdout)`` validates what op ``i``
produced and returns an error string, or ``None`` when the op is correct.
``ops_per_cycle`` is the number of ops after which the mix of requests
repeats: a run always measures whole cycles.

The checks read outputs with their own parsers, not the program's, so a
bug in the program's writer cannot hide behind the same bug in its reader.
At ``REFERENCE_SEED`` the results are also compared with references recorded
from the seed code (``reference/``, written by ``make_reference.py``).
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FEATURE_MAGIC = b"IAFEAT01"
CHANNELS = {"input": 3, "pool-1": 6, "pool-2": 12}  # toy-cnn activations that feed a conv


def _remove(*paths: Path) -> None:
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def read_pgm(path: Path) -> np.ndarray:
    """Strictly parse a binary P5 file with maxval 255 into an (h, w) uint8 array."""
    data = path.read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if not m:
        raise ValueError(f"{path.name}: not a binary PGM with maxval 255")
    w, h = int(m.group(1)), int(m.group(2))
    payload = data[m.end():]
    if len(payload) != w * h:
        raise ValueError(f"{path.name}: payload is {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_features(path: Path) -> np.ndarray:
    """Parse the feature file: magic, u32 LE count, 4 zero bytes, f32 LE values."""
    data = path.read_bytes()
    if data[:8] != FEATURE_MAGIC or data[12:16] != b"\x00" * 4:
        raise ValueError(f"{path.name}: bad feature header")
    (count,) = struct.unpack("<I", data[8:12])
    if len(data) != 16 + 4 * count:
        raise ValueError(f"{path.name}: {len(data) - 16} payload bytes for {count} values")
    values = np.frombuffer(data[16:], dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path.name}: non-finite feature values")
    return values


def gen_model(cli_main, path: Path, seed: int, input_shape=None) -> None:
    argv = ["gen-model", "--arch", "toy-cnn", "--seed", str(seed), "--out", str(path)]
    if input_shape:
        argv += ["--input", *map(str, input_shape)]
    if cli_main(argv) != 0:
        raise RuntimeError(f"gen-model failed for {path}")


class Workload:
    name = ""
    ops_per_cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.model = self.workdir / "model.bin"
        self._reference = None

    def reference(self) -> dict | None:
        if self.seed != REFERENCE_SEED:
            return None
        if self._reference is None:
            with open(REFERENCE_DIR / "seed0.json", encoding="ascii") as fh:
                self._reference = json.load(fh)[self.name]
        return self._reference

    def generate(self, cli_main) -> None:
        raise NotImplementedError

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, rc: int, stdout: str) -> str | None:
        raise NotImplementedError


# Image slots: (area as a multiple of 224^2, aspect w/h, channels).  The slot
# list is fixed and only jittered per seed, so every seed has the same mix of
# downscaled, upscaled, colour and grayscale requests.
HEATMAP_SLOTS = (
    (1.6, 4 / 3, 3),
    (0.5, 3 / 4, 3),
    (1.0, 1.0, 1),
    (2.0, 3 / 4, 3),
    (0.35, 16 / 9, 3),
)
# The layer cycle visits pool-1 twice.  The three layers cost about 1.9 : 1.1 : 0.9
# (input : pool-1 : pool-2).  With one op of each per cycle the median falls
# on the edge between the pool-1 and pool-2 ops, and op-to-op noise moved it
# by up to 16% between runs.  With pool-1 as half the ops the median lies in
# the middle of the pool-1 ops.
HEATMAP_LAYERS = ("input", "pool-1", "pool-2", "pool-1")
# Reference heatmaps keep every 4th pixel of every 4th row: the full maps are
# noisy, about 350 KB even compressed, and a wrong gamma field moves most pixels.
HEATMAP_GRID = 4


def heatmap_image(seed: int, slot: int) -> np.ndarray:
    """A seeded smooth scene (blobs on a gradient, plus noise) as (h, w, c) uint8."""
    area_mult, aspect, channels = HEATMAP_SLOTS[slot]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 224, slot])))
    area = 224 * 224 * area_mult * rng.uniform(0.9, 1.1)
    aspect *= rng.uniform(0.9, 1.1)
    w = max(8, round(math.sqrt(area * aspect)))
    h = max(8, round(area / w))
    ys, xs = np.mgrid[0:h, 0:w] / max(w, h)
    img = 40.0 + 80.0 * (rng.uniform(-1, 1) * xs + rng.uniform(-1, 1) * ys)[:, :, None]
    img = np.repeat(img, channels, axis=2)
    for _ in range(6):
        cx, cy = rng.uniform(0, w / max(w, h)), rng.uniform(0, h / max(w, h))
        sigma = rng.uniform(0.03, 0.2)
        blob = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
        img += blob[:, :, None] * rng.uniform(40, 160, size=channels)
    img += rng.uniform(-20, 20, size=img.shape)
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def write_netpbm(pixels: np.ndarray, path: Path) -> None:
    h, w, c = pixels.shape
    magic = b"P5" if c == 1 else b"P6"
    path.write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + pixels.tobytes())


class Heatmap(Workload):
    """One 224x224 forward and one activeness backward per image; the conv
    forward on a 2.4 MB activation dominates and requests share nothing."""

    name = "heatmap-224"
    ops_per_cycle = len(HEATMAP_LAYERS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.images = [self.workdir / f"image-{k}.{'pgm' if s[2] == 1 else 'ppm'}"
                       for k, s in enumerate(HEATMAP_SLOTS)]
        self.out_map = self.workdir / "heatmap.pgm"
        self.out_feat = self.workdir / "features.bin"
        self._maps = None

    def generate(self, cli_main):
        gen_model(cli_main, self.model, self.seed, (224, 224, 3))
        for k, path in enumerate(self.images):
            write_netpbm(heatmap_image(self.seed, k), path)

    def pair(self, i: int) -> tuple[int, str]:
        return i % len(self.images), HEATMAP_LAYERS[i % len(HEATMAP_LAYERS)]

    def argv(self, i):
        _remove(self.out_map, self.out_feat)
        k, layer = self.pair(i)
        return ["activeness", "--model", str(self.model), "--image", str(self.images[k]),
                "--layer", layer, "--config", "last", "--p", "2",
                "--heatmap", str(self.out_map), "--features", str(self.out_feat)]

    def check(self, i, rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        k, layer = self.pair(i)
        slot_h, slot_w = heatmap_image_shape(self.images[k])
        gray = read_pgm(self.out_map)
        if gray.shape != (slot_h, slot_w):
            return f"heatmap is {gray.shape[1]}x{gray.shape[0]}, source is {slot_w}x{slot_h}"
        feat = read_features(self.out_feat)
        if feat.size != CHANNELS[layer]:
            return f"feature has {feat.size} dims, {layer} has {CHANNELS[layer]} channels"
        ref = self.reference()
        if ref is not None:
            key = f"{k}:{layer}"
            if not np.allclose(feat, ref["features"][key], rtol=1e-9, atol=0.0):
                return f"features differ from the reference for {key}"
            if self._maps is None:
                with np.load(REFERENCE_DIR / "seed0_heatmaps.npz") as data:
                    self._maps = {name.replace("_", ":", 1): data[name] for name in data.files}
            grid = gray[::HEATMAP_GRID, ::HEATMAP_GRID].astype(np.int16)
            diff = np.abs(grid - self._maps[key]).max()
            if diff > 1:
                return f"heatmap differs from the reference by {diff} levels for {key}"
        return None


def heatmap_image_shape(path: Path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        m = re.match(rb"P[56]\s+(\d+)\s+(\d+)\s", fh.read(64))
    return int(m.group(2)), int(m.group(1))


TOYBENCH_ROWS = 18  # 3 target layers x 6 pipeline configurations


class Toybench(Workload):
    """48 forwards, 576 activeness calls and 18 classifier fits on 16x16
    inputs: tiny tensors, so per-call overhead dominates."""

    name = "toybench-16"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_txt = self.workdir / "report.txt"
        self.out_json = self.workdir / "report.json"

    def generate(self, cli_main):
        gen_model(cli_main, self.model, self.seed)

    def argv(self, i):
        _remove(self.out_txt, self.out_json)
        return ["toybench", "--model", str(self.model), "--dataset-seed", str(self.seed),
                "--out", str(self.out_txt), "--json", str(self.out_json)]

    def check(self, i, rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(self.out_json.read_text(encoding="ascii"))
        rows = report["rows"]
        if report["dataset_seed"] != self.seed or len(rows) != TOYBENCH_ROWS:
            return f"report has seed {report['dataset_seed']} and {len(rows)} rows"
        for row in rows:
            acc = row["accuracy"]
            if row["dims"] != CHANNELS.get(row["layer"]) or not (
                isinstance(acc, float) and 0.0 <= acc <= 1.0
            ):
                return f"malformed row {row}"
        if len(self.out_txt.read_text(encoding="ascii").splitlines()) != TOYBENCH_ROWS + 2:
            return "text report does not have one line per row"
        ref = self.reference()
        if ref is not None and rows != ref["rows"]:
            return "toybench rows differ from the reference"
        return None


GRADCHECK_SAMPLES = 200
# gradcheck draws each probe's target layer from its --seed, and a probe at
# conv-1 replays more layers than one at conv-3.  Counted over --seed 0..15,
# the conv output positions an op computes (the Python loop that dominates
# its time) have a quartile spread of 11% of their median and a max/min of
# 1.23; the means of two blocks of eight seeds differ by 4.6%.  So a run
# cycles eight op seeds and always measures whole cycles of them.
GRADCHECK_SEEDS_PER_RUN = 8
GRADCHECK_SUMMARY = re.compile(
    r"connections sampled: (\d+) \(compared (\d+), kink-skipped (\d+)\)\n"
    r"max relative error vs finite differences: (\S+)\n"
    r"max absolute error on near-zero pairs: +(\S+)\n"
    r"max \|gamma engine - enumeration\|: +(\S+)\n"
    r"gradcheck (PASS|FAIL)\n"
)


class Gradcheck(Workload):
    """The CI gate: about 600 short conv replays for finite differences plus
    literal gamma enumeration, on 16x16 inputs."""

    name = "gradcheck-16"
    ops_per_cycle = GRADCHECK_SEEDS_PER_RUN

    def generate(self, cli_main):
        gen_model(cli_main, self.model, self.seed)

    def op_seed(self, i: int) -> int:
        return GRADCHECK_SEEDS_PER_RUN * self.seed + i % GRADCHECK_SEEDS_PER_RUN

    def argv(self, i):
        return ["gradcheck", "--model", str(self.model), "--seed", str(self.op_seed(i)),
                "--samples", str(GRADCHECK_SAMPLES)]

    def check(self, i, rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        m = GRADCHECK_SUMMARY.search(stdout)
        if not m:
            return "gradcheck summary is malformed"
        sampled, compared, skipped = (int(v) for v in m.group(1, 2, 3))
        errors = [float(v) for v in m.group(4, 5, 6)]
        if m.group(7) != "PASS":
            return "gradcheck reported FAIL"
        if sampled != GRADCHECK_SAMPLES or compared + skipped != sampled:
            return f"counts do not add up: {m.group(0)!r}"
        if compared == 0:
            return "gradcheck passed without comparing any probe"
        if not all(math.isfinite(e) for e in errors):
            return "non-finite error in gradcheck summary"
        ref = self.reference()
        if ref is not None and [compared, skipped] != ref["compared_skipped"][i % GRADCHECK_SEEDS_PER_RUN]:
            return f"compared/skipped {compared}/{skipped} differ from the reference"
        return None


WORKLOADS = {cls.name: cls for cls in (Heatmap, Toybench, Gradcheck)}
