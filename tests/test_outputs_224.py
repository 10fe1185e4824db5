"""The outputs a user gets, pinned exactly at 224x224 (``tests/data/outputs_224.json``).

Five seeded images run through ``activeness`` on toy-cnn (model seed 0) at a
224x224 input: the layers input, pool-1 and pool-2 under last/next x p 1/2,
and pool-1 once more with ``--summarize average``.  Each run pins the feature
file's f32 values and the heatmap file's sha256, and, through the library, a
sha256 of the float64 ``feature`` and ``map2d`` (the files quantize to f32 and
8 bits, so a last-bit move shows only there).  The toybench JSON of every
architecture at model seeds 0 and 3 and dataset seeds 0, 1 and 2 is pinned by
its sha256.

A moved value fails its key.  ``PYTHONPATH=src python tests/test_outputs_224.py``
writes a new record; re-record only for a change that explains, key by key, why its outputs moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from interactive import (
    ARCHITECTURES, ActivenessRequest, RasterImage, forward, generate_model, neuron_activeness, read_image,
    save_model, write_image,
)
from interactive.cli import _prepare_input, _resolve_target, main

RECORD_PATH = Path(__file__).parent / "data" / "outputs_224.json"
# name -> (width, height, channels); 56x56 is upscaled, 400x31 scales its two axes opposite ways
IMAGES = {
    "color-283x212": (283, 212, 3),
    "gray-224x224": (224, 224, 1),
    "color-56x56": (56, 56, 3),
    "color-400x31": (400, 31, 3),
    "gray-1x1": (1, 1, 1),
}
LAYERS = ("input", "pool-1", "pool-2")
RUNS = [(layer, sup, p, "max") for layer in LAYERS for sup in ("last", "next") for p in (1, 2)]
RUNS.append(("pool-1", "last", 2, "average"))
MODEL_SEEDS = (0, 3)
DATASET_SEEDS = (0, 1, 2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _image(name: str, seed: int) -> RasterImage:
    w, h, c = IMAGES[name]
    return RasterImage(pixels=np.random.default_rng(seed).integers(0, 256, size=(h, w, c), dtype=np.uint8))


def _activeness_record(tmp: Path) -> dict:
    spec = generate_model("toy-cnn", seed=0, input_shape=(224, 224, 3))
    model = tmp / "toy-224.model"
    save_model(spec, model)
    record = {}
    for seed, name in enumerate(IMAGES):
        image = tmp / f"{name}.ppm"
        write_image(_image(name, seed), image)
        trace = forward(spec, _prepare_input(read_image(image), spec, 128.0).array)
        for layer, sup, p, summarize in RUNS:
            hm, feat = tmp / "hm.pgm", tmp / "f.bin"
            argv = ["activeness", "--model", str(model), "--image", str(image), "--layer", layer,
                    "--config", sup, "--p", str(p), "--summarize", summarize,
                    "--heatmap", str(hm), "--features", str(feat)]
            assert main(argv) == 0, argv
            request = ActivenessRequest(target_layer=_resolve_target(spec, layer), supervision=sup, p=p,
                                        summarize=summarize)
            result = neuron_activeness(spec, trace, request)
            record["/".join((name, layer, sup, f"p{p}", summarize))] = {
                "feature": np.frombuffer(feat.read_bytes()[16:], dtype="<f4").tolist(),
                "heatmap_sha256": _sha256(hm.read_bytes()),
                "feature_f64_sha256": _sha256(result.feature.tobytes()),
                "map2d_f64_sha256": _sha256(np.ascontiguousarray(result.map2d).tobytes()),
            }
    return record


def _toybench_key(arch: str, seed: int, dataset_seed: int) -> str:
    # dataset seed 0's keys were recorded first, without a dataset suffix
    return f"toybench/{arch}/{seed}" + (f"/dataset-{dataset_seed}" if dataset_seed else "")


def _toybench_record(tmp: Path) -> dict:
    record = {}
    for arch in sorted(ARCHITECTURES):
        for seed in MODEL_SEEDS:
            model, report = tmp / f"{arch}-{seed}.model", tmp / "r.json"
            save_model(generate_model(arch, seed=seed), model)
            for dataset_seed in DATASET_SEEDS:
                argv = ["toybench", "--model", str(model), "--dataset-seed", str(dataset_seed),
                        "--out", str(tmp / "r.txt"), "--json", str(report)]
                assert main(argv) == 0, argv
                record[_toybench_key(arch, seed, dataset_seed)] = _sha256(report.read_bytes())
    return record


def compute_record(tmp: Path) -> dict:
    return {**_activeness_record(tmp), **_toybench_record(tmp)}


RECORD = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return compute_record(tmp_path_factory.mktemp("outputs_224"))


def test_record_covers_every_run():
    runs = {"/".join((name, layer, sup, f"p{p}", summarize)) for name in IMAGES for layer, sup, p, summarize in RUNS}
    toybench = {_toybench_key(arch, seed, ds) for arch in ARCHITECTURES for seed in MODEL_SEEDS for ds in DATASET_SEEDS}
    assert set(RECORD) == runs | toybench


@pytest.mark.parametrize("key", sorted(RECORD))
def test_output_matches_record(produced, key):
    assert produced[key] == RECORD[key]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        record = compute_record(Path(tmp))  # the subcommands print one line per run
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
