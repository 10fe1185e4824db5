"""The oracles' own values, pinned bit for bit (``tests/data/oracle_digests.json``).

gradcheck prints its errors to 3 digits, so its golden records cannot see a
last-bit move in either oracle.  This record pins, for every architecture at
model seeds 0 and 3, the sha256 of:

- the float64 ``enumerate_gamma`` output of every target, walked once with
  all four (supervision, p) configs (K = 4) and once per config (K = 1);
- the ``fd_connection_check`` quotients (None stored as NaN) of 24 drawn
  connections per (target, config);
- ``fd_activation_score`` at 4 drawn entries of every X(start), for every
  T >= start and p 1 and 2.

A moved digest fails its key: it is a finding to explain, not a value to
re-record.  ``PYTHONPATH=src python tests/test_oracle_digests.py`` writes a
new record.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from interactive import (
    ARCHITECTURES, ActivenessRequest, enumerate_gamma, fd_connection_check, forward, generate_model, receptive_sets,
)
from interactive.activeness import target_name, valid_targets
from interactive.oracle import fd_activation_score

from conftest import random_input
from test_oracle import _drawn_connections

RECORD_PATH = Path(__file__).parent / "data" / "oracle_digests.json"
CONFIGS = [("last", 1), ("last", 2), ("next", 1), ("next", 2)]
MODEL_SEEDS = (0, 3)


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _nan_for_none(values) -> list:
    return [np.nan if v is None else v for v in values]


def _model_record(arch: str, seed: int) -> dict:
    spec = generate_model(arch, seed=seed)
    trace = forward(spec, random_input(spec, seed=seed))
    rng = np.random.default_rng(seed)
    record, key = {}, f"{arch}/{seed}"
    for t in valid_targets(spec):
        name = target_name(spec, t)
        record[f"{key}/enumerate/{name}/K4"] = _sha256(enumerate_gamma(spec, trace, t, CONFIGS))
        record[f"{key}/enumerate/{name}/K1"] = _sha256(
            [enumerate_gamma(spec, trace, t, [config]) for config in CONFIGS]
        )
        conn = receptive_sets(spec, t)
        for sup, p in CONFIGS:
            request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
            quotients = fd_connection_check(spec, trace, request, _drawn_connections(conn, rng, 24))
            record[f"{key}/fd-connection/{name}/{sup}-p{p}"] = _sha256(_nan_for_none(quotients))
    for start in range(len(spec.layers) + 1):
        coords = [tuple(int(rng.integers(n)) for n in trace[start].shape) for _ in range(4)]
        for T in range(start, len(spec.layers) + 1):
            scores = [fd_activation_score(spec, trace, T, p, start, c) for p in (1, 2) for c in coords]
            record[f"{key}/fd-activation/X{start}/T{T}"] = _sha256(_nan_for_none(scores))
    return record


def compute_record() -> dict:
    return {k: v for arch in sorted(ARCHITECTURES) for seed in MODEL_SEEDS for k, v in _model_record(arch, seed).items()}


RECORD = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}


@pytest.fixture(scope="module")
def produced():
    return compute_record()


def test_record_covers_every_architecture_and_seed():
    assert {"/".join(key.split("/")[:2]) for key in RECORD} == {
        f"{arch}/{seed}" for arch in ARCHITECTURES for seed in MODEL_SEEDS
    }


def test_record_has_no_extra_or_missing_key(produced):
    assert set(produced) == set(RECORD)


@pytest.mark.parametrize("key", sorted(RECORD))
def test_oracle_value_matches_record(produced, key):
    assert produced[key] == RECORD[key]


if __name__ == "__main__":
    RECORD_PATH.write_text(json.dumps(compute_record(), indent=1, sort_keys=True) + "\n")
