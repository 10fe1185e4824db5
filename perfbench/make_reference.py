#!/usr/bin/env python3
"""Record the reference results that runs at the reference seed are checked against.

    python3 perfbench/make_reference.py

Runs each distinct op of every workload once at ``REFERENCE_SEED`` and writes
``reference/seed0.json`` (heatmap features, toybench rows, gradcheck counts)
and ``reference/seed0_heatmaps.npz`` (heatmap pixels).  Re-record only when
a change to the results is intended and explained.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from interactive.cli import main as cli_main  # noqa: E402
from workloads import (  # noqa: E402
    GRADCHECK_SEEDS_PER_RUN, HEATMAP_GRID, REFERENCE_DIR, REFERENCE_SEED, WORKLOADS, Gradcheck, Heatmap, Toybench, read_features, read_pgm,
)


def run_op(workload, i) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli_main(workload.argv(i))
    if rc != 0:
        raise SystemExit(f"{workload.name} op {i} failed with exit code {rc}")
    return out.getvalue()


def main() -> None:
    workdir = HERE.parent / ".perfbench-work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        made = {}
        for name, cls in WORKLOADS.items():
            workload = cls(REFERENCE_SEED, workdir / name)
            workload.workdir.mkdir()
            with redirect_stdout(io.StringIO()):
                workload.generate(cli_main)
            made[name] = workload
        heatmap: Heatmap = made[Heatmap.name]
        features, maps = {}, {}
        for i in range(len(heatmap.images) * heatmap.ops_per_cycle):
            run_op(heatmap, i)
            k, layer = heatmap.pair(i)
            features[f"{k}:{layer}"] = read_features(heatmap.out_feat).tolist()
            maps[f"{k}_{layer}"] = read_pgm(heatmap.out_map)[::HEATMAP_GRID, ::HEATMAP_GRID]
        toybench: Toybench = made[Toybench.name]
        run_op(toybench, 0)
        rows = json.loads(toybench.out_json.read_text(encoding="ascii"))["rows"]
        gradcheck: Gradcheck = made[Gradcheck.name]
        counts = []
        for i in range(GRADCHECK_SEEDS_PER_RUN):
            m = re.search(r"compared (\d+), kink-skipped (\d+)", run_op(gradcheck, i))
            counts.append([int(m.group(1)), int(m.group(2))])
        reference = {
            Heatmap.name: {"features": features},
            Toybench.name: {"rows": rows},
            Gradcheck.name: {"compared_skipped": counts},
        }
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / "seed0.json", "w", encoding="ascii") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        np.savez_compressed(REFERENCE_DIR / "seed0_heatmaps.npz", **maps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
