#!/usr/bin/env python3
"""Steadiness mode: repeat each workload over several seeds and report each
end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--out FILE] [--compare FILE]

Every workload in BENCHMARK.json is run.  Each run is a separate ``run.py``
process with its own seed; the seeds are interleaved across workloads so a
slow spell of the machine does not land on one workload only.  ``spread`` is
(Q3 - Q1) / median with quartiles as ``statistics.quantiles(values, n=4)``
gives them; a metric is ``steady`` when its spread is below a third of its
bound, and ``WIDE`` when it is above the bound.  ``--out`` writes every
run's metrics as JSON; ``--compare`` takes such a file from an
earlier set of runs and flags each median that is worse than the earlier
one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds) -> tuple[dict, int, float]:
    t0 = perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} had failed ops:\n{proc.stdout}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["attempted"], perf_counter() - t0


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write all run metrics here as JSON")
    parser.add_argument("--compare", help="earlier --out file to compare medians against")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            metrics, ops, elapsed = run_once(bench["command"], workload, seed, bench["run_seconds"])
            runs[workload].append(metrics)
            print(f"{workload} seed {seed} ({elapsed:.1f} s, {ops} ops): "
                  + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    print(f"\n{'workload':<14} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, rows in runs.items():
        for name, bound in bounds.items():
            s = summarize([row[name] for row in rows])
            verdict = "steady" if s["spread"] < bound / 3 else "within" if s["spread"] <= bound else "WIDE"
            ok &= verdict != "WIDE"
            if earlier and workload in earlier:
                before = statistics.median(row[name] for row in earlier[workload])
                change = (s["median"] - before) / before * (1 if better[name] == "lower" else -1)
                verdict += f", {100 * change:+.1f}% vs earlier" + (" WORSE" if change > bound else "")
                ok &= change <= bound
            print(f"{workload:<14} {name:<16} {s['median']:>10.4g} {s['q1']:>10.4g} {s['q3']:>10.4g} "
                  f"{100 * s['spread']:>6.1f}% {100 * bound:>5.0f}%  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
