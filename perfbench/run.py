#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics, ending with one JSON line.

    python3 perfbench/run.py --workload heatmap-224 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/interactive``.  Inputs are
generated from ``--seed`` into a scratch directory under the checkout
(``.perfbench-work/``, removed afterwards); the program sees only those
files.  A fresh client process (``worker.py``) then drives the CLI in a
closed loop for ``--seconds``: one client, each op waiting for the previous
one.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (see ``tracing.py``).
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The lines before it record the machine and software, and every metric by
name with its unit.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 10  # half before and half after the measured client, plus its own set-up

sys.path.insert(0, str(HERE))
from hostspeed import at_reference_speed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# End-to-end metrics: name -> (unit, better).  The op timings are at
# reference speed (see hostspeed.py); the wall-clock ones are printed too.
END_TO_END = {
    "ops_per_s_at_ref": ("1/s", "higher"),
    "latency_p50_ms_at_ref": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def tail_index(n: int) -> int:
    """Index in sorted order of the highest sample with at least 10 samples beyond it.

    Never below the (upper) median: with fewer than 21 samples the tail is
    the median itself.
    """
    return max(n - 11, n // 2)


def latency_stats(latencies, errors) -> tuple[float, float, float, str]:
    """(ops per second, p50 ms, tail ms, tail note); a failed op counts as
    missing every latency, and a quantile that lands on one reads as the
    whole run's length."""
    run_ms = 1e3 * sum(latencies)
    ms = sorted(1e3 * t if e is None else math.inf for t, e in zip(latencies, errors))
    n = len(ms)
    i = tail_index(n)

    def censor(value):
        return run_ms if math.isinf(value) else value

    ok = sum(e is None for e in errors)
    note = f"p{100 * (i + 1) / n:.1f} of n={n} ops"
    return ok / sum(latencies), censor(statistics.median(ms)), censor(ms[i]), note


def end_to_end_metrics(latencies, references, errors, setup, maxrss_kb) -> tuple[dict, list[str]]:
    """The declared metrics, and lines with the wall-clock figures.

    ``references`` holds the reference kernel's time before each op and
    after the last; ``setup`` holds ``(set-up time, kernel time right
    after it)`` pairs.
    """
    at_ref = [at_reference_speed(t, (before + after) / 2)
              for t, before, after in zip(latencies, references, references[1:])]
    ops, p50, _, _ = latency_stats(at_ref, errors)
    wall_ops, wall_p50, wall_tail, tail_note = latency_stats(latencies, errors)
    values = {
        "ops_per_s_at_ref": ops,
        "latency_p50_ms_at_ref": p50,
        "setup_s": statistics.median(at_reference_speed(t, r) for t, r in setup),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    notes = [
        f"wall clock: ops_per_s {wall_ops:.6g} 1/s, latency_p50_ms {wall_p50:.6g} ms, "
        f"latency_tail_ms {wall_tail:.6g} ms ({tail_note})",
        f"reference kernel: median {1e3 * statistics.median(references):.4g} ms around the ops "
        f"(range {1e3 * min(references):.4g}-{1e3 * max(references):.4g})",
        f"setup_s is the median of {len(setup)} set-ups; in wall-clock time "
        f"{statistics.median(t for t, _ in setup):.6g} s",
    ]
    return values, notes


def blas_threads() -> str:
    """OpenBLAS thread count from the library numpy loaded, else the env setting."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Client:
    """A worker process; ``setup_s`` is the time from its start to its ``ready`` line."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *argv], env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"client did not get ready (exit code {self.proc.returncode})")

    def finish(self) -> None:
        try:
            self.proc.communicate(timeout=max(self.deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("client overran the run deadline and was killed") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"client exited with code {self.proc.returncode}")


def probe_setup(common, env, deadline) -> tuple[float, float]:
    """(set-up time, the reference kernel's time in the probe right after it)."""
    probe = Client([*common, "--probe"], env, deadline)
    line = probe.proc.stdout.readline().split()
    probe.finish()
    if len(line) != 2 or line[0] != "reference":
        raise RuntimeError("set-up probe did not report the reference kernel's time")
    return probe.setup_s, float(line[1])


def report(values: dict, units: dict) -> dict:
    for name, value in values.items():
        print(f"{name:<34} {value:>14.6g} {units[name][0]}")
    return {name: {"value": value, "unit": units[name][0]} for name, value in values.items()}


def run(args) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    from interactive.cli import main as cli_main

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with redirect_stdout(io.StringIO()):
            workload.generate(cli_main)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = [probe_setup(common, env, deadline) for _ in range(probes)]
        result_path = workdir / "result.json"
        client = Client(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)],
            env, deadline,
        )
        client.finish()
        setup += [probe_setup(common, env, deadline) for _ in range(probes)]
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setup.append((client.setup_s, result["references"][0]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    latencies, errors = result["latencies"], result["errors"]
    trace = result.get("trace")
    failed = [(i, e) for i, e in enumerate(errors) if e is not None]
    print(f"{args.workload} seed={args.seed}: {len(errors)} ops attempted, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(errors):.4g})")
    for i, error in failed[:5]:
        print(f"  op {i} failed: {error}")
    if trace:
        if trace["missing"]:
            print("not traced, name missing: " + ", ".join(trace["missing"]))
        print("self time per op (ms): " + ", ".join(f"{k} {v:.3f}" for k, v in trace["self_ms"].items()))
        print(f"  sum {sum(trace['self_ms'].values()):.3f} = traced op latency "
              f"{trace['metrics']['trace.traced_op_ms']:.3f}")
        metrics = report(trace["metrics"], PER_LAYER)
    else:
        values, notes = end_to_end_metrics(latencies, result["references"], errors, setup, result["maxrss_kb"])
        metrics = report(values, END_TO_END)
        print("\n".join(notes))
    return {"correct": not failed, "attempted": len(errors), "failed": len(failed), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0 also checks against the references)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics of a traced run")
    args = parser.parse_args()
    if not (SRC / "interactive" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'interactive'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(machine_info(args), sort_keys=True))
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
