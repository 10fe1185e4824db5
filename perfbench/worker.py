"""One benchmark client: a fresh process that drives the CLI in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process imports
``interactive``, loads the workload's model and prints ``ready`` (the
parent times process start to that line as set-up).  With ``--probe`` it
then times the reference kernel of ``hostspeed.py``, prints that time, and
exits.  Otherwise it times each op as an in-process call to
``interactive.cli.main(argv)``; the next op starts only after the previous
one has returned and its output has been checked, and the check is outside
the timed region.  Right before each op, also outside the timed region, the
client times the reference kernel of ``hostspeed.py``, so that each op's
latency can be put at reference speed.  A run always ends on a whole cycle
of the workload's mix.
With ``--trace 1`` ops alternate between untraced and traced, so the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def closed_loop(cli_main, workload, seconds: float, tracer=None):
    """Run whole cycles of ops until ``seconds`` have passed.

    Returns one ``(latency, error, traced, reference)`` record per op, where
    ``reference`` is the reference kernel's time right before the op, and
    the kernel's time after the last op.  With
    a tracer, ops alternate between untraced and traced, and the pattern
    flips every cycle; a traced run ends on an even number of cycles.  So
    both halves run every op of the mix equally often and see the same slow
    and fast spells of the machine.
    """
    from hostspeed import reference_s

    records = []
    i = 0
    cycle = workload.ops_per_cycle
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and (i % cycle + i // cycle) % 2 == 1
        argv = workload.argv(i)
        reference = reference_s()
        out, err = io.StringIO(), io.StringIO()
        if traced:
            tracer.install()
            tracer.begin_op()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli_main(argv)
            except Exception:  # an uncaught error is a failed op, not a crashed run
                rc = None
                err.write(traceback.format_exc())
            latency = perf_counter() - t0
        if traced:
            tracer.end_op(latency)
            tracer.uninstall()
        try:
            error = workload.check(i, rc, out.getvalue())
        except (OSError, ValueError, KeyError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error and err.getvalue():
            error += " | " + err.getvalue().strip().splitlines()[-1]
        records.append((latency, error, traced, reference))
        i += 1
        if i % cycle == 0 and perf_counter() >= deadline and (tracer is None or i // cycle % 2 == 0):
            return records, reference_s()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    parser.add_argument("--result", help="write the run's records here as JSON")
    args = parser.parse_args()

    import interactive
    from interactive.cli import main as cli_main

    model = Path(args.workdir) / "model.bin"
    interactive.load_model(model)
    print("ready", flush=True)
    if args.probe:
        from hostspeed import reference_s

        print(f"reference {reference_s()!r}", flush=True)
        return 0

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    # The reference kernel and the ops must run on the same vCPU: the vCPUs
    # of a shared host change speed independently.  BLAS threads, started
    # at import, keep their own affinity.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    records, last_reference = closed_loop(cli_main, workload, args.seconds, tracer)
    result = {
        "latencies": [r[0] for r in records],
        "errors": [r[1] for r in records],
        "references": [r[3] for r in records] + [last_reference],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        untraced = [r[0] for r in records if not r[2]]
        result["trace"] = {
            "missing": tracer.missing,
            "metrics": tracer.metrics(sum(untraced) / len(untraced)),
            "self_ms": tracer.self_breakdown(),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
