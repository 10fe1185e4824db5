"""Smoke tests for the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q

A minimal run of every workload, traced and untraced, must complete with
correct outputs and report exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_names_match_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == tracing.PER_LAYER


def test_every_wrapped_name_resolves():
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_missing_name_is_reported_not_raised():
    import interactive.net

    original = interactive.net.apply_conv
    targets = tracing.TARGETS + (
        ("x", "interactive.net", "no_such_function", None),
        ("x", "interactive.no_such_module", "f", None),
        ("x", "interactive.tensor", "Tensor3.no_such_method", None),
    )
    tracer = tracing.Tracer()
    try:
        missing = tracer.install(targets)
        assert interactive.net.apply_conv is not original
    finally:
        tracer.uninstall()
    assert missing == [
        "interactive.net.no_such_function",
        "interactive.no_such_module.f",
        "interactive.tensor.Tensor3.no_such_method",
    ]
    assert interactive.net.apply_conv is original


@pytest.mark.parametrize("n, index", [(1, 0), (4, 2), (20, 10), (21, 10), (22, 11), (100, 89)])
def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median(n, index):
    assert run.tail_index(n) == index


def test_timings_at_reference_speed_do_not_follow_the_host_speed():
    latencies, references = [1.0, 1.2, 1.1], [4e-3, 5e-3, 4e-3, 5e-3]
    errors, setup = [None, None, None], [(0.2, 4.5e-3), (0.3, 4.5e-3), (0.25, 4.5e-3)]
    fast, _ = run.end_to_end_metrics(latencies, references, errors, setup, 40960)
    slow, _ = run.end_to_end_metrics([2 * t for t in latencies], [2 * r for r in references], errors,
                                     [(2 * t, 2 * r) for t, r in setup], 40960)
    assert fast == pytest.approx(slow)
    # the kernel took 4.5 ms on average around every op, its nominal time,
    # so each op reads as measured
    assert fast["latency_p50_ms_at_ref"] == pytest.approx(1100.0)
    assert fast["ops_per_s_at_ref"] == pytest.approx(3 / (1.0 + 1.2 + 1.1))
    assert fast["setup_s"] == pytest.approx(0.25) and fast["peak_rss_mb"] == 40.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_minimal_run_completes(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert "not traced" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "toybench-16", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
