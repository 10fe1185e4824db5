"""``main`` fixes glibc's heap thresholds once per process, and ``-v`` logs each command's cost."""

import logging
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from interactive import ActivenessRequest, RasterImage, forward, generate_model, neuron_activeness, write_image
from interactive import cli
from interactive.cli import EXIT_OK, main

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20  # bytes: SHAPE_GUARD float64 values, and twice that


@pytest.fixture()
def fresh_heap_helper():
    # the helper runs once per process; each test starts and ends with an empty cache, so the next
    # ``main`` sets the real thresholds again after a test that replaced libc
    cli._keep_heap.cache_clear()
    yield
    cli._keep_heap.cache_clear()


def gen_model(path):
    return main(["gen-model", "--arch", "tiny-2conv", "--out", str(path)])


@pytest.mark.skipif(not GLIBC, reason="the heap thresholds are set through glibc's mallopt")
def test_repeated_activeness_ops_do_not_fault_their_arrays_in_again(tmp_path, fresh_heap_helper):
    model, image = tmp_path / "m.model", tmp_path / "img.ppm"
    assert main(["gen-model", "--arch", "toy-cnn", "--input", "224", "224", "3", "--out", str(model)]) == EXIT_OK
    rng = np.random.default_rng(0)
    write_image(RasterImage(pixels=rng.integers(0, 256, size=(200, 300, 3), dtype=np.uint8)), image)
    argv = ["activeness", "--model", str(model), "--image", str(image), "--layer", "input",
            "--heatmap", str(tmp_path / "hm.pgm"), "--features", str(tmp_path / "f.bin")]
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == EXIT_OK
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # with glibc's dynamic thresholds the heap is trimmed after each op and the next op faults
    # its megabyte arrays in again, 4000-6000 faults per op; kept, the third op takes almost none
    assert faults[2] < 500, faults


@pytest.mark.parametrize("libc", [OSError("no libc.so.6"), types.SimpleNamespace()], ids=["no-libc", "no-mallopt"])
def test_main_runs_where_mallopt_is_missing(tmp_path, monkeypatch, caplog, fresh_heap_helper, libc):
    def load(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr("interactive.cli.ctypes.CDLL", load)
    caplog.set_level(logging.DEBUG, logger="interactive")
    assert gen_model(tmp_path / "m.model") == EXIT_OK
    assert [r.getMessage() for r in caplog.records if "malloc" in r.getMessage()] == ["malloc thresholds: not available"]


def test_thresholds_are_set_once_per_process(tmp_path, monkeypatch, caplog, fresh_heap_helper):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda option, value: calls.append((option, value)) or 1)
    monkeypatch.setattr("interactive.cli.ctypes.CDLL", lambda name: libc)
    caplog.set_level(logging.DEBUG, logger="interactive")
    assert gen_model(tmp_path / "a.model") == EXIT_OK
    assert gen_model(tmp_path / "b.model") == EXIT_OK
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert calls == [(-3, MMAP_THRESHOLD), (-1, TRIM_THRESHOLD)]
    lines = [r.getMessage() for r in caplog.records if "malloc" in r.getMessage()]
    assert lines == [f"malloc thresholds: mmap {MMAP_THRESHOLD}, trim {TRIM_THRESHOLD}"]


def test_info_level_logs_each_commands_cost(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="interactive")
    assert gen_model(tmp_path / "m.model") == EXIT_OK
    costs = [r.getMessage() for r in caplog.records if " took " in r.getMessage()]
    assert len(costs) == 1 and costs[0].startswith("gen-model took ") and costs[0].endswith(" minor page faults")


def test_cost_is_not_read_below_info(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr("resource.getrusage", lambda who: pytest.fail("getrusage read at WARNING level"))
    caplog.set_level(logging.WARNING, logger="interactive")
    assert gen_model(tmp_path / "m.model") == EXIT_OK


def test_debug_run_logs_the_thresholds_and_the_cost(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "interactive", "-vv", "gen-model", "--arch", "tiny-2conv", "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    lines = run.stderr.splitlines()
    heap = f"mmap {MMAP_THRESHOLD}, trim {TRIM_THRESHOLD}" if GLIBC else "not available"
    assert lines.count(f"DEBUG interactive: malloc thresholds: {heap}") == 1, lines
    assert sum(line.startswith("INFO interactive: gen-model took ") for line in lines) == 1, lines


# Most bytes, by tracemalloc, that one 224x224 activeness pass allocates above what
# it was handed: ``_prepare_input`` on a 300x200 colour image (resampled in), the
# forward pass on toy-cnn seed 0 and ``neuron_activeness`` at the input, with the
# trace held to the end, as the test below measures it (Python 3.11, numpy 2.4),
# before the kernels kept the channel axis out of numpy's inner loop: the highest
# of eleven runs, which read 12,183,710-12,183,824 B.
ACTIVENESS_224_PEAK = 12_183_824
# Python's small-object free lists move that figure by tens of bytes from run to
# run; one more array of a single 224-pixel row of three channels is 5,376 B.
SMALL_OBJECT_SLACK = 1024


def test_activeness_pass_at_224_peak_no_higher_than_before_the_layout_rewrites():
    spec = generate_model("toy-cnn", seed=0, input_shape=(224, 224, 3))
    img = RasterImage(pixels=np.random.default_rng(0).integers(0, 256, size=(200, 300, 3), dtype=np.uint8))

    def activeness_pass():
        trace = forward(spec, cli._prepare_input(img, spec, 128.0).array)
        neuron_activeness(spec, trace, ActivenessRequest(target_layer=0))
        return tracemalloc.get_traced_memory()[1]

    activeness_pass()  # numpy's first calls fill caches of their own, which are not the pass's arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        peak = activeness_pass() - before
    finally:
        tracemalloc.stop()
    assert peak <= ACTIVENESS_224_PEAK + SMALL_OBJECT_SLACK
