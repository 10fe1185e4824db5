"""Acceptance suite: one test per exit criterion, tolerances pinned.

Each test prints a [PASS] line on success (run with ``pytest -v -s`` to
see them); a failed assertion marks the criterion red.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import interactive
from interactive import (
    ActivenessRequest,
    connection_activeness,
    enumerate_gamma,
    forward,
    generate_model,
    layer_score,
    load_model,
    neuron_activeness,
    receptive_sets,
    save_model,
)
from interactive.activeness import valid_targets
from interactive.image import resize_dims
from interactive.oracle import fd_connection_check

from conftest import random_input

TINY_NETS = (("tiny-2conv", 1), ("tiny-2conv", 2), ("tiny-3conv", 3))
COMBOS = tuple((sup, p) for sup in ("last", "next") for p in (1, 2))

# frozen on the first verified run: toy-cnn(seed 0) on the seed-0 toy
# dataset; accuracies over the 24 test samples, stored as 24ths
TOYBENCH_SNAPSHOT = {
    ("input", "orig-avg"): 6, ("input", "orig-max"): 9, ("input", "next-p1"): 11,
    ("input", "next-p2"): 12, ("input", "last-p1"): 12, ("input", "last-p2"): 13,
    ("pool-1", "orig-avg"): 10, ("pool-1", "orig-max"): 15, ("pool-1", "next-p1"): 13,
    ("pool-1", "next-p2"): 14, ("pool-1", "last-p1"): 16, ("pool-1", "last-p2"): 15,
    ("pool-2", "orig-avg"): 23, ("pool-2", "orig-max"): 16, ("pool-2", "next-p1"): 22,
    ("pool-2", "next-p2"): 21, ("pool-2", "last-p1"): 22, ("pool-2", "last-p2"): 21,
}


def seeded_nets():
    for arch, seed in TINY_NETS:
        spec = generate_model(arch, seed)
        trace = forward(spec, random_input(spec, seed=seed + 500))
        yield arch, seed, spec, trace


def test_criterion_1_gradient_correctness():
    """Engine connection activeness vs central finite differences, <= 1e-4."""
    t_start = time.monotonic()
    worst = 0.0
    for arch, seed, spec, trace in seeded_nets():
        targets = valid_targets(spec)
        rng = np.random.default_rng(seed + 900)
        groups = {}
        for j in range(200):
            sup, p = COMBOS[j % 4]
            t = targets[j % len(targets)]
            conn = receptive_sets(spec, t)
            wp, hp, dp = (int(rng.integers(s)) for s in conn.out_shape)
            sources = conn.v_set(wp, hp, dp)
            w, h, d = sources[int(rng.integers(len(sources)))]
            groups.setdefault((t, sup, p), []).append((w, h, d, wp, hp, dp))
        compared = skipped = 0
        for (t, sup, p), samples in groups.items():
            request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
            engines = connection_activeness(spec, trace, request, samples)
            fds = fd_connection_check(spec, trace, request, samples)
            for sample, engine, fd in zip(samples, engines, fds):
                if fd is None:
                    skipped += 1
                    continue
                compared += 1
                scale = max(abs(engine), abs(fd))
                if scale > 1e-6:
                    rel = abs(engine - fd) / scale
                    worst = max(worst, rel)
                    assert rel <= 1e-4, f"{arch} seed {seed}: rel err {rel:.3e} at {sample} ({sup}, p={p})"
                else:
                    assert abs(engine - fd) <= 1e-7
        assert compared >= 150, f"only {compared} comparable samples ({skipped} kink-skipped)"
    elapsed = time.monotonic() - t_start
    assert elapsed <= 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: gradient correctness (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_enumeration_equivalence():
    """neuron_activeness gamma equals literal U-set enumeration within 1e-10."""
    worst = 0.0
    for arch, seed, spec, trace in seeded_nets():
        for t in valid_targets(spec):
            for sup, p in COMBOS:
                request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
                engine = neuron_activeness(spec, trace, request).gamma
                brute = enumerate_gamma(spec, trace, t, [(sup, p)])[:, :, 0]
                diff = float(np.abs(engine - brute).max())
                worst = max(worst, diff)
                assert diff <= 1e-10, f"{arch} seed {seed}, t={t}, {sup}, p={p}: diff {diff:.2e}"
    print(f"\n[PASS] criterion 2: enumeration equivalence (max abs diff {worst:.2e})")


def test_criterion_3_analytic_layer_score():
    """p=1 exactly uniform 1/(W*H); p=2 equals (2/(W*H)) * channel mean, 1e-12."""
    rng = np.random.default_rng(123)
    tensors = [rng.uniform(0, 4, size=tuple(rng.integers(1, 7, size=3))) for _ in range(20)]
    for _, _, spec, trace in seeded_nets():
        tensors.append(trace[len(spec.layers)])
    for xt in tensors:
        w, h, d = xt.shape
        uniform = layer_score(xt, p=1)
        assert np.all(uniform == 1.0 / (w * h))
        xbar = xt.mean(axis=(0, 1))
        expected = np.broadcast_to(2.0 / (w * h) * xbar, (w, h, d))
        assert np.abs(layer_score(xt, p=2) - expected).max() <= 1e-12
    print(f"\n[PASS] criterion 3: analytic layer score on {len(tensors)} tensors")


def test_criterion_4_structural_identity():
    """activeness == response * gamma exactly; U-set sums match within 1e-12."""
    for arch, seed, spec, trace in seeded_nets():
        rng = np.random.default_rng(seed + 321)
        for t in valid_targets(spec):
            conn = receptive_sets(spec, t)
            for sup, p in COMBOS:
                request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
                result = neuron_activeness(spec, trace, request)
                assert np.array_equal(
                    result.activeness, trace[t] * result.gamma
                )
                for _ in range(4):
                    w, h, d = (int(rng.integers(s)) for s in conn.in_shape)
                    connections = [(w, h, d, wp, hp, dp) for wp, hp, dp in conn.u_set(w, h, d)]
                    total = sum(connection_activeness(spec, trace, request, connections))
                    assert abs(total - result.activeness[w, h, d]) <= 1e-12
    print("\n[PASS] criterion 4: structural identity (exact product, U-sum <= 1e-12)")


def test_criterion_5_next_gamma_nonnegative():
    """next-configuration gamma >= 0 elementwise across 100 random inputs."""
    spec = generate_model("tiny-2conv", seed=1)
    targets = valid_targets(spec)
    for i in range(100):
        trace = forward(spec, random_input(spec, seed=7000 + i))
        for t in targets:
            for p in (1, 2):
                request = ActivenessRequest(target_layer=t, supervision="next", p=p)
                assert neuron_activeness(spec, trace, request).gamma.min() >= 0.0
    print("\n[PASS] criterion 5: next-config gamma nonnegative on 100 inputs")


def test_criterion_6_resize_protocol():
    """Fixed resize cases plus divisibility over 1000 random sizes."""
    assert resize_dims(1000, 600) == (672, 384)
    assert resize_dims(512, 512) == (512, 512)
    assert resize_dims(10, 10) == (32, 32)
    rng = np.random.default_rng(606)
    for _ in range(1000):
        w, h = int(rng.integers(1, 5000)), int(rng.integers(1, 5000))
        ow, oh = resize_dims(w, h)
        assert ow % 32 == 0 and oh % 32 == 0 and ow >= 32 and oh >= 32
    print("\n[PASS] criterion 6: resize protocol (3 fixed cases + 1000 random sizes)")


# the src/ directory this suite imports; a relative PYTHONPATH entry such
# as "src" stops resolving once the child starts in another directory
SRC_DIR = Path(interactive.__file__).resolve().parent.parent


def _run_cli(*args, cwd):
    # the child inherits the environment unchanged, except that this
    # checkout's src/ goes first on PYTHONPATH, ahead of any installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "interactive", *args], cwd=cwd, env=env, capture_output=True,
        timeout=300,
    )
    return proc


def test_criterion_7_determinism_and_round_trip(tmp_path):
    """Model files round-trip bit-exactly; CLI runs are byte-identical."""
    from test_model_io import specs_equal

    for arch, seed in TINY_NETS:
        spec = generate_model(arch, seed)
        path = tmp_path / f"{arch}-{seed}.model"
        save_model(spec, path)
        assert specs_equal(spec, load_model(path))
        second = tmp_path / f"{arch}-{seed}-b.model"
        save_model(load_model(path), second)
        assert path.read_bytes() == second.read_bytes()

    from interactive import RasterImage, write_image

    # identical flags in two fresh working directories must produce
    # byte-identical files and stdout
    rng = np.random.default_rng(3)
    image = RasterImage(pixels=rng.integers(0, 256, size=(20, 26, 3), dtype=np.uint8))
    dirs = []
    for i in (0, 1):
        d = tmp_path / f"run{i}"
        d.mkdir()
        save_model(generate_model("tiny-2conv", seed=7), d / "m.model")
        write_image(image, d / "img.ppm")
        dirs.append(d)
    runs = {
        "gen-model": ["gen-model", "--arch", "tiny-3conv", "--seed", "7", "--out", "gen.model"],
        "activeness": ["activeness", "--model", "m.model", "--image", "img.ppm", "--layer",
                       "pool-1", "--heatmap", "hm.pgm", "--features", "f.bin"],
        "gradcheck": ["gradcheck", "--model", "m.model", "--seed", "2", "--samples", "80"],
        "toybench": ["toybench", "--model", "m.model", "--dataset-seed", "1", "--out",
                     "r.txt", "--json", "j.json"],
    }
    outputs = {
        "gen-model": ["gen.model"],
        "activeness": ["hm.pgm", "f.bin"],
        "gradcheck": [],
        "toybench": ["r.txt", "j.json"],
    }
    for name, argv in runs.items():
        produced = []
        for d in dirs:
            proc = _run_cli(*argv, cwd=d)
            assert proc.returncode == 0, f"{name} in {d} failed: {proc.stderr.decode()}"
            blob = b"".join((d / f).read_bytes() for f in outputs[name])
            produced.append(blob + proc.stdout)
        assert produced[0] == produced[1], f"{name} runs differ"
    print("\n[PASS] criterion 7: determinism and round-trip (4 subcommands, bit-exact)")


def test_criterion_8_pipeline_smoke(tmp_path):
    """toybench completes well under budget with the frozen snapshot table."""
    t0 = time.monotonic()
    model = tmp_path / "toy.model"
    save_model(generate_model("toy-cnn", seed=0), model)
    proc = _run_cli(
        "toybench", "--model", str(model), "--dataset-seed", "0",
        "--out", str(tmp_path / "report.txt"), cwd=tmp_path,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    assert elapsed <= 300.0, f"toybench took {elapsed:.0f}s"
    lines = (tmp_path / "report.txt").read_text().splitlines()
    rows = [line.split() for line in lines[2:]]
    per_layer = {}
    for layer, config, dims, acc in rows:
        per_layer.setdefault(layer, []).append(config)
        assert round(float(acc) * 24) == TOYBENCH_SNAPSHOT[(layer, config)], (layer, config, acc)
    assert set(per_layer) == {"input", "pool-1", "pool-2"}
    for configs in per_layer.values():
        assert len(configs) == 6
    print(f"\n[PASS] criterion 8: pipeline smoke ({elapsed:.1f}s, snapshot matched)")
