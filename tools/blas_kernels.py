"""Run the Tier-1 suite once per OpenBLAS kernel this CPU can run, and once with numpy's
AVX512 loops switched off, and print the fail matrix.

numpy's bundled OpenBLAS picks its kernel at load time, from the CPU; the
``OPENBLAS_CORETYPE`` environment variable forces another one.  The pinned
float64 digests and a few equal-bits invariants hold only under some
kernels, so this script shows which tests a machine with an older CPU would
see fail.  Each run sets the variable in its child's environment only.  A
kernel is tried when /proc/cpuinfo lists every instruction-set flag it
needs (a forced kernel that the CPU cannot run dies of SIGILL); the child
then names the kernel that really runs, read from OpenBLAS itself, so a
name OpenBLAS maps to another kernel is run once.  OpenBLAS names a
kernel by the first name mapped to it: on x86-64 the SSE3 kernel forced
as Prescott, Core2 or Opteron reports itself as Katmai.

numpy's own loops (elementwise ufuncs, reductions) pick their SIMD target at
import, from the CPU, too.  On a CPU with AVX512 the last row runs Tier-1
under OpenBLAS's own choice with ``NPY_DISABLE_CPU_FEATURES`` set to
``NUMPY_NO_AVX512``, so that numpy runs the AVX2 loops a CPU without AVX512
would run.

    python3 tools/blas_kernels.py        # about 20 s per Tier-1 run

Tier-1 is run as written (``python -m pytest -q --continue-on-collection-errors``
with ``src`` on ``PYTHONPATH``), plus ``-rfE`` so that the failing test ids
are printed.  This script is not part of Tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# OPENBLAS_CORETYPE names for x86-64 and the /proc/cpuinfo flags their kernels need,
# newest first; "pni" is cpuinfo's name for SSE3
KERNELS = {
    "SapphireRapids": {"avx512f", "avx512bw", "avx512vl", "avx512_bf16", "avx512_fp16", "amx_bf16"},
    "Cooperlake": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl", "avx512_bf16"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Zen": {"avx2", "fma"},
    "Haswell": {"avx2", "fma"},
    "Excavator": {"avx2", "fma", "fma4", "xop"},
    "Steamroller": {"avx", "fma", "fma4", "xop"},
    "Piledriver": {"avx", "fma", "fma4", "xop"},
    "Bulldozer": {"avx", "fma4", "xop"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
    "Dunnington": {"sse4_1"},
    "Penryn": {"sse4_1"},
    "Bobcat": {"ssse3", "sse4a"},
    "Barcelona": {"sse4a"},
    "Atom": {"ssse3"},
    "Core2": {"ssse3"},
    "Nano": {"pni"},
    "Opteron_SSE3": {"pni"},
    "Prescott": {"pni"},
    "Opteron": {"sse2"},
}

# numpy's dispatch targets that need AVX512; switching them off leaves its AVX2 (X86_V3) loops
NUMPY_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# run in each child with the kernel forced: one product, then the name of the kernel that ran it
PROBE = """
import ctypes, glob, os, numpy as np
np.ones((64, 64)) @ np.ones((64, 64))
lib = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
name = ctypes.CDLL(lib[0]).scipy_openblas_get_corename64_ if lib else None
if name is not None:
    name.argtypes, name.restype = [], ctypes.c_char_p
print(name().decode() if name is not None else "unknown")
"""


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines() if line.startswith("flags")), set())


def child_env(**settings: str) -> dict[str, str]:
    """This process's environment with ``src`` on PYTHONPATH and ``settings`` added."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **settings, "PYTHONPATH": f"{src}:{path}" if path else src}


def running_kernel(kernel: str) -> str | None:
    """The kernel OpenBLAS runs when ``kernel`` is forced, or None when the child dies."""
    env = child_env(OPENBLAS_CORETYPE=kernel)
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def tier1(**settings: str) -> tuple[list[str], str]:
    """The failing test ids and pytest's last summary line with ``settings`` in the environment."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE"],
        cwd=ROOT, env=child_env(**settings), capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = next((line.strip("= ") for line in reversed(lines) if line.strip()), f"exit {run.returncode}")
    return failed, summary


def show(label: str, failed: list[str], summary: str) -> None:
    print(f"{label}: {len(failed)} failed ({summary})", flush=True)
    for test_id in failed:
        print(f"  {test_id}")


def main() -> int:
    flags = cpu_flags()
    names = [name for name, needs in KERNELS.items() if needs <= flags]
    matrix = {}  # running kernel, or the numpy row -> (how it was set, failing ids, summary)
    for name in names:
        running = running_kernel(name)
        if running is None:
            print(f"{name}: the probe child died; this CPU cannot run it", flush=True)
            continue
        if running in matrix:
            matrix[running][0].append(name)
            print(f"{name}: runs {running}, already tested", flush=True)
            continue
        matrix[running] = ([name], *tier1(OPENBLAS_CORETYPE=name))
        show(f"{name}: runs {running}", *matrix[running][1:])
    if "avx512f" in flags:  # without AVX512 numpy already runs its AVX2 loops, in every row above
        setting = f"NPY_DISABLE_CPU_FEATURES={NUMPY_NO_AVX512}"
        matrix["numpy without AVX512"] = ([setting], *tier1(NPY_DISABLE_CPU_FEATURES=NUMPY_NO_AVX512))
        show(setting, *matrix["numpy without AVX512"][1:])
    print("\nkernel (forced as) | fail | pytest summary")
    for running, (forced, failed, summary) in matrix.items():
        print(f"{running} ({', '.join(forced)}) | {len(failed)} | {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
