"""The host's speed at the moment of an op, from a fixed reference kernel.

The shared hosts this benchmark runs on change speed by up to 1.5x from one
minute to the next, for every kind of code, so wall times taken minutes
apart are not comparable.  Right before each op, and once after the last,
the client times ``reference_kernel`` ``REPEATS`` times, outside the timed
region, and keeps the median; each set-up probe does the same right after
its set-up.  The kernel is frozen here and never changes with the program:
a per-position conv with ``np.tensordot`` and a pure-Python loop, the same
kind of work that dominates the program's ops.  A time at reference speed
is the measured time scaled by ``NOMINAL_S`` / the kernel's time around it:
what it would have taken on a host where the kernel takes ``NOMINAL_S``.
A change to the program moves only the program's own time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 20
# The kernel's median time on the machine the baseline was measured on (Intel
# Xeon, 2 shared vCPUs, Python 3.11, numpy 2.4); it only fixes the scale.
NOMINAL_S = 4.5e-3

_rng = np.random.default_rng(0)
_X = _rng.random((18, 18, 3))
_K = _rng.random((3, 3, 3, 6))


def reference_kernel() -> None:
    out = np.empty((16, 16, 6))
    for a in range(16):
        for b in range(16):
            out[a, b, :] = np.tensordot(_X[a : a + 3, b : b + 3, :], _K, axes=3)
    s = 0
    for i in range(20000):
        s += i * i


def reference_s() -> float:
    """Median time of ``REPEATS`` runs of the reference kernel, now."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(latency_s: float, reference: float) -> float:
    return latency_s * NOMINAL_S / reference
