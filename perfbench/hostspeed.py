"""Host-speed calibration of the timed passes.

On a shared host the same work can run up to twice as slow for seconds to
minutes at a time, because of other tenants, not this process, and neither
wall time nor CPU time of the process hides that. So right before each
episode of a timed pass, the benchmark times a fixed kernel: small dense
solves and products in numpy plus pure-Python float arithmetic, the same
kind of work as a controller tick but none of apfmpc's code, and times it
again right after. Every tick of that episode is scaled by `REFERENCE_S`
over the mean of the two kernel times, so the figures read as on a host
where the kernel takes `REFERENCE_S`. A host slowdown moves
tick and kernel alike and cancels out; a change to apfmpc moves the scaled
figures exactly as it moves the raw ones, because the kernel does not run
apfmpc code.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# kernel time on the 2-vCPU host the benchmark was tuned on, in a quiet spell
REFERENCE_S = 1.6e-3
KERNEL_REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((24, 24))
_A = _A @ _A.T + 24.0 * np.eye(24)
_POINTS = _rng.standard_normal((8, 2))


def _kernel_once() -> float:
    start = perf_counter()
    x, acc = np.ones(24), 0.0
    for _ in range(60):
        x = np.linalg.solve(_A, x + 1.0)
        y = np.clip(_A @ x, -1.0, 1.0)
        gap = _POINTS - y[:2]
        acc += float(np.min(np.einsum("ij,ij->i", gap, gap)))
        for px, py in _POINTS:
            acc += math.hypot(px - acc * 1e-9, py)
    return perf_counter() - start


def kernel_seconds() -> float:
    """Fastest of KERNEL_REPEATS runs of the kernel."""
    return min(_kernel_once() for _ in range(KERNEL_REPEATS))


def scale(*kernel_times: float) -> float:
    """Factor that turns a time measured between these kernel timings into
    reference-host time."""
    return REFERENCE_S / statistics.fmean(kernel_times)
