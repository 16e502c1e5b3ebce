"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one CPU drifts: the same solve took from 1.0
to 2.2 s over five minutes on a 2-vCPU VM, in stretches of tens of seconds,
and CPU time drifts with wall time (the slow-down is not steal time).  No
median over a run of tens of seconds removes that.  The benchmark therefore
times a fixed reference job, made of the same kind of work as the solver's
march (banded Cholesky solves on small and large systems, each followed by
a few small array operations), next to every timed unit of work, and reports

    time * REFERENCE_S / (reference job's time now)

that is, the time the work would take on a CPU that runs the reference job
in ``REFERENCE_S`` seconds.  The job is part of the benchmark, not of the
solver, so a change to the solver moves the reported time and never the
reference.  The raw times are reported beside the calibrated ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

# Median time of reference_job() on the machine the bounds were set on
# (2 vCPUs of a shared x86-64 host, CPython 3.11, numpy with one BLAS thread).
REFERENCE_S = 0.1

CHUNKS = 5                                      # a job is the median of five chunks
SMALL_N, SMALL_RHS, SMALL_SOLVES = 33, 4, 600   # a 32x64 grid's march
LARGE_N, LARGE_SOLVES = 1025, 160               # a fine graetz_refine march


def _factor(n: int) -> np.ndarray:
    ab = np.empty((2, n))
    ab[0] = -1.0
    ab[1] = 2.5
    return cholesky_banded(ab)


_SMALL = _factor(SMALL_N)
_LARGE = _factor(LARGE_N)
_RHS_SMALL = np.linspace(0.0, 1.0, SMALL_N * SMALL_RHS).reshape(SMALL_RHS, SMALL_N)
_RHS_LARGE = np.linspace(0.0, 1.0, LARGE_N)


def _chunk() -> float:
    start = time.perf_counter()
    x = _RHS_SMALL
    for _ in range(SMALL_SOLVES):
        x = cho_solve_banded((_SMALL, False), x.T).T
        x = 0.25 * np.maximum(x, 0.0) + _RHS_SMALL
    field = np.empty((LARGE_SOLVES, LARGE_N))
    y = _RHS_LARGE
    for k in range(LARGE_SOLVES):
        y = cho_solve_banded((_LARGE, False), y)
        field[k] = y
        y = 0.25 * y + _RHS_LARGE
    return time.perf_counter() - start


def reference_job() -> float:
    """Seconds the fixed reference job takes now: CHUNKS times the median
    chunk, so that a single preemption does not count."""
    return CHUNKS * statistics.median(_chunk() for _ in range(CHUNKS))


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work at reference speed, given reference-job times taken
    just before and just after it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
