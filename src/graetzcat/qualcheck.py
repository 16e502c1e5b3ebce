"""Runtime checkers for the qualitative properties of computed trajectories.

These turn the a-priori statements about the continuous solution into
assertions over solver output: nonnegativity, the upper envelope for
consumed species, and the lower bound and exponential envelope for produced
species.  The schemes in this package are monotone, so a violation of the
nonnegativity, upper or lower bounds beyond the small tolerance CHECK_TOL
indicates a bug rather than discretization error.  The exponential envelope
of a produced species is the exception: it starts from the sup of that
species' own data, so a species with zero data has a zero envelope and any
production of it violates the envelope by construction.

The affine-in-time growth of the surface energy is a fit, not an assertion:
its slope is the smallest one whose line dominates the samples, so it is
reported and never checked.

Checkers only need per-snapshot reductions (wall vectors and bulk min/max);
they never hold full bulk fields.  A species' low and high at a level are
the min and max of its bulk extrema and wall values, and a value that is not
finite makes them non-finite: such a level breaks every bound of that
species by an infinite gap, as a non-finite rate breaks H1-H3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import InitialData, SpeciesParams

CHECK_TOL = 1e-8  # rounding slack of every bound
_EXP_CLAMP = 700.0  # exp argument above this overflows float64


def _extremes(trajectory: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each species' low and high at each level, (levels, ns) each, and
    where both are finite: a NaN anywhere makes both NaN, an inf makes one
    infinite."""
    walls = np.stack([s.wall for s in trajectory])  # (levels, ns, nz+1)
    low = np.minimum(np.stack([s.fluid_min for s in trajectory]), walls.min(axis=2))
    high = np.maximum(np.stack([s.fluid_max for s in trajectory]), walls.max(axis=2))
    return low, high, np.isfinite(low) & np.isfinite(high)


def _violations(
    excess: np.ndarray, finite: np.ndarray
) -> Optional[tuple[int, float, tuple[int, ...]]]:
    """Where a bound is broken, levels first, or None when it holds.

    A level breaks it by its excess over the bound, or by inf where the
    level is not finite.  Returns how many entries break it, the largest
    gap, and the index of the earliest entry within CHECK_TOL of that gap:
    a plateau reports its start, which a last-bit change along it cannot
    move.
    """
    gaps = np.where(finite, excess, np.inf)
    broken = gaps > 0.0
    if not broken.any():
        return None
    worst = float(gaps[broken].max())
    at = np.unravel_index(np.argmax(broken & (gaps >= worst - CHECK_TOL)), gaps.shape)
    return int(np.count_nonzero(broken)), worst, tuple(int(i) for i in at)


@dataclass(frozen=True)
class NonnegReport:
    """How many (species, level) pairs fall below -CHECK_TOL or are not
    finite, and the worst one: its species index, its gap below -CHECK_TOL
    (0 when clean) and its time."""

    violation_count: int
    species: Optional[int]
    worst: float
    t_worst: Optional[float]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def check_nonnegativity(trajectory: Sequence) -> NonnegReport:
    """Judge every species' low at every level against -CHECK_TOL.

    The low is the min of the level's bulk minimum and its wall, so the
    bound covers every node of the field and the wall; a level that is not
    finite fails it too.  The worst point is the one ``_violations`` picks.
    """
    low, _, finite = _extremes(trajectory)
    hit = _violations(-CHECK_TOL - low, finite)
    if hit is None:
        return NonnegReport(0, None, 0.0, None)
    count, worst, (k, i) = hit
    return NonnegReport(count, i, worst, trajectory[k].time)


@dataclass(frozen=True)
class EnvelopeCheck:
    species: str
    item: str  # "upper_bound" | "lower_bound" | "exp_bound"
    passed: bool
    worst: float  # most violating margin, 0 when clean
    t_worst: Optional[float]


# inf - inf, an infinite high against an overflowed exponential bound, is
# judged by _violations (the level is not finite), not warned about
@np.errstate(invalid="ignore")
def check_envelopes(
    trajectory: Sequence,
    initial: InitialData,
    lam: float,
    params: Sequence[SpeciesParams],
) -> list[EnvelopeCheck]:
    """Per-species verdicts for the data-derived bounds along a trajectory.

    The bounds start from a_i0_max and a_i0_min, the sup and the inf of
    each species' inlet and initial wall data (``initial.sup`` and
    ``initial.inf``).  Consumed species (delta = -1) must stay below
    a_i0_max; produced species (delta = +1) must stay above a_i0_min and
    below a_i0_max * exp(lam t).  Snapshots provide wall vectors and bulk
    min/max, which is exactly the information the bounds constrain; each
    bound is relaxed by CHECK_TOL.  A verdict reports the worst point that
    ``_violations`` picks.
    """
    times = [snap.time for snap in trajectory]
    low, high, finite = _extremes(trajectory)

    def verdict(i: int, item: str, excess: np.ndarray) -> EnvelopeCheck:
        hit = _violations(excess, finite[:, i])
        if hit is None:
            return EnvelopeCheck(params[i].name, item, True, 0.0, None)
        _, worst, (k,) = hit
        return EnvelopeCheck(params[i].name, item, False, worst, times[k])

    a0_max, a0_min = initial.sup, initial.inf
    checks: list[EnvelopeCheck] = []
    for i, s in enumerate(params):
        a0 = float(a0_max[i])
        if s.delta == -1:
            checks.append(verdict(i, "upper_bound", high[:, i] - (a0 + CHECK_TOL)))
            continue
        checks.append(verdict(i, "lower_bound", (float(a0_min[i]) - CHECK_TOL) - low[:, i]))
        bounds = [a0 * math.exp(min(lam * t, _EXP_CLAMP)) + CHECK_TOL for t in times]
        checks.append(verdict(i, "exp_bound", high[:, i] - np.array(bounds)))
    return checks


def energy_growth_report(trajectory: Sequence) -> np.ndarray:
    """The slopes (ns,) of the minimal affine envelopes a t + E(0) over each
    species' surface energy E_is(t) = int C_is^2 dz.

    a = max_k (E(t_k) - E(0)) / t_k, the smallest slope whose line through
    E(0) dominates every sample: a fit, which dominates its samples by
    construction, not a check.
    """
    if len(trajectory) < 2:
        raise ValueError("energy growth needs at least two time levels")
    times = np.array([snap.time for snap in trajectory])
    walls = np.stack([snap.wall for snap in trajectory], axis=-1)  # (ns, nz+1, nt)
    nn = walls.shape[1]
    dz = 1.0 / (nn - 1)
    trap = np.full(nn, dz)
    trap[0] = trap[-1] = dz / 2.0
    energy = np.einsum("izt,z->it", np.square(walls, out=walls), trap)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (energy[:, 1:] - energy[:, :1]) / times[None, 1:]
    return np.maximum(ratios.max(axis=1), 0.0)
