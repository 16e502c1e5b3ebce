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
they never hold full bulk fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import FluidField, InitialData, SpeciesParams

CHECK_TOL = 1e-8  # rounding slack of every bound
_EXP_CLAMP = 700.0  # exp argument above this overflows float64


@dataclass(frozen=True)
class NonnegViolation:
    species: int
    where: str  # "fluid" or "wall"
    index: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class NonnegReport:
    passed: bool
    violation_count: int
    violations: tuple[NonnegViolation, ...]  # capped listing, worst first

    MAX_LISTED = 32

    @classmethod
    def merge(cls, reports: Sequence["NonnegReport"]) -> "NonnegReport":
        count = sum(r.violation_count for r in reports)
        listed = [v for r in reports for v in r.violations]
        listed.sort(key=lambda v: v.value)
        return cls(
            passed=count == 0,
            violation_count=count,
            violations=tuple(listed[: cls.MAX_LISTED]),
        )


def check_nonnegativity(
    fluid: FluidField, wall: np.ndarray, fluid_min: np.ndarray
) -> NonnegReport:
    """List every grid point of the field and the wall (ns, nz+1) more negative than -CHECK_TOL.

    fluid_min holds the field's per-species minima, which the caller has
    already reduced for its snapshot.
    """
    fv = fluid.values
    # the usual case, clean: two small reductions instead of two index scans
    # (a NaN minimum fails the test and takes the scan)
    if fluid_min.min() >= -CHECK_TOL and wall.min() >= -CHECK_TOL:
        return NonnegReport(passed=True, violation_count=0, violations=())
    violations: list[NonnegViolation] = []
    for i, j, k in zip(*np.nonzero(fv < -CHECK_TOL)):
        violations.append(
            NonnegViolation(int(i), "fluid", (int(j), int(k)), float(fv[i, j, k]))
        )
    for i, k in zip(*np.nonzero(wall < -CHECK_TOL)):
        violations.append(NonnegViolation(int(i), "wall", (int(k),), float(wall[i, k])))
    violations.sort(key=lambda v: v.value)
    return NonnegReport(
        passed=not violations,
        violation_count=len(violations),
        violations=tuple(violations[: NonnegReport.MAX_LISTED]),
    )


@dataclass(frozen=True)
class EnvelopeCheck:
    species: str
    item: str  # "upper_bound" | "lower_bound" | "exp_bound"
    passed: bool
    worst: float  # most violating margin, 0 when clean
    t_worst: Optional[float]


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
    bound is relaxed by CHECK_TOL.  A verdict reports the largest positive
    gap and the earliest snapshot whose gap is within CHECK_TOL of it: a
    plateau reports its start, which a last-bit change along it cannot
    move.
    """
    times = [snap.time for snap in trajectory]

    def verdict(name: str, item: str, gaps) -> EnvelopeCheck:
        positive = [(gap, t) for gap, t in zip(gaps, times) if gap > 0.0]
        if not positive:
            return EnvelopeCheck(name, item, True, 0.0, None)
        worst = max(gap for gap, _ in positive)
        t_at = next(t for gap, t in positive if gap >= worst - CHECK_TOL)
        return EnvelopeCheck(name, item, False, worst, t_at)

    a0_max, a0_min = initial.sup, initial.inf
    checks: list[EnvelopeCheck] = []
    for i, s in enumerate(params):
        high = [max(float(snap.fluid_max[i]), float(snap.wall[i].max())) for snap in trajectory]
        a0 = float(a0_max[i])
        if s.delta == -1:
            checks.append(verdict(s.name, "upper_bound", [h - (a0 + CHECK_TOL) for h in high]))
            continue
        floor = float(a0_min[i]) - CHECK_TOL
        low = [min(float(snap.fluid_min[i]), float(snap.wall[i].min())) for snap in trajectory]
        checks.append(verdict(s.name, "lower_bound", [floor - v for v in low]))
        bounds = [a0 * math.exp(min(lam * t, _EXP_CLAMP)) + CHECK_TOL for t in times]
        checks.append(verdict(s.name, "exp_bound", [h - b for h, b in zip(high, bounds)]))
    return checks


@dataclass(frozen=True)
class EnergyGrowthReport:
    """Surface energy E_is(t) = int C_is^2 dz and its fitted affine envelope."""

    wall_energy: np.ndarray       # (ns, nt)
    slope: np.ndarray             # (ns,) envelope slope a
    intercept: np.ndarray         # (ns,) envelope intercept b = E(0)


def energy_growth_report(trajectory: Sequence) -> EnergyGrowthReport:
    """Fit the minimal affine envelope a t + b over the wall energy series.

    b is pinned to the initial energy and a = max_k (E(t_k) - b) / t_k, the
    smallest slope whose line dominates every sample: a fit, which
    dominates its samples by construction, not a check.
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

    intercept = energy[:, 0].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (energy[:, 1:] - intercept[:, None]) / times[None, 1:]
    slope = np.maximum(ratios.max(axis=1), 0.0)

    return EnergyGrowthReport(wall_energy=energy, slope=slope, intercept=intercept)
