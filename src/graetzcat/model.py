"""Physical parameters, grids, field containers and structural diagnostics,
and the grouping of species into runs that the march and surface operators use.

The simulated system lives on the unit cylinder reduced by symmetry to
``(r, z) in [0,1) x (0,1)`` with the reacting surface at ``r = 1``.  Every
quantity here is dimensionless; transport constants are per species and the
temperature is carried as the last "species" with the same equation shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Contraction threshold 2/sqrt(e) for the coupled fixed-point map.
CONTRACTION_THRESHOLD = 2.0 / math.sqrt(math.e)

COMPATIBILITY_TOL = 1e-12
STEP_COUNT_TOL = 1e-9  # relative slack on t_end / dt being a whole number


@dataclass(frozen=True)
class SpeciesParams:
    """Transport and coupling constants for one species (or the temperature).

    delta is the reaction sign: -1 for consumed species, +1 for produced
    ones.  theta_s = 0 is accepted but makes the surface equation degenerate
    (no axial smoothing), which validation flags as a warning.
    """

    name: str
    beta_f: float
    gamma_s: float
    theta_s: float
    delta: int


def consecutive_runs(values: Iterable) -> tuple[tuple[object, slice], ...]:
    """Maximal runs of consecutive equal values, each a ``(value, slice)``.

    The march and the surface step group species this way, so every group
    indexes a view; equal values that are not consecutive fall in separate
    runs.
    """
    out, start = [], 0
    for value, run in itertools.groupby(values):
        stop = start + len(list(run))
        out.append((value, slice(start, stop)))
        start = stop
    return tuple(out)


def read_only_column(values: Sequence[float]) -> np.ndarray:
    """The values as a read-only (n, 1) float column, one row per species."""
    col = np.array(values, dtype=float).reshape(-1, 1)
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid: nodes r_j = j/nr, z_k = k/nz, time step dt."""

    nr: int
    nz: int
    dt: float
    t_end: float

    @property
    def dr(self) -> float:
        return 1.0 / self.nr

    @property
    def dz(self) -> float:
        return 1.0 / self.nz

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nr + 1)

    @property
    def z(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nz + 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def radial_quadrature(self) -> np.ndarray:
        """Trapezoid weights in r against r (1 - r^2), for flux and energy integrals."""
        r = self.r
        trap = np.full(self.nr + 1, self.dr)
        trap[0] = trap[-1] = self.dr / 2.0
        return r * (1.0 - r * r) * trap


@dataclass(frozen=True)
class InitialData:
    """Inlet profiles C_i0(r) and initial wall profiles C_is0(z).

    Arrays are stacked species-first: inlet has shape (ns, nr+1) and
    wall_init has shape (ns, nz+1), in species declaration order.
    """

    inlet: np.ndarray
    wall_init: np.ndarray


@dataclass(frozen=True)
class FluidField:
    """Concentrations in the cylinder at one time level.

    values has shape (ns, nr+1, nz+1).  The row at r = 1 carries the wall
    trace the field was marched against; the column at z = 0 carries the
    inlet profile (the corner (1, 0) belongs to the trace).  A marched
    field is stored station-major: values is the transposed view of an
    (ns, nz+1, nr+1) buffer, so the nr+1 nodes of a station are
    contiguous (strides[1] is the item size) and a row at fixed r is
    strided.  Readers index it and need not care; one that needs a
    contiguous array makes its own copy.
    """

    values: np.ndarray


@dataclass(frozen=True)
class ModelConfig:
    """Complete problem description handed to the solver."""

    species: tuple[SpeciesParams, ...]
    grid: Grid
    initial: InitialData
    kinetics: "object"  # KineticsModel; kept loose to avoid a cycle

    @property
    def species_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_config(cfg: ModelConfig) -> ValidationReport:
    """Check hard invariants (errors) and soft structural conditions (warnings).

    Warnings never block a run: a degenerate theta_s, an inlet/wall
    compatibility mismatch at the corner z = 0, or an unsatisfied
    contraction condition are all reported but survivable.
    """
    errors: list[str] = []
    warnings: list[str] = []

    g = cfg.grid
    nr_ok, nz_ok = g.nr >= 4, g.nz >= 4
    if not nr_ok:
        errors.append(f"grid.nr = {g.nr} is too small (need nr >= 4)")
    if not nz_ok:
        errors.append(f"grid.nz = {g.nz} is too small (need nz >= 4)")
    if not (math.isfinite(g.dt) and math.isfinite(g.t_end)):
        errors.append(f"grid.dt = {g.dt} and grid.t_end = {g.t_end} must be finite")
    elif not (g.dt > 0.0):
        errors.append(f"grid.dt = {g.dt} must be positive")
    elif g.t_end < g.dt:
        errors.append(f"grid.t_end = {g.t_end} is shorter than one step dt = {g.dt}")
    elif not (
        math.isfinite(steps := g.t_end / g.dt)
        and abs(steps - round(steps)) <= STEP_COUNT_TOL * steps
    ):
        errors.append(f"grid.t_end = {g.t_end} is not a whole number of steps dt = {g.dt}")

    if not cfg.species:
        errors.append("at least one species is required")

    for s in cfg.species:
        if not (s.beta_f > 0.0):
            errors.append(f"species.{s.name}.beta_f = {s.beta_f} must be > 0")
        if not (s.gamma_s > 0.0):
            errors.append(f"species.{s.name}.gamma_s = {s.gamma_s} must be > 0")
        if not (s.theta_s >= 0.0):
            errors.append(f"species.{s.name}.theta_s = {s.theta_s} must be >= 0")
        elif s.theta_s == 0.0:
            warnings.append(
                f"species.{s.name}.theta_s = 0 is DEGENERATE "
                "(no axial surface diffusion; convergence guarantees lapse)"
            )
        for key in ("beta_f", "gamma_s", "theta_s"):
            if getattr(s, key) == math.inf:
                errors.append(f"species.{s.name}.{key} = inf must be finite")
        if s.delta not in (-1, 1):
            errors.append(f"species.{s.name}.delta = {s.delta} must be -1 or +1")

    ns = len(cfg.species)
    inlet, wall = cfg.initial.inlet, cfg.initial.wall_init
    # an axis whose size was rejected above has no expected shape
    if nr_ok and inlet.shape != (ns, g.nr + 1):
        errors.append(
            f"inlet profiles have shape {inlet.shape}, expected {(ns, g.nr + 1)}"
        )
    if nz_ok and wall.shape != (ns, g.nz + 1):
        errors.append(
            f"wall_init profiles have shape {wall.shape}, expected {(ns, g.nz + 1)}"
        )
    if not np.all(np.isfinite(inlet)):
        errors.append("inlet profiles contain non-finite values")
    if not np.all(np.isfinite(wall)):
        errors.append("wall_init profiles contain non-finite values")

    if not errors:
        # Continuity of the data at the corner (r, z) = (1, 0): the inlet
        # trace and the initial wall value should agree there.
        for i, s in enumerate(cfg.species):
            gap = abs(float(inlet[i, -1]) - float(wall[i, 0]))
            if gap > COMPATIBILITY_TOL:
                warnings.append(
                    f"species.{s.name}: inlet(r=1) = {float(inlet[i, -1])!r} and "
                    f"wall_init(z=0) = {float(wall[i, 0])!r} differ by {gap:.3e} "
                    "(corner compatibility mismatch)"
                )
        diag = contraction_margin(cfg.species)
        if not diag.satisfied:
            warnings.append(
                f"contraction condition unsatisfied: mu = {diag.mu:.6g} "
                f">= 2/sqrt(e) = {diag.threshold:.6g}; the fixed-point "
                "iteration has no a-priori convergence guarantee"
            )

    return ValidationReport(tuple(errors), tuple(warnings))


@dataclass(frozen=True)
class ContractionDiagnostics:
    """Quantities controlling the coupling map's Lipschitz constant.

    mu = sup_i sqrt(gamma_is / beta_if) / inf_i theta_is.  The map
    contracts exactly when mu < 2/sqrt(e); margin = mu sqrt(e)/2 is the
    contraction factor at the optimal proof weight alpha^2 = 2/mu.
    """

    mu: float
    threshold: float
    margin: float
    alpha_opt: float
    satisfied: bool


def contraction_margin(params: Sequence[SpeciesParams]) -> ContractionDiagnostics:
    if not params:
        raise ValueError("contraction_margin needs at least one species")
    for s in params:
        if not (s.beta_f > 0.0):
            raise ValueError(f"species.{s.name}.beta_f must be > 0")

    sup_ratio = max(math.sqrt(s.gamma_s / s.beta_f) for s in params)
    inf_theta = min(s.theta_s for s in params)
    mu = math.inf if inf_theta == 0.0 else sup_ratio / inf_theta

    margin = mu * math.sqrt(math.e) / 2.0
    alpha_opt = math.sqrt(2.0 / mu) if mu > 0.0 else math.inf
    satisfied = mu < CONTRACTION_THRESHOLD

    # Three independent formulations of the same condition must agree.
    assert satisfied == (margin < 1.0) == (mu < CONTRACTION_THRESHOLD)

    return ContractionDiagnostics(
        mu=mu,
        threshold=CONTRACTION_THRESHOLD,
        margin=margin,
        alpha_opt=alpha_opt,
        satisfied=satisfied,
    )
