"""Physical parameters, grids, field containers and structural diagnostics.

The simulated system lives on the unit cylinder reduced by symmetry to
``(r, z) in [0,1) x (0,1)`` with the reacting surface at ``r = 1``.  Every
quantity here is dimensionless; transport constants are per species and the
temperature is carried as the last "species" with the same equation shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Contraction threshold 2/sqrt(e) for the coupled fixed-point map.
CONTRACTION_THRESHOLD = 2.0 / math.sqrt(math.e)

COMPATIBILITY_TOL = 1e-12
STEP_COUNT_TOL = 1e-9  # relative slack on t_end / dt being a whole number
# Bytes a run or a refinement study may hold in what grows with its input:
# a run's one march field plus its trajectory, a study's largest field.
BYTE_BUDGET = 1 << 29


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


def species_errors(params: Sequence[SpeciesParams]) -> list[str]:
    """One message if there are no species, and one per species field out
    of its range, in order: the name an identifier and unlike every earlier
    species' name (it goes unquoted into CSV headers and KEY=VALUE lines),
    beta_f and gamma_s finite and > 0, theta_s finite and >= 0, delta -1 or
    +1 (NaN is in no range).  The operator builders raise ValueError with
    the first."""
    none = [] if params else ["at least one species is required"]
    names = [s.name for s in params]
    return none + [
        f"species.{s.name}.{key} = {getattr(s, key)} must be {rule}"
        for i, s in enumerate(params)
        for key, ok, rule in (
            ("name", s.name.isidentifier(), "an identifier"),
            ("name", s.name not in names[:i], "unique"),
            ("beta_f", 0.0 < s.beta_f < math.inf, "finite and > 0"),
            ("gamma_s", 0.0 < s.gamma_s < math.inf, "finite and > 0"),
            ("theta_s", 0.0 <= s.theta_s < math.inf, "finite and >= 0"),
            ("delta", s.delta in (-1, 1), "-1 or +1"),
        )
        if not ok
    ]


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


def march_field_bytes(ns: int, nr: int, nz: int) -> int:
    """Bytes of one march field: ns float64 values on (nr + 1) x (nz + 1) nodes."""
    return 8 * ns * (nr + 1) * (nz + 1)


def grid_errors(grid: Grid, ns: int) -> list[str]:
    """One message per broken grid rule for a run of ns species, in order:
    nr and nz at least 4; dt and t_end finite, dt > 0, t_end at least one
    step and a whole number of steps; and, on a grid that passes those, one
    march field plus the trajectory within BYTE_BUDGET.  Only integer
    arithmetic on the sizes, so nothing grid-sized is allocated."""
    g = grid
    errors: list[str] = []
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
    elif nr_ok and nz_ok:
        # one march field at a time, and per level a snapshot's time, wall
        # and per-species extrema
        field = march_field_bytes(ns, g.nr, g.nz)
        trajectory = (g.n_steps + 1) * 8 * (1 + ns * (g.nz + 3))
        if field + trajectory > BYTE_BUDGET:
            errors.append(
                f"a {g.nr}x{g.nz} run of {g.n_steps} steps takes {field} bytes of march "
                f"field and {trajectory} bytes of trajectory, over the "
                f"{BYTE_BUDGET}-byte budget"
            )
    return errors


@dataclass(frozen=True)
class InitialData:
    """Inlet profiles C_i0(r) and initial wall profiles C_is0(z).

    Arrays are stacked species-first: inlet has shape (ns, nr+1) and
    wall_init has shape (ns, nz+1), in species declaration order.
    """

    inlet: np.ndarray
    wall_init: np.ndarray

    @property
    def sup(self) -> np.ndarray:
        """(ns,) the sup of each species' inlet and initial wall data."""
        return np.maximum(self.inlet.max(axis=1), self.wall_init.max(axis=1))

    @property
    def inf(self) -> np.ndarray:
        """(ns,) the inf of each species' inlet and initial wall data."""
        return np.minimum(self.inlet.min(axis=1), self.wall_init.min(axis=1))


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
    contraction condition are all reported but survivable.  The grid is
    held to ``grid_errors``, and the profile shapes are checked only on a
    grid it accepts.
    """
    warnings: list[str] = []

    g = cfg.grid
    ns = len(cfg.species)
    grid = grid_errors(g, ns)
    errors = grid + species_errors(cfg.species)
    for s in cfg.species:
        if s.theta_s == 0.0:
            warnings.append(
                f"species.{s.name}.theta_s = 0 is DEGENERATE "
                "(no axial surface diffusion; convergence guarantees lapse)"
            )

    inlet, wall = cfg.initial.inlet, cfg.initial.wall_init
    if not grid:  # a rejected grid has no expected profile shape
        if inlet.shape != (ns, g.nr + 1):
            errors.append(f"inlet profiles have shape {inlet.shape}, expected {(ns, g.nr + 1)}")
        if wall.shape != (ns, g.nz + 1):
            errors.append(f"wall_init profiles have shape {wall.shape}, expected {(ns, g.nz + 1)}")
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
    if errors := species_errors(params):
        raise ValueError(errors[0])

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
