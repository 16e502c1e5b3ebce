"""Time stepping with a per-step fixed-point coupling of bulk and surface.

Each accepted step realizes the composition "march the bulk against a wall
iterate, extract the wall gradient, advance the surface" and repeats it
until the wall stops moving in sup norm.  When the contraction diagnostics
are satisfied the residuals shrink geometrically; either way the iteration
is capped and a non-converged step raises with its residual history.

Reaction rates are lagged to the previous time level; the wall gradient is
the coupling variable, so at convergence the flux term is implicit.

The bulk equation has no time derivative, so the bulk field at a level is
the march of that level's wall: the state that evolves is the wall alone.
A Picard iterate's field lives only until its flux is taken, and each
recorded level marches its own wall once for its flux and extrema, so one
field is alive at a time.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fluid_march import (
    MarchOperator,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from .kinetics import HypothesisReport, KineticsModel, estimate_lipschitz, eval_rates, verify_hypotheses
from .model import (
    ContractionDiagnostics,
    FluidField,
    InitialData,
    ModelConfig,
    contraction_margin,
    validate_config,
)
from .qualcheck import (
    EnvelopeCheck,
    NonnegReport,
    check_envelopes,
    check_nonnegativity,
    energy_growth_report,
)
from .wall_evolve import SurfaceOperator, step_wall, surface_operator, surface_rhs, surface_step

log = logging.getLogger("graetzcat")

SETTLE_TOL = 1e-8  # sup |dC_is/dt| below which the evolution counts as over


@dataclass(frozen=True)
class CouplerSettings:
    tol: float = 1e-10
    max_iter: int = 50
    flux_form: str = "gradient"  # or "integral"
    relaxation: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        max_iter = self.max_iter  # a bool is an Integral, but no iteration count
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, not {max_iter!r}")
        if self.flux_form not in ("gradient", "integral"):
            raise ValueError(f"unknown flux_form {self.flux_form!r}")
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must lie in (0, 1]")


@dataclass(frozen=True)
class CouplingState:
    """The wall (ns, nz+1) at one accepted time level, and the residuals of
    the step that reached it; the bulk field is the march of this wall."""

    time: float
    wall: np.ndarray
    residual_history: tuple[float, ...]

    @property
    def iterations_last_step(self) -> int:
        return len(self.residual_history)


class NonConvergedError(RuntimeError):
    """The fixed-point loop hit max_iter with the residual above tol, or the
    residual stopped being finite.

    The advice follows the residuals: a damped map falls by no more than a
    factor 1 - relaxation per iteration, so while they still fall a lower
    relaxation only slows the step, and max_iter or dt is what to change.
    """

    def __init__(self, time: float, step_index: int, residuals: tuple[float, ...]):
        self.time = time
        self.step_index = step_index
        self.residuals = residuals
        last = residuals[-1]
        if math.isfinite(last) and (len(residuals) == 1 or last < residuals[-2]):
            advice = "residuals still falling: raise max_iter or reduce dt"
        else:
            advice = "reduce dt or the relaxation factor"
        super().__init__(
            f"coupling did not converge at step {step_index} (t = {time:.6g}); "
            f"last residual {last:.3e} after {len(residuals)} iterations ({advice})"
        )


def _flux_of(form: str, fluid: FluidField, march_op: MarchOperator) -> np.ndarray:
    if form == "gradient":
        return wall_flux_gradient(fluid)
    return wall_flux_integral(fluid, march_op)


def advance_step(
    state: CouplingState,
    init: InitialData,
    settings: CouplerSettings,
    march_op: MarchOperator,
    surface_op: SurfaceOperator,
    kinetics: KineticsModel,
    initial_guess: Optional[np.ndarray] = None,
) -> CouplingState:
    """Advance the coupled system one surface_op.dt by damped fixed-point iteration.

    The operators are the run's, built for its species and grid.  The step
    is the k-th, k = round(state.time / dt) + 1, the index a non-converged
    step reports.  The iteration starts from the previous wall (or an
    explicit guess: the converged answer must not depend on it, which the
    uniqueness probe exercises).  Rates are evaluated once, at the previous
    time level, and with them the part of the surface step that no
    iteration changes.  Each iterate's field is dropped once its flux is
    taken; the state returned carries the converged wall alone.
    """
    dt = surface_op.dt
    # on the grid k dt, so the levels do not drift with the step count
    k = round(state.time / dt) + 1
    t_new = k * dt
    wall_prev = state.wall

    # the flux-free part of the surface step, shared by every iteration
    surface = surface_step(wall_prev, eval_rates(kinetics, wall_prev.T).T, surface_op)

    # never written in place: each iteration makes a new array
    iterate = wall_prev if initial_guess is None else initial_guess

    residuals: list[float] = []
    converged = False
    for _ in range(settings.max_iter):
        flux = _flux_of(settings.flux_form, march_fluid(iterate, init, march_op), march_op)
        stepped = step_wall(surface, flux)
        new = iterate + settings.relaxation * (stepped - iterate)
        residual = float(np.abs(new - iterate).max())
        residuals.append(residual)
        if not math.isfinite(residual):
            break  # the iterate has blown up; more iterations cannot recover it
        iterate = new
        if residual < settings.tol:
            converged = True
            break
    if not converged:
        raise NonConvergedError(t_new, k, tuple(residuals))

    return CouplingState(time=t_new, wall=iterate, residual_history=tuple(residuals))


# ---------------------------------------------------------------------------
# whole-run driver


@dataclass(frozen=True)
class Snapshot:
    """Reduced view of one accepted time level, enough for all checkers."""

    time: float
    wall: np.ndarray                  # (ns, nz+1)
    fluid_min: np.ndarray             # (ns,)
    fluid_max: np.ndarray             # (ns,)
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class RunReport:
    """Everything a run measured; ``write_report`` writes it out."""

    species: tuple[str, ...]
    diagnostics: ContractionDiagnostics
    hypothesis_report: HypothesisReport
    lipschitz: tuple[float, ...]
    lam: float
    iterations: tuple[int, ...]
    nonneg: NonnegReport
    envelope_checks: tuple[EnvelopeCheck, ...]
    energy_slopes: tuple[float, ...]
    reaction_ended: float
    probe_times: tuple[float, ...]
    probe_values: tuple[tuple[float, ...], ...]  # per species, outlet series

    @property
    def checks_pass(self) -> bool:
        return self.nonneg.passed and all(c.passed for c in self.envelope_checks)


def run_simulation(
    cfg: ModelConfig,
    settings: CouplerSettings = CouplerSettings(),
    seed: int = 0,
    probe_every: int = 1,
) -> tuple[RunReport, list[Snapshot]]:
    """Drive the scenario from t = 0 to t_end and collect every verdict.

    Returns the report plus the per-step snapshot trajectory.  The
    REACTION_ENDED time is the first level at which the surface equation's
    right-hand side is below 1e-8 everywhere, i.e. the state has stopped
    evolving to that tolerance.  An invalid config or a probe_every below 1
    raises ValueError; the validation warnings are the caller's to report
    (the CLI prints them).  The march and surface operators are built once
    here and handed to every step and every recorded level.
    """
    report = validate_config(cfg)
    if not report.ok:
        raise ValueError("invalid configuration: " + "; ".join(report.errors))
    if probe_every < 1:
        raise ValueError(f"probe_every = {probe_every} must be >= 1")

    params = cfg.species
    grid = cfg.grid
    kinetics = cfg.kinetics

    diagnostics = contraction_margin(params)
    hypo = verify_hypotheses(kinetics, params, seed=seed)
    k_vec, lam = estimate_lipschitz(kinetics, seed=seed)
    if lam > 0.0 and grid.dt > 0.5 / lam:
        log.warning(
            "dt = %g exceeds the reaction stability guard 0.5/lambda = %g; "
            "explicit reaction terms may destabilize the step",
            grid.dt,
            0.5 / lam,
        )

    march_op = march_operator(params, grid)
    surface_op = surface_operator(params, grid.nz + 1, grid.dt)

    state = CouplingState(0.0, cfg.initial.wall_init.copy(), ())

    trajectory: list[Snapshot] = []
    iterations: list[int] = []
    reaction_ended = math.inf

    def record(st: CouplingState) -> None:
        nonlocal reaction_ended
        fluid = march_fluid(st.wall, cfg.initial, march_op)
        rates = eval_rates(kinetics, st.wall.T).T
        flux = _flux_of(settings.flux_form, fluid, march_op)
        rhs = surface_rhs(st.wall, flux, rates, surface_op)
        if math.isinf(reaction_ended) and float(np.abs(rhs).max()) < SETTLE_TOL:
            reaction_ended = st.time
        trajectory.append(
            Snapshot(
                time=st.time,
                wall=st.wall,
                fluid_min=fluid.values.min(axis=(1, 2)),
                fluid_max=fluid.values.max(axis=(1, 2)),
                residuals=st.residual_history,
            )
        )

    record(state)
    for _ in range(grid.n_steps):
        state = advance_step(state, cfg.initial, settings, march_op, surface_op, kinetics)
        iterations.append(state.iterations_last_step)
        record(state)

    nonneg = check_nonnegativity(trajectory)
    env_checks = check_envelopes(trajectory, cfg.initial, lam, params)
    energy_slopes = tuple(float(a) for a in energy_growth_report(trajectory))

    probe_idx = list(range(0, len(trajectory), probe_every))
    if probe_idx[-1] != len(trajectory) - 1:
        probe_idx.append(len(trajectory) - 1)
    probe_times = tuple(trajectory[i].time for i in probe_idx)
    probe_values = tuple(
        tuple(float(trajectory[i].wall[s, -1]) for i in probe_idx)
        for s in range(len(params))
    )

    run_report = RunReport(
        species=cfg.species_names,
        diagnostics=diagnostics,
        hypothesis_report=hypo,
        lipschitz=tuple(float(v) for v in k_vec),
        lam=lam,
        iterations=tuple(iterations),
        nonneg=nonneg,
        envelope_checks=tuple(env_checks),
        energy_slopes=energy_slopes,
        reaction_ended=reaction_ended,
        probe_times=probe_times,
        probe_values=probe_values,
    )
    return run_report, trajectory
