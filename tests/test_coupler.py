import numpy as np
import pytest

from graetzcat import wall_evolve
from graetzcat.coupler import (
    CouplerSettings,
    CouplingState,
    NonConvergedError,
    advance_step,
    run_simulation,
)
from graetzcat.fluid_march import (
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from graetzcat.kinetics import linear_consumption, zero_model
from graetzcat.model import Grid, InitialData, ModelConfig, SpeciesParams
from graetzcat.wall_evolve import surface_operator

from conftest import constant_config, mirrored_d2


def operators(cfg):
    grid = cfg.grid
    return march_operator(cfg.species, grid), surface_operator(cfg.species, grid.nz + 1, grid.dt)


def initial_state(cfg):
    wall = cfg.initial.wall_init.copy()
    fluid = march_fluid(wall, cfg.initial, operators(cfg)[0])
    return CouplingState(0.0, wall, fluid, ())


def advance(state, cfg, settings, **kwargs):
    """advance_step on operators built for cfg's species and grid."""
    return advance_step(state, cfg.initial, settings, *operators(cfg), cfg.kinetics, cfg.grid, **kwargs)


def short_scenario(scenario, t_end):
    from graetzcat.cli_io import parse_config

    from conftest import SCENARIO_CFG

    text = SCENARIO_CFG.read_text().replace("t_end = 60", f"t_end = {t_end}")
    return parse_config(text, SCENARIO_CFG.parent)


class TestAdvanceStep:
    def test_exact_fixed_point_converges_in_one_iteration(self):
        cfg = constant_config()
        settings = CouplerSettings()
        state = initial_state(cfg)
        new = advance(state, cfg, settings)
        assert new.iterations_last_step == 1
        assert new.residual_history == (0.0,)
        assert np.array_equal(new.wall, state.wall)
        assert np.array_equal(new.fluid.values, state.fluid.values)
        assert new.time == cfg.grid.dt

    def test_trace_coherence_bitwise(self, scenario):
        cfg, settings = scenario
        state = initial_state(cfg)
        for k in range(3):
            state = advance(state, cfg, settings)
            assert np.array_equal(state.fluid.values[:, -1, :], state.wall)

    def test_residuals_shrink_geometrically(self, scenario):
        cfg, settings = scenario
        state = initial_state(cfg)
        state = advance(state, cfg, settings)
        r = state.residual_history
        assert len(r) >= 3
        for m in range(2, len(r)):
            assert r[m] < r[m - 1]

    def test_initial_guess_does_not_change_the_answer(self, scenario):
        cfg, settings = scenario
        state = initial_state(cfg)
        a = advance(state, cfg, settings)
        rng = np.random.default_rng(8)
        guess = state.wall + rng.uniform(-0.3, 0.3, state.wall.shape)
        b = advance(state, cfg, settings, initial_guess=guess)
        assert np.max(np.abs(a.wall - b.wall)) < 10.0 * settings.tol

    def test_non_converged_carries_history(self, scenario):
        cfg, _ = scenario
        settings = CouplerSettings(tol=1e-10, max_iter=2)
        state = initial_state(cfg)
        with pytest.raises(NonConvergedError) as exc:
            advance(state, cfg, settings, step_index=1)
        assert len(exc.value.residuals) == 2
        assert exc.value.step_index == 1

    def test_non_finite_residual_stops_at_once(self):
        cfg = constant_config(nr=8, nz=8, dt=0.05, t_end=0.05)
        guess = np.full_like(cfg.initial.wall_init, np.nan)
        with pytest.raises(NonConvergedError) as exc:
            advance(initial_state(cfg), cfg, CouplerSettings(), initial_guess=guess)
        assert len(exc.value.residuals) == 1

    def test_relaxation_converges_to_same_fixed_point(self, scenario):
        cfg, settings = scenario
        state = initial_state(cfg)
        a = advance(state, cfg, settings)
        damped = CouplerSettings(
            tol=settings.tol, max_iter=200, flux_form=settings.flux_form, relaxation=0.6
        )
        b = advance(state, cfg, damped)
        assert np.max(np.abs(a.wall - b.wall)) < 20.0 * settings.tol

    def test_hot_path_makes_no_species_lookups(self, monkeypatch):
        # the operators are built once and handed down: a step neither
        # hashes nor compares the species (a per-call cache lookup would)
        cfg = constant_config(nr=8, nz=8, dt=0.05, t_end=0.15)
        march_op, surface_op = operators(cfg)
        state = initial_state(cfg)
        calls = []
        real_hash, real_eq = SpeciesParams.__hash__, SpeciesParams.__eq__
        monkeypatch.setattr(SpeciesParams, "__hash__", lambda s: calls.append(s) or real_hash(s))
        monkeypatch.setattr(
            SpeciesParams, "__eq__", lambda s, o: calls.append(s) or real_eq(s, o)
        )
        assert hash(cfg.species[0]) == real_hash(cfg.species[0]) and calls  # the patch holds
        del calls[:]
        for k in range(1, 4):
            state = advance_step(
                state, cfg.initial, CouplerSettings(), march_op, surface_op, cfg.kinetics,
                cfg.grid, step_index=k,
            )
        assert state.time == 3 * cfg.grid.dt
        assert calls == []

    def test_surface_terms_are_built_once_per_step(self, scenario, monkeypatch):
        # delta r and theta D2 prev are fixed for a whole step: one second
        # difference per step and one per recorded level, however many
        # Picard iterations the steps take (one per iteration would be more)
        cfg, settings = short_scenario(scenario, 0.06)
        calls = []
        real = wall_evolve._mirrored_second_difference
        monkeypatch.setattr(
            wall_evolve, "_mirrored_second_difference", lambda *a: calls.append(a) or real(*a)
        )
        report, _ = run_simulation(cfg, settings)
        n_steps = cfg.grid.n_steps
        assert n_steps == 3 and min(report.iterations) >= 2
        assert len(calls) == 2 * n_steps + 1

    def test_flux_form_robustness_under_refinement(self):
        # coupled one-step difference between the two flux forms shrinks
        # with the grid (smooth, corner-compatible inlet)
        diffs = []
        for nr, nz in ((32, 64), (64, 128)):
            grid = Grid(nr=nr, nz=nz, dt=0.01, t_end=0.01)
            r = grid.r
            species = (SpeciesParams("c", 1.0, 1.0, 1.0, -1),)
            init = InitialData(
                inlet=(1.0 - r * r)[None, :].copy(), wall_init=np.zeros((1, nz + 1))
            )
            cfg = ModelConfig(species, grid, init, zero_model([2.0]))
            state = initial_state(cfg)
            walls = {}
            for form in ("gradient", "integral"):
                s = CouplerSettings(flux_form=form)
                walls[form] = advance(state, cfg, s).wall
            diffs.append(float(np.max(np.abs(walls["gradient"] - walls["integral"]))))
        assert diffs[1] < 0.62 * diffs[0]


class TestRunSimulation:
    def test_constant_run_is_frozen(self):
        cfg = constant_config(t_end=0.3)
        report, traj = run_simulation(cfg, CouplerSettings())
        assert report.reaction_ended == 0.0
        assert all(np.array_equal(s.wall, cfg.initial.wall_init) for s in traj)
        assert set(report.iterations) == {1}
        assert report.nonneg.passed
        assert all(c.passed for c in report.envelope_checks)

    def test_time_levels_are_exact_multiples_of_dt(self):
        # 0.02 is not a binary fraction: summing it drifts off k * dt
        cfg = constant_config(nr=8, nz=8, dt=0.02, t_end=2.0)
        report, traj = run_simulation(cfg, CouplerSettings())
        assert len(traj) == 101
        for k, snap in enumerate(traj):
            assert snap.time == k * 0.02
        assert report.probe_times[-1] == 100 * 0.02

    def test_determinism_bitwise(self, scenario):
        cfg, settings = short_scenario(scenario, 0.5)
        r1, t1 = run_simulation(cfg, settings, seed=3)
        r2, t2 = run_simulation(cfg, settings, seed=3)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.wall, b.wall)
            assert a.residuals == b.residuals
        assert r1.probe_values == r2.probe_values
        assert r1.reaction_ended == r2.reaction_ended

    def test_probe_thinning_keeps_ends(self, scenario):
        cfg, settings = short_scenario(scenario, 0.2)
        report, traj = run_simulation(cfg, settings, probe_every=4)
        assert report.probe_times[0] == 0.0
        assert report.probe_times[-1] == pytest.approx(traj[-1].time)
        assert len(report.probe_times) < len(traj)

    @pytest.mark.parametrize("every", [0, -1])
    def test_probe_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="probe_every"):
            run_simulation(constant_config(nr=8, nz=8, t_end=0.02), probe_every=every)

    def test_invalid_config_rejected(self):
        cfg = constant_config()
        bad = ModelConfig(
            (SpeciesParams("a", -1.0, 1.0, 1.0, -1),) + cfg.species[1:],
            cfg.grid,
            cfg.initial,
            cfg.kinetics,
        )
        with pytest.raises(ValueError):
            run_simulation(bad, CouplerSettings())

    def test_weighted_norm_reported(self):
        cfg = constant_config(t_end=0.2, levels=(1.0, 1.0))
        report, _ = run_simulation(cfg, CouplerSettings())
        # unit field: sup_z int_t int_r 1 * r(1-r^2) = t_end / 4
        norms = report.energy.fluid_station_energy.max(axis=1)
        assert norms[0] == pytest.approx(0.2 / 4.0, rel=1e-3)

    @pytest.mark.parametrize("form", ["gradient", "integral"])
    def test_linear_run_settles_on_the_discrete_steady_state(self, form):
        # With rate k x and delta = -1 the run is linear, and the marched
        # flux is affine in the wall, flux(w) = f0 + G w, so its steady wall
        # solves (gamma G + k I - theta D2) w = -gamma f0.  G's columns are
        # unit-wall marches with a zero inlet (all in one march), f0 the
        # inlet's march under a zero wall; D2 is the mirrored-ghost second
        # difference.  By t = 16 the transient is below rounding (at t = 10
        # it is still 1e-11 on the gradient form and 6e-10 on the integral).
        k, nr, nz = 2.0, 32, 64
        nn = nz + 1
        grid = Grid(nr=nr, nz=nz, dt=0.02, t_end=16.0)
        species = (SpeciesParams("c", 1.0, 1.0, 1.0, -1),)
        init = InitialData(np.ones((1, nr + 1)), np.ones((1, nn)))
        cfg = ModelConfig(species, grid, init, linear_consumption(k, [1.0]))
        _, traj = run_simulation(cfg, CouplerSettings(flux_form=form))

        def flux(wall, inlet):
            op = march_operator(species * len(wall), grid)
            field = march_fluid(wall, InitialData(inlet, wall), op)
            if form == "gradient":
                return wall_flux_gradient(field, grid)
            return wall_flux_integral(field, grid, op)

        g = flux(np.eye(nn), np.zeros((nn, nr + 1))).T
        f0 = flux(np.zeros((1, nn)), init.inlet)[0]
        w = np.linalg.solve(g + k * np.eye(nn) - mirrored_d2(nz), -f0)
        assert np.abs(traj[-1].wall[0] - w).max() <= 2e-13 * np.abs(w).max()


class TestStabilityGuard:
    def test_dt_guard_warns_for_stiff_kinetics(self, caplog):
        import logging

        from graetzcat.kinetics import linear_consumption

        cfg = constant_config(nr=8, nz=8, dt=0.05, t_end=0.05, levels=(0.5,))
        stiff = ModelConfig(
            cfg.species[:1],
            cfg.grid,
            InitialData(cfg.initial.inlet[:1], cfg.initial.wall_init[:1]),
            linear_consumption(100.0, [1.0]),  # guard 0.5/lambda = 0.004 < dt
        )
        with caplog.at_level(logging.WARNING, logger="graetzcat"):
            run_simulation(stiff, CouplerSettings())
        assert any("stability guard" in r.message for r in caplog.records)


class TestCouplerSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            CouplerSettings(tol=0.0)
        with pytest.raises(ValueError):
            CouplerSettings(max_iter=0)
        with pytest.raises(ValueError):
            CouplerSettings(flux_form="sideways")
        with pytest.raises(ValueError):
            CouplerSettings(relaxation=1.5)
        with pytest.raises(ValueError):
            CouplerSettings(tol=float("inf"))
