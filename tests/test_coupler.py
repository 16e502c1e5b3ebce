import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from graetzcat.kinetics import eval_rates, linear_consumption, zero_model
from graetzcat.model import Grid, InitialData, ModelConfig, SpeciesParams
from graetzcat.wall_evolve import step_wall, surface_operator, surface_step

from conftest import constant_config, mirrored_d2


def operators(cfg):
    grid = cfg.grid
    return march_operator(cfg.species, grid), surface_operator(cfg.species, grid.nz + 1, grid.dt)


def initial_state(cfg):
    return CouplingState(0.0, cfg.initial.wall_init.copy(), ())


def field_of(state, cfg):
    """The bulk field of a state: the march of its wall."""
    return march_fluid(state.wall, cfg.initial, operators(cfg)[0]).values


def advance(state, cfg, settings, **kwargs):
    """advance_step on operators built for cfg's species and grid."""
    return advance_step(state, cfg.initial, settings, *operators(cfg), cfg.kinetics, **kwargs)


def short_scenario(scenario, t_end, nr=32, nz=64, dt=0.02):
    from graetzcat.cli_io import parse_config

    from conftest import SCENARIO_CFG

    text = SCENARIO_CFG.read_text().replace("t_end = 60", f"t_end = {t_end}")
    text = text.replace("dt = 0.02", f"dt = {dt}")
    text = text.replace("nr = 32", f"nr = {nr}").replace("nz = 64", f"nz = {nz}")
    return parse_config(text, SCENARIO_CFG.parent)


def flux_of(form, field, op):
    if form == "gradient":
        return wall_flux_gradient(field)
    return wall_flux_integral(field, op)


def copies(s, n):
    """n copies of species s, named apart: species names must differ."""
    return tuple(dataclasses.replace(s, name=f"{s.name}_{j}") for j in range(n))


def marched_flux(form, s, wall, inlet, grid):
    """The flux of each row of wall and inlet, each marched as species s."""
    op = march_operator(copies(s, len(wall)), grid)
    return flux_of(form, march_fluid(wall, InitialData(inlet, wall), op), op)


def picard_matrix(s, grid, form):
    """K of one species: how one Picard iteration moves the wall per unit of
    wall iterate, built the way the coupler computes that iteration.

    Rates are lagged, so the marched flux is affine in the wall,
    flux(w) = flux(prev) + G (w - prev), and so is the surface step:
    new = a + K (w - prev) with K = -(I - dt theta D2)^-1 dt gamma G.  G's
    columns are the nz + 1 unit-wall marches with a zero inlet (one march,
    a unit wall per row); K's columns are step_wall on them from a zero
    wall with zero reaction and diffusion.
    """
    nn = grid.nz + 1
    g = marched_flux(form, s, np.eye(nn), np.zeros((nn, grid.nr + 1)), grid)
    zero = np.zeros((nn, nn))
    free = surface_step(zero, zero, surface_operator(copies(s, nn), nn, grid.dt))
    return step_wall(free, g).T  # row j of g is G's column j


class TestAdvanceStep:
    def test_exact_fixed_point_converges_in_one_iteration(self):
        cfg = constant_config()
        settings = CouplerSettings()
        state = initial_state(cfg)
        new = advance(state, cfg, settings)
        assert new.iterations_last_step == 1
        assert new.residual_history == (0.0,)
        assert np.array_equal(new.wall, state.wall)
        field = field_of(new, cfg)
        assert np.array_equal(field, field_of(state, cfg))
        # and that field is the constant data itself, bitwise
        assert np.array_equal(field, np.broadcast_to(cfg.initial.inlet[:, :1, None], field.shape))
        assert new.time == cfg.grid.dt

    def test_trace_coherence_bitwise(self, scenario):
        cfg, settings = scenario
        state = initial_state(cfg)
        for k in range(3):
            state = advance(state, cfg, settings)
            assert np.array_equal(field_of(state, cfg)[:, -1, :], state.wall)

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
            advance(state, cfg, settings)
        assert len(exc.value.residuals) == 2
        assert exc.value.step_index == 1

    def test_non_converged_step_reports_its_index(self, scenario):
        # the step from t = 0.04 at dt = 0.02 is the third: its index comes
        # from the state's time, as t_new does
        cfg, _ = scenario
        assert cfg.grid.dt == 0.02
        state = CouplingState(0.04, cfg.initial.wall_init.copy(), ())
        with pytest.raises(NonConvergedError, match=r"at step 3 \(t = 0\.06\)") as exc:
            advance(state, cfg, CouplerSettings(tol=1e-10, max_iter=2))
        assert exc.value.step_index == 3
        assert exc.value.time == 3 * cfg.grid.dt

    def test_heavily_damped_step_is_not_told_to_damp_more(self, scenario):
        # at relaxation 0.25 the residual falls by about 0.73 per iteration
        # (50 iterations leave 4.7e-8): lowering the relaxation cannot help
        cfg, _ = short_scenario(scenario, t_end=0.02)
        with pytest.raises(NonConvergedError) as exc:
            run_simulation(cfg, CouplerSettings(max_iter=10, relaxation=0.25))
        r = exc.value.residuals
        assert len(r) == 10 and all(b < a for a, b in zip(r, r[1:]))
        message = str(exc.value)
        assert "relaxation" not in message
        assert message.endswith("(residuals still falling: raise max_iter or reduce dt)")

    def test_non_finite_residual_stops_at_once(self):
        cfg = constant_config(nr=8, nz=8, dt=0.05, t_end=0.05)
        guess = np.full_like(cfg.initial.wall_init, np.nan)
        with pytest.raises(NonConvergedError) as exc:
            advance(initial_state(cfg), cfg, CouplerSettings(), initial_guess=guess)
        assert len(exc.value.residuals) == 1
        assert str(exc.value).endswith("(reduce dt or the relaxation factor)")

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
        for _ in range(3):
            state = advance_step(
                state, cfg.initial, CouplerSettings(), march_op, surface_op, cfg.kinetics
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


class TestAffinePicardMap:
    # The contract a linear-response coupler will be judged against: the
    # Picard iteration of the shipped scenario is the affine map
    # w -> a + K (w - prev), a = step_wall(surface, flux(prev)).
    @pytest.mark.parametrize(
        "form, rho, norm", [("gradient", 0.0617, 0.0718), ("integral", 0.0120, 0.0270)]
    )
    def test_steps_solve_the_affine_fixed_point(self, scenario, form, rho, norm):
        cfg, shipped = short_scenario(scenario, 6)
        ks = [picard_matrix(s, cfg.grid, form) for s in cfg.species]
        assert max(np.abs(np.linalg.eigvals(k)).max() for k in ks) == pytest.approx(rho, abs=5e-5)
        q = max(np.abs(k).sum(axis=1).max() for k in ks)  # sup-norm contraction factor
        assert q == pytest.approx(norm, abs=5e-5)
        self.assert_steps_solve_the_fixed_point(cfg, shipped, form, 1.0, ks, q)

    @pytest.mark.parametrize("form", ["gradient", "integral"])
    @pytest.mark.parametrize("relaxation", [0.5, 0.8])
    def test_relaxed_steps_solve_the_affine_fixed_point(self, scenario, form, relaxation):
        # a damped iterate moves by M = (1 - w) I + w K, with the same fixed point
        cfg, shipped = short_scenario(scenario, 2)
        nn = cfg.grid.nz + 1
        ks = [picard_matrix(s, cfg.grid, form) for s in cfg.species]
        q = max(
            np.abs((1.0 - relaxation) * np.eye(nn) + relaxation * k).sum(axis=1).max()
            for k in ks
        )
        assert q < 1.0
        self.assert_steps_solve_the_fixed_point(cfg, shipped, form, relaxation, ks, q)

    @pytest.mark.parametrize("form", ["gradient", "integral"])
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(4, 16),
        st.integers(8, 32),
        st.lists(
            st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 2.0)),
            min_size=4,
            max_size=4,
        ),
        st.floats(0.3, 1.0),
    )
    def test_random_steps_solve_the_affine_fixed_point(
        self, scenario, form, nr, nz, constants, relaxation
    ):
        # the shipped scenario's data and rate law on a drawn grid, with
        # each species' beta_f, gamma_s and theta_s drawn, over two steps
        cfg, shipped = short_scenario(scenario, 0.04, nr=nr, nz=nz)
        species = tuple(
            dataclasses.replace(s, beta_f=beta, gamma_s=gamma, theta_s=theta)
            for s, (beta, gamma, theta) in zip(cfg.species, constants)
        )
        cfg = dataclasses.replace(cfg, species=species)
        ks = [picard_matrix(s, cfg.grid, form) for s in species]
        eye = np.eye(nz + 1)
        q = max(np.abs((1.0 - relaxation) * eye + relaxation * k).sum(axis=1).max() for k in ks)
        assume(q < 1.0)
        # iterations enough to take a contraction by q down 1e-14, where a
        # heavy damping takes more than the shipped 50
        max_iter = max(shipped.max_iter, math.ceil(math.log(1e-14) / math.log(q)))
        shipped = dataclasses.replace(shipped, max_iter=max_iter)
        self.assert_steps_solve_the_fixed_point(cfg, shipped, form, relaxation, ks, q)

    @staticmethod
    def assert_steps_solve_the_fixed_point(cfg, shipped, form, relaxation, ks, q):
        """Every step of cfg's run contracts by q, and stops within q / (1 - q)
        of its last residual of the exact fixed point of the Picard matrices ks."""
        grid, nn = cfg.grid, cfg.grid.nz + 1
        settings = CouplerSettings(
            tol=shipped.tol, max_iter=shipped.max_iter, flux_form=form, relaxation=relaxation
        )
        march_op, surface_op = operators(cfg)
        eps = np.finfo(float).eps
        state = initial_state(cfg)
        for k in range(1, grid.n_steps + 1):
            prev = state.wall
            state = advance_step(state, cfg.initial, settings, march_op, surface_op, cfg.kinetics)
            r = state.residual_history
            # successive differences contract by q, up to 4 ulps of the
            # wall's largest entry in each difference
            ulp = eps * float(np.abs(prev).max())
            assert all(b <= q * a + 4.0 * ulp for a, b in zip(r, r[1:])), (k, r)
            # the exact fixed point (I - K)(w - prev) = a - prev, per species
            surface = surface_step(prev, eval_rates(cfg.kinetics, prev.T).T, surface_op)
            field = march_fluid(prev, cfg.initial, march_op)
            a = step_wall(surface, flux_of(form, field, march_op))
            exact = prev + np.stack(
                [np.linalg.solve(np.eye(nn) - ki, d) for ki, d in zip(ks, a - prev)]
            )
            # a contraction stopped at residual r is within q / (1 - q) r of
            # its fixed point; the step's own rounding adds up to 2 ulps of
            # each species' magnitude (the integral form's T row reads
            # 0.42 ulp past the bare bound)
            slack = 2.0 * eps * np.abs(state.wall).max(axis=1, keepdims=True)
            err = np.abs(state.wall - exact)
            assert np.all(err <= q / (1.0 - q) * r[-1] + slack), k


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

    def test_a_coupled_run_holds_one_field_at_a_time(self, scenario):
        # The state carries the wall alone, a Picard iterate's field dies
        # with its flux, and a recorded level's field dies once its flux
        # and extrema are taken, so a run peaks at one march field plus its
        # operators, station slab and trajectory.  Each state holding its
        # field, with the initial one kept, peaked at over four fields
        # (5.8 MB here).  nr > 64 puts the march on the station path, whose
        # operator is a few kB.
        nr, nz = 80, 512
        cfg, settings = short_scenario(scenario, 0.04, nr=nr, nz=nz)
        run_simulation(cfg, settings)  # what a first run fills once is not counted
        tracemalloc.start()
        try:
            report, _ = run_simulation(cfg, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 8 * len(cfg.species) * (nr + 1) * (nz + 1)  # 1.33 MB
        assert len(report.iterations) == 2 and min(report.iterations) > 1
        assert peak < field + 6e5, (peak, field)

    @pytest.mark.parametrize("form", ["gradient", "integral"])
    def test_linear_run_settles_on_the_discrete_steady_state(self, form):
        # With rate k x and delta = -1 the run is linear with its species
        # apart, and the marched flux of species i is affine in its wall,
        # flux_i(w) = f0_i + G_i w, so its steady wall solves
        # (gamma_i G_i + k I - theta_i D2) w = -gamma_i f0_i.  G_i's columns
        # are unit-wall marches with a zero inlet (all in one march), f0_i
        # the inlet's march under a zero wall; D2 is the mirrored-ghost
        # second difference.  By t = 16 the transient is below rounding (at
        # t = 10 it is still 1e-11 on the gradient form and 6e-10 on the
        # integral).  The second run carries the split_beta benchmark's four
        # distinct beta_f and theta_s, so it marches one stacked multi-beta
        # block and steps four thetas in one solve.  It runs at 16x32: the
        # comparison is only as good as cond(A) eps, and at 32x64 the
        # beta_f = 2 species' A has cond 1e4 and gives 2.2e-13 to 2.9e-13.
        k = 2.0
        split_beta = ((0.8, 1.0), (1.0, 1.2), (1.25, 1.0), (2.0, 1.5))
        for nr, nz, constants in ((32, 64, ((1.0, 1.0),)), (16, 32, split_beta)):
            nn, ns = nz + 1, len(constants)
            grid = Grid(nr=nr, nz=nz, dt=0.02, t_end=16.0)
            species = tuple(
                SpeciesParams(f"s{i}", beta, 1.0, theta, -1)
                for i, (beta, theta) in enumerate(constants)
            )
            init = InitialData(np.ones((ns, nr + 1)), np.ones((ns, nn)))
            cfg = ModelConfig(species, grid, init, linear_consumption(k, [1.0] * ns))
            _, traj = run_simulation(cfg, CouplerSettings(flux_form=form))

            for i, s in enumerate(species):
                g = marched_flux(form, s, np.eye(nn), np.zeros((nn, nr + 1)), grid).T
                f0 = marched_flux(form, s, np.zeros((1, nn)), init.inlet[i : i + 1], grid)[0]
                a = s.gamma_s * g + k * np.eye(nn) - s.theta_s * mirrored_d2(nz)
                w = np.linalg.solve(a, -s.gamma_s * f0)
                assert np.abs(traj[-1].wall[i] - w).max() <= 2e-13 * np.abs(w).max(), (nr, i)

    def test_shipped_scenario_settles_on_its_integral_steady_state(self, scenario):
        # c09b's check in the integral flux form, on the shipped scenario cut
        # to 8x16.  A settled run stops at the root w* of
        #   F(w) = -gamma (f0 + G w) + delta r(w) + theta D2 w,
        # G from unit-wall marches with a zero inlet (marched_flux, one
        # march per species), f0 the inlet's march under a zero wall; Newton
        # with a finite-difference Jacobian finds w* from the initial wall.
        # The rates are lagged, so a step's fixed point is that root for any
        # dt.  The integral form's slowest wall mode falls about 3.5x per 5
        # units of t and reaches rounding only near t = 150: 7500 steps at
        # the shipped dt, 300 at dt = 0.5.  Measured: 2.7e-16 relative,
        # against 1.3e-7 at the shipped dt and t = 60
        nr, nz = 8, 16
        cfg, shipped = short_scenario(scenario, 150, nr=nr, nz=nz, dt=0.5)
        settings = dataclasses.replace(shipped, flux_form="integral")
        _, traj = run_simulation(cfg, settings)
        grid, species, nn = cfg.grid, cfg.species, nz + 1
        unit = np.eye(nn), np.zeros((nn, nr + 1))
        g = np.stack([marched_flux("integral", s, *unit, grid).T for s in species])
        f0 = np.concatenate(
            [
                marched_flux("integral", s, np.zeros((1, nn)), cfg.initial.inlet[i : i + 1], grid)
                for i, s in enumerate(species)
            ]
        )
        gamma, delta, theta = (
            np.array([[getattr(s, key)] for s in species], dtype=float)
            for key in ("gamma_s", "delta", "theta_s")
        )
        d2 = mirrored_d2(nz)

        def residual(w):
            rates = eval_rates(cfg.kinetics, w.T).T
            flux = f0 + np.einsum("ijk,ik->ij", g, w)
            return -gamma * flux + delta * rates + theta * (w @ d2.T)

        w = cfg.initial.wall_init.copy()
        for _ in range(8):
            r = residual(w).ravel()
            h = 1e-7 * np.maximum(1.0, np.abs(w.ravel()))
            jac = np.empty((r.size, r.size))
            for k in range(r.size):
                e = np.zeros(r.size)
                e[k] = h[k]
                jac[:, k] = (residual(w + e.reshape(w.shape)).ravel() - r) / h[k]
            step = np.linalg.solve(jac, r).reshape(w.shape)
            w = w - step
            if (np.abs(step).max(axis=1) / np.abs(w).max(axis=1)).max() < 1e-13:
                break
        else:
            pytest.fail("Newton did not converge")
        rel = np.abs(traj[-1].wall - w).max(axis=1) / np.abs(w).max(axis=1)
        assert np.all(rel <= 1e-14), rel


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
        for max_iter in (2.5, 3.0, "3", True, False):
            # not an iteration count: refused here, not by range() mid-run
            # (a bool is an Integral, and True would run one iteration)
            with pytest.raises(ValueError, match="max_iter"):
                CouplerSettings(max_iter=max_iter)
        with pytest.raises(ValueError):
            CouplerSettings(flux_form="sideways")
        with pytest.raises(ValueError):
            CouplerSettings(relaxation=1.5)
        with pytest.raises(ValueError):
            CouplerSettings(tol=float("inf"))
