"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Two criteria check verdicts that the documented model gives on the
shipped scenario as failures of the underlying bound, and pass when the
program reports exactly those failures:

 * 08b: ``check_envelopes`` bounds a produced species by
   ``a_i0_max * exp(lambda t)`` with ``a_i0_max`` the sup of that species'
   own inlet and initial wall data.  CO2 has zero data, so its bound is the
   tolerance alone, and the production that criterion 09 asserts must
   violate it.  The test checks that the CO2 ``exp_bound`` verdict fails
   with the worst margin and time read off the trajectory, while the T
   envelope and the CO2 lower bound pass.
 * 10a: with the shipped law ``rho = prefactor CO+ O2+ exp(-E/T+)``, channel
   rates ``(rho, rho, rho, 150 rho)``, signs ``(-1, -1, +1, +1)`` and
   beta/gamma = 1, the H3 sum at the pair (x, 0) is
   ``rho(x) (CO + O2 - CO2 - 150 T)``, negative wherever rho > 0 in the box.
   The test checks that H1 and H2 pass, that H3 is reported failing with a
   worst pair whose recomputed sum matches the reported magnitude, and that
   the inlet state gives a negative sum.
"""

import math
import time

import numpy as np
import pytest

from graetzcat.cli_io import (
    FLUX_WINDOW_Z,
    flux_identity_gap,
    graetz_centerline,
    main,
    parse_config,
)
from graetzcat.coupler import CouplerSettings, CouplingState, advance_step, run_simulation
from graetzcat.fluid_march import march_fluid, march_operator, wall_flux_gradient
from graetzcat.kinetics import KineticsModel, eval_rates, verify_hypotheses
from graetzcat.model import Grid, InitialData, SpeciesParams
from graetzcat.qualcheck import CHECK_TOL
from graetzcat.wall_evolve import step_wall, surface_operator, surface_step

from conftest import SCENARIO_CFG, constant_config, mirrored_d2


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {tag}: {detail}"


def test_c01_constant_fixed_point():
    cfg = constant_config(nr=32, nz=64, dt=0.01, t_end=1.0)
    t0 = time.perf_counter()
    report, traj = run_simulation(cfg, CouplerSettings())
    elapsed = time.perf_counter() - t0
    drift = max(float(np.max(np.abs(s.wall - cfg.initial.wall_init))) for s in traj)
    ok = drift <= 1e-12 and elapsed < 1.0 and report.reaction_ended == 0.0
    verdict("01 constant-fixed-point", ok, f"drift={drift:.2e} runtime={elapsed:.2f}s")


def test_c02_discrete_maximum_principle():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        nr, nz = 24, 48
        grid = Grid(nr=nr, nz=nz, dt=0.01, t_end=0.01)
        inlet = rng.uniform(0.3, 0.7, (1, nr + 1))
        wallv = rng.uniform(0.3, 0.7, (1, nz + 1))
        params = (SpeciesParams("s", float(rng.uniform(0.2, 3.0)), 1.0, 1.0, -1),)
        field = march_fluid(wallv, InitialData(inlet, wallv), march_operator(params, grid))
        data_lo = min(inlet.min(), wallv.min())
        data_hi = max(inlet.max(), wallv.max())
        worst = max(worst, data_lo - field.values.min(), field.values.max() - data_hi)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict("02 max-principle", ok, f"worst excursion={worst:.2e} runtime={elapsed:.1f}s")


def test_c03_graetz_oracle():
    t0 = time.perf_counter()
    fine = graetz_centerline(2048, 4096)
    coarse = graetz_centerline(64, 128)
    gap = abs(coarse - fine)

    nz_fixed = 512
    vals = [graetz_centerline(nr, nz_fixed) for nr in (32, 64, 128)]
    d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
    order = math.log2(d1 / d2)
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-3 and order >= 1.8 and elapsed < 60.0
    verdict(
        "03 graetz-oracle",
        ok,
        f"|coarse-fine|={gap:.2e} richardson-order={order:.2f} runtime={elapsed:.1f}s",
    )


def test_c04_flux_identity():
    levels = [(64, 128), (128, 256), (256, 512)]
    gaps = [flux_identity_gap(nr, nz, z_min=FLUX_WINDOW_Z) for nr, nz in levels]
    full = [flux_identity_gap(nr, nz) for nr, nz in levels]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    # C (dr + dz) bound with C fitted at the coarsest level
    h = [1.0 / nr + 1.0 / nz for nr, nz in levels]
    c_fit = gaps[0] / h[0]
    bounded = all(g <= 1.05 * c_fit * hh for g, hh in zip(gaps, h))
    ok = bounded and all(o >= 1.0 for o in orders)
    verdict(
        "04 flux-identity",
        ok,
        f"windowed gaps={[f'{g:.2e}' for g in gaps]} orders={[f'{o:.2f}' for o in orders]} "
        f"(full-range gaps={[f'{g:.2e}' for g in full]}: inlet-corner kink caps those)",
    )


def test_c05_heat_eigenmode_and_mass():
    nz, dt, steps = 128, 1e-4, 1000
    z = np.linspace(0.0, 1.0, nz + 1)
    params = (SpeciesParams("h", 1.0, 1.0, 1.0, 1),)
    wall = np.cos(np.pi * z)[None, :]
    zero = np.zeros((1, nz + 1))
    trap = np.full(nz + 1, 1.0 / nz)
    trap[0] = trap[-1] = 0.5 / nz
    mass0 = float(wall[0] @ trap)
    worst_mass = 0.0
    op = surface_operator(params, nz + 1, dt)
    for _ in range(steps):
        wall = step_wall(surface_step(wall, zero, op), zero)
        worst_mass = max(worst_mass, abs(float(wall[0] @ trap) - mass0))
    amp = float(wall[0, 0])
    amp_err = abs(amp - math.exp(-math.pi**2 * 0.1))
    ok = amp_err < 2e-2 and worst_mass <= 1e-12
    verdict(
        "05 heat-eigenmode", ok, f"amplitude-err={amp_err:.2e} mass-drift={worst_mass:.2e}"
    )


def test_c06_contraction_behavior(scenario_run):
    cfg, settings, report, traj, _ = scenario_run
    assert report.diagnostics.satisfied and report.diagnostics.mu == 1.0
    max_iters = max(report.iterations)
    ratio_violations = 0
    for snap in traj[1:]:
        r = snap.residuals
        for m in range(2, len(r)):
            if r[m - 1] > 0 and r[m] / r[m - 1] >= 1.0:
                ratio_violations += 1
    ok = max_iters < 50 and settings.tol == 1e-10 and ratio_violations == 0
    verdict(
        "06 contraction-behavior",
        ok,
        f"max iterations={max_iters} ratio violations={ratio_violations}",
    )


def test_c07_uniqueness_probe(scenario):
    cfg, settings = scenario
    text = SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 2")
    cfg, settings = parse_config(text, SCENARIO_CFG.parent)
    march_op = march_operator(cfg.species, cfg.grid)
    surface_op = surface_operator(cfg.species, cfg.grid.nz + 1, cfg.grid.dt)
    step_args = (march_op, surface_op, cfg.kinetics, cfg.grid)
    wall = cfg.initial.wall_init.copy()
    state = CouplingState(0.0, wall, march_fluid(wall, cfg.initial, march_op), ())
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(1, 101):
        base = advance_step(state, cfg.initial, settings, *step_args, step_index=k)
        guess = state.wall + rng.uniform(-0.5, 0.5, state.wall.shape)
        probed = advance_step(
            state, cfg.initial, settings, *step_args, initial_guess=guess, step_index=k
        )
        worst = max(worst, float(np.max(np.abs(base.wall - probed.wall))))
        state = base
    ok = worst <= 1e-8
    verdict("07 uniqueness-probe", ok, f"worst disagreement={worst:.2e} over 100 steps")


def test_c08a_property_suite(scenario_run):
    cfg, _, report, traj, elapsed = scenario_run
    names = cfg.species_names
    checks = {(c.species, c.item): c for c in report.envelope_checks}

    nonneg_ok = report.nonneg.passed
    co_ok = checks[("CO", "upper_bound")].passed
    o2_ok = checks[("O2", "upper_bound")].passed
    lower_ok = checks[("CO2", "lower_bound")].passed and checks[("T", "lower_bound")].passed
    t_exp_ok = checks[("T", "exp_bound")].passed
    ok = nonneg_ok and co_ok and o2_ok and lower_ok and t_exp_ok and elapsed < 120.0
    verdict(
        "08a property-suite",
        ok,
        f"nonneg={nonneg_ok} CO<=0.02={co_ok} O2<=0.05={o2_ok} "
        f"lower-bounds={lower_ok} T-exp={t_exp_ok} runtime={elapsed:.0f}s",
    )


def test_c08b_exp_envelope_produced_species(scenario_run):
    # CO2's inlet and initial wall data are zero, so its exponential
    # envelope is zero plus the tolerance for all t: any production fails
    # it.  The verdict must be that failure, its size the trajectory's peak,
    # located where the trajectory first comes within CHECK_TOL of that
    # peak, and must not spill over to the other produced-species checks.
    cfg, _, report, traj, _ = scenario_run
    checks = {(c.species, c.item): c for c in report.envelope_checks}
    co2 = checks[("CO2", "exp_bound")]
    i = cfg.species_names.index("CO2")
    data_sup = max(float(cfg.initial.inlet[i].max()), float(cfg.initial.wall_init[i].max()))
    highs = [max(float(s.fluid_max[i]), float(s.wall[i].max())) for s in traj]
    peak = max(highs)
    gaps = [h - CHECK_TOL for h in highs]  # the envelope is 0 + CHECK_TOL
    k = next(j for j, gap in enumerate(gaps) if gap >= max(gaps) - CHECK_TOL)
    worst_ok = co2.worst == pytest.approx(peak - CHECK_TOL, rel=1e-12, abs=0.0)
    t_ok = co2.t_worst == traj[k].time
    others_ok = checks[("T", "exp_bound")].passed and checks[("CO2", "lower_bound")].passed
    ok = data_sup == 0.0 and worst_ok and t_ok and not co2.passed and others_ok
    verdict(
        "08b exp-envelope-produced",
        ok,
        f"CO2 data sup={data_sup} exp envelope worst={co2.worst:.2e} at t={co2.t_worst} "
        f"(trajectory within tol of its peak {peak:.2e} from t={traj[k].time}) "
        f"verdict={co2.passed} "
        f"T-exp and CO2-lower pass={others_ok}",
    )


def test_c09_qualitative_trends(scenario_run):
    cfg, _, report, traj, _ = scenario_run
    names = list(cfg.species_names)
    series = {n: np.array(report.probe_values[i]) for i, n in enumerate(names)}
    k0 = max(2, len(report.probe_times) // 10)  # wall-equilibration transient

    slack = 1e-12
    non_increasing = lambda v: bool(np.all(np.diff(v) <= slack * max(1.0, abs(v[0]))))
    non_decreasing = lambda v: bool(np.all(np.diff(v) >= -slack * max(1.0, abs(v[0]))))

    co_down = non_increasing(series["CO"][k0:])
    o2_down = non_increasing(series["O2"][k0:])
    co2_up = non_decreasing(series["CO2"][k0:])
    t_up = non_decreasing(series["T"][k0:])
    ended = math.isfinite(report.reaction_ended)
    terminal_co = float(series["CO"][-1])
    in_range = 0.0 < terminal_co < 0.02
    ok = co_down and o2_down and co2_up and t_up and ended and in_range
    verdict(
        "09 qualitative-trends",
        ok,
        f"CO down={co_down} O2 down={o2_down} CO2 up={co2_up} T up={t_up} "
        f"settled at t={report.reaction_ended:.1f} terminal CO={terminal_co:.6f}",
    )


def test_c09b_final_wall_is_the_discrete_steady_state(scenario_run):
    # A settled run stops where the surface right-hand side vanishes.  The
    # marched wall gradient is affine in the wall, flux(w) = f0 + G w, so the
    # final wall must be the root w* of
    #   F(w) = -gamma (f0 + G w) + delta r(w) + theta D2 w.
    # G is built column by column from unit-wall marches through march_fluid
    # (every species at once), D2 and the coefficients from the species, not
    # from the surface operator; Newton with a finite-difference Jacobian
    # finds w* from the initial wall.
    cfg, settings, _, traj, _ = scenario_run
    assert settings.flux_form == "gradient"
    grid, species = cfg.grid, cfg.species
    ns, nn = len(species), grid.nz + 1
    op = march_operator(species, grid)

    def flux(wall, inlet):
        return wall_flux_gradient(march_fluid(wall, InitialData(inlet, wall), op), grid)

    f0 = flux(np.zeros((ns, nn)), cfg.initial.inlet)
    g = np.empty((ns, nn, nn))
    for j in range(nn):
        unit = np.zeros((ns, nn))
        unit[:, j] = 1.0
        g[:, :, j] = flux(unit, np.zeros_like(cfg.initial.inlet))
    d2 = mirrored_d2(grid.nz)
    gamma, delta, theta = (
        np.array([[getattr(s, key)] for s in species], dtype=float)
        for key in ("gamma_s", "delta", "theta_s")
    )

    def residual(w):
        rates = eval_rates(cfg.kinetics, w.T).T
        return -gamma * (f0 + np.einsum("ijk,ik->ij", g, w)) + delta * rates + theta * (w @ d2.T)

    w = cfg.initial.wall_init.copy()
    steps = []
    for _ in range(8):
        r = residual(w).ravel()
        h = 1e-7 * np.maximum(1.0, np.abs(w.ravel()))
        jac = np.empty((r.size, r.size))
        for k in range(r.size):
            e = np.zeros(r.size)
            e[k] = h[k]
            jac[:, k] = (residual(w + e.reshape(ns, nn)).ravel() - r) / h[k]
        step = np.linalg.solve(jac, r).reshape(ns, nn)
        w = w - step
        steps.append(float((np.abs(step).max(axis=1) / np.abs(w).max(axis=1)).max()))
        if steps[-1] < 1e-13:
            break
    scale = np.abs(w).max(axis=1)
    rel = np.abs(traj[-1].wall - w).max(axis=1) / scale
    ok = steps[-1] < 1e-13 and bool(np.all(rel <= 1e-12))
    verdict(
        "09b discrete-steady-state",
        ok,
        f"Newton steps={len(steps)} last relative step={steps[-1]:.1e} "
        f"final wall vs root, relative per species={[f'{v:.1e}' for v in rel]}",
    )


def test_c10a_shipped_surrogate_hypotheses(scenario):
    # With beta/gamma = 1 the H3 sum at (x, 0) is rho(x) (CO + O2 - CO2 - 150 T),
    # negative wherever rho > 0 since CO + O2 <= 0.15 in the box: a law that
    # produces CO2 and heat cannot pass H3.  The sampler must report that,
    # with a worst pair whose sum recomputes to the reported magnitude.
    cfg, _ = scenario
    rep = verify_hypotheses(cfg.kinetics, cfg.species, seed=0)
    weights = np.array([s.delta * s.beta_f / s.gamma_s for s in cfg.species])

    def h3_sum(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        dr = eval_rates(cfg.kinetics, x) - eval_rates(cfg.kinetics, y)
        return float(-np.sum(weights * dr * (x - y)))

    worst = rep.worst_h3
    recomputed = h3_sum(worst.x, worst.y) if worst is not None else math.nan
    reported = -worst.magnitude if worst is not None else math.nan
    worst_ok = recomputed == pytest.approx(reported, rel=1e-12, abs=0.0)  # nan never matches

    # the [kinetics] constants of demos/co_oxidation.cfg at its inlet state
    co, o2, co2, temp = cfg.initial.inlet[:, 0]
    rho = 400.0 * co * o2 * math.exp(-3000.0 / temp)
    analytic = rho * (co + o2 - co2 - 150.0 * temp)
    witness = h3_sum((co, o2, co2, temp), np.zeros(4))
    witness_ok = analytic < 0.0 and witness == pytest.approx(analytic, rel=1e-12)

    ok = rep.h1_pass and rep.h2_pass and not rep.h3_pass and worst_ok and witness_ok
    verdict(
        "10a surrogate-hypotheses",
        ok,
        f"H1={rep.h1_pass} H2={rep.h2_pass} H3={rep.h3_pass} "
        f"worst H3 sum={recomputed:.3g} (reported {reported:.3g}) "
        f"inlet witness={witness:.4g} analytic={analytic:.4g}",
    )


def test_c10b_broken_model_flagged():
    def rate(x):
        out = np.zeros_like(x)
        out[..., 1] = -1.0
        return out

    bad = KineticsModel(rate, np.ones(2))
    params = tuple(SpeciesParams(n, 1.0, 1.0, 1.0, -1) for n in ("a", "b"))
    rep = verify_hypotheses(bad, params, seed=3)
    ok = (
        not rep.h1_pass
        and rep.worst_h1 is not None
        and rep.worst_h1.species == 1
        and rep.worst_h1.magnitude == pytest.approx(1.0)
    )
    verdict(
        "10b broken-model-flagged",
        ok,
        f"h1={rep.h1_pass} worst at species={rep.worst_h1.species} "
        f"magnitude={rep.worst_h1.magnitude}",
    )


def test_c11_determinism_and_exit_codes(tmp_path):
    text = SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 2")
    cfg = tmp_path / "scenario_short.cfg"
    cfg.write_text(text)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["simulate", "--config", str(cfg), "--out", str(out_a)])
    code_b = main(["simulate", "--config", str(cfg), "--out", str(out_b)])
    identical = all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes()
        for n in ("report.txt", "probe.csv", "snapshot_final.csv")
    )

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(text.replace("dt = 0.02", "dt = wat"))
    code_bad = main(["simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "o2")])

    stuck_cfg = tmp_path / "stuck.cfg"
    stuck_cfg.write_text(text.replace("max_iter = 50", "max_iter = 2"))
    code_stuck = main(["simulate", "--config", str(stuck_cfg), "--out", str(tmp_path / "o3")])

    clean_cfg = tmp_path / "clean.cfg"
    clean_cfg.write_text(
        "[grid]\nnr = 8\nnz = 8\ndt = 0.05\nt_end = 0.25\n\n[kinetics]\nmodel = zero\n\n"
        "[species.a]\nbeta_f = 1.0\ngamma_s = 1.0\ntheta_s = 1.0\ndelta = -1\n"
        "inlet = const:0.5\nwall_init = const:0.5\n"
    )
    code_clean = main(["simulate", "--config", str(clean_cfg), "--out", str(tmp_path / "o4")])

    ok = (
        identical
        and code_a == code_b == 4  # known produced-species envelope failure
        and code_bad == 2
        and code_stuck == 3
        and code_clean == 0
    )
    verdict(
        "11 determinism-and-exit-codes",
        ok,
        f"byte-identical={identical} codes: scenario={code_a} bad-config={code_bad} "
        f"non-converged={code_stuck} clean={code_clean}",
    )
