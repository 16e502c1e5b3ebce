import math
import tracemalloc

import numpy as np
import pytest

from graetzcat.coupler import CouplerSettings, Snapshot, run_simulation
from graetzcat.kinetics import default_box
from graetzcat.model import FluidField, InitialData
from graetzcat.qualcheck import (
    CHECK_TOL,
    NonnegReport,
    NonnegViolation,
    check_envelopes,
    check_nonnegativity,
    energy_growth_report,
)
from graetzcat.model import SpeciesParams

from conftest import constant_config, station_major


def snap(t, wall, fmin, fmax):
    return Snapshot(
        time=t,
        wall=np.asarray(wall, dtype=float),
        fluid_min=np.asarray(fmin, dtype=float),
        fluid_max=np.asarray(fmax, dtype=float),
        residuals=(0.0,),
    )


def minima(vals):
    """Per-species minima of a field, as ``record`` hands them to the check."""
    return vals.min(axis=(1, 2))


class TestNonnegativity:
    def test_positive_fields_pass(self):
        vals = np.full((1, 5, 5), 0.3)
        rep = check_nonnegativity(FluidField(vals), np.full((1, 5), 0.2), minima(vals))
        assert rep.passed and rep.violation_count == 0

    def test_tiny_negative_within_tolerance(self):
        vals = np.full((1, 5, 5), 0.3)
        vals[0, 2, 2] = -1e-9
        rep = check_nonnegativity(FluidField(vals), np.zeros((1, 5)), minima(vals))
        assert rep.passed

    def test_real_negative_reported_with_location(self):
        vals = np.full((1, 5, 5), 0.3)
        vals[0, 3, 1] = -1e-3
        rep = check_nonnegativity(FluidField(vals), np.zeros((1, 5)), minima(vals))
        assert not rep.passed
        v = rep.violations[0]
        assert (v.species, v.where, v.index) == (0, "fluid", (3, 1))
        assert v.value == pytest.approx(-1e-3)

    def test_wall_violation_located(self):
        wall = np.zeros((2, 7))
        wall[1, 4] = -0.5
        vals = np.zeros((2, 3, 7))
        rep = check_nonnegativity(FluidField(vals), wall, minima(vals))
        assert not rep.passed
        assert rep.violations[0].where == "wall"
        assert rep.violations[0].index == (4,)

    @pytest.mark.parametrize("where", ["fluid", "wall"])
    def test_single_negative_node_listed(self, where):
        # one node just past the slack, every other node clean: the scan
        # behind the clean-case shortcut still finds it
        vals, wall = np.full((2, 4, 6), 0.3), np.full((2, 6), 0.2)
        bad = -2.0 * CHECK_TOL
        if where == "fluid":
            vals[1, 2, 5] = bad
        else:
            wall[1, 5] = bad
        rep = check_nonnegativity(FluidField(vals), wall, minima(vals))
        assert (rep.passed, rep.violation_count) == (False, 1)
        index = (2, 5) if where == "fluid" else (5,)
        assert rep.violations == (NonnegViolation(1, where, index, bad),)

    def test_same_report_on_either_layout(self):
        # march_fluid returns a station-major view; the violations, their
        # order among equal values included, do not depend on the layout
        rng = np.random.default_rng(4)
        vals = rng.choice([0.3, -1e-3, -2e-3, np.nan], size=(3, 9, 14), p=[0.7, 0.1, 0.1, 0.1])
        wall = rng.choice([0.2, -1e-3], size=(3, 14))
        other = station_major(vals)
        assert other.strides[1] == other.itemsize
        rep = check_nonnegativity(FluidField(vals), wall, minima(vals))
        assert rep.violation_count > NonnegReport.MAX_LISTED  # the listing is capped
        assert check_nonnegativity(FluidField(other), wall, minima(other)) == rep

    def test_nan_is_scanned_and_not_listed(self):
        vals = np.full((1, 3, 4), 0.3)
        vals[0, 1, 1] = np.nan
        rep = check_nonnegativity(FluidField(vals), np.zeros((1, 4)), minima(vals))
        assert (rep.passed, rep.violation_count, rep.violations) == (True, 0, ())


class TestEnvelopes:
    def params(self):
        return (
            SpeciesParams("down", 1.0, 1.0, 1.0, -1),
            SpeciesParams("up", 1.0, 1.0, 1.0, 1),
        )

    def checks(self, traj, lam=0.0):
        """The verdicts by (species, item) on data whose sup is 0.02 for
        "down" (its inlet's; its wall's is 0.01) and whose inf is 0.5 for "up"."""
        init = InitialData(
            inlet=np.array([[0.02, 0.02], [0.5, 0.5]]),
            wall_init=np.array([[0.01, 0.01, 0.01], [0.5, 0.5, 0.5]]),
        )
        return {(c.species, c.item): c for c in check_envelopes(traj, init, lam, self.params())}

    def test_consumed_species_upper_bound(self):
        traj = [snap(0.0, [[0.01] * 3, [0.5] * 3], [0.0, 0.5], [0.02, 0.5])]
        assert self.checks(traj)[("down", "upper_bound")].passed
        traj = [snap(1.0, [[0.05, 0.01, 0.01], [0.5] * 3], [0.0, 0.5], [0.02, 0.5])]
        bad = self.checks(traj)[("down", "upper_bound")]
        assert not bad.passed and bad.t_worst == 1.0

    def test_worst_point_of_a_plateau_is_its_start(self):
        # both bounds broken by a rise that settles on a plateau from t = 2 on:
        # a one-ulp rise of a later plateau value moves the largest gap,
        # never the reported time (the first largest gap would jump to it)
        for k in (None, 3, 5):
            down = np.array([0.3, 0.6, 0.9, 0.9, 0.9, 0.9])
            up = np.array([0.8, 1.1, 1.4, 1.4, 1.4, 1.4])
            if k is not None:
                down[k], up[k] = np.nextafter(down[k], 1.0), np.nextafter(up[k], 2.0)
            traj = [
                snap(float(t), [[d] * 3, [u] * 3], [0.0, 0.5], [d, u])
                for t, (d, u) in enumerate(zip(down, up))
            ]
            c = self.checks(traj)
            for key, worst in (
                (("down", "upper_bound"), down.max() - (0.02 + CHECK_TOL)),
                (("up", "exp_bound"), up.max() - (0.5 + CHECK_TOL)),
            ):
                assert not c[key].passed and c[key].t_worst == 2.0, (k, key)
                assert c[key].worst == worst, (k, key)

    def test_zero_rate_exp_envelope_is_the_constant_bound(self):
        high = 0.5 + 5e-9
        traj = [snap(9.0, [[0.0] * 3, [0.5, 0.5, high]], [0.0, 0.5], [0.0, high])]
        assert self.checks(traj)[("up", "exp_bound")].passed  # within tol of a_i0_max
        traj = [snap(9.0, [[0.0] * 3, [0.5, 0.5, 0.51]], [0.0, 0.5], [0.0, 0.51])]
        assert not self.checks(traj)[("up", "exp_bound")].passed

    def test_produced_species_lower_bound_equality(self):
        traj = [snap(t, [[0.0] * 3, [0.5] * 3], [0.0, 0.5], [0.0, 0.5]) for t in (0.0, 1.0)]
        c = self.checks(traj)
        assert c[("up", "lower_bound")].passed
        assert c[("up", "lower_bound")].worst == 0.0
        # a dip below a_i0_min = 0.5 by more than the tolerance fails by its gap
        traj.append(snap(2.0, [[0.0] * 3, [0.5, 0.4, 0.5]], [0.0, 0.5], [0.0, 0.5]))
        low = self.checks(traj)[("up", "lower_bound")]
        assert not low.passed and low.t_worst == 2.0
        assert low.worst == (0.5 - CHECK_TOL) - 0.4

    def test_exponential_growth_respected(self):
        # produced species reaching a_i0_max * e^{t} stays legal
        high = 0.5 * math.exp(1.0) - 1e-6
        traj = [snap(1.0, [[0.0] * 3, [high] * 3], [0.0, 0.0], [0.0, high])]
        assert self.checks(traj, lam=1.0)[("up", "exp_bound")].passed

    def test_overflow_safe_for_huge_lambda(self):
        traj = [snap(60.0, [[0.0] * 3, [0.6] * 3], [0.0, 0.0], [0.0, 0.6])]
        assert self.checks(traj, lam=80.0)[("up", "exp_bound")].passed  # bound is astronomically large

    def test_data_near_the_float_max(self):
        # twice the sup overflows: the evaluation box is inf, quietly, but
        # the envelopes start from the sup itself, so a0 stays finite and a
        # field that overflows to inf still breaks the bound it is held to
        big = 1e308
        init = InitialData(
            inlet=np.array([[big, big], [0.5, 0.5]]),
            wall_init=np.array([[0.5 * big] * 3, [big] * 3]),
        )
        assert np.array_equal(default_box(init), [np.inf, np.inf])
        assert np.array_equal(init.sup, [big, big]) and np.array_equal(init.inf, [0.5 * big, 0.5])
        at_sup = [snap(1.0, [[big] * 3, [big] * 3], [0.0, 0.5], [big, big])]
        assert all(c.passed for c in check_envelopes(at_sup, init, 0.0, self.params()))
        past = [snap(1.0, [[big, np.inf, big], [big] * 3], [0.0, 0.5], [np.inf, big])]
        c = {(c.species, c.item): c for c in check_envelopes(past, init, 0.0, self.params())}
        assert not c[("down", "upper_bound")].passed
        assert c[("down", "upper_bound")].worst == np.inf


class TestEnergyGrowth:
    def test_constant_run_has_zero_slope(self):
        cfg = constant_config(t_end=0.1, levels=(0.4, 0.9))
        _, traj = run_simulation(cfg, CouplerSettings())
        rep = energy_growth_report(traj)
        assert np.all(rep.slope == 0.0)
        assert rep.intercept[0] == pytest.approx(0.16, rel=1e-12)

    def test_envelope_dominates_by_construction(self):
        # the fit is the smallest line through E(0): it dominates every
        # sample and touches the steepest one
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 2.0, 15)
        traj = [snap(t, rng.uniform(0.0, 1.0, (1, 9)), [0.0], [1.0]) for t in times]
        rep = energy_growth_report(traj)
        gap = rep.slope[0] * times + rep.intercept[0] - rep.wall_energy[0]
        assert rep.slope[0] > 0.0 and gap[0] == 0.0
        assert np.all(gap >= -1e-12) and gap[1:].min() <= 1e-12

    def test_consumed_species_cap(self, scenario_run):
        cfg, _, report, traj, _ = scenario_run
        rep = energy_growth_report(traj)
        # consumed species: energy never exceeds A0^2, so does the envelope
        a0 = 0.02
        t_end = traj[-1].time
        assert rep.slope[0] * t_end + rep.intercept[0] <= a0**2 + 1e-8

    def test_scenario_fit_well_posed(self, scenario_run):
        _, _, _, traj, _ = scenario_run
        rep = energy_growth_report(traj)
        assert np.all(np.isfinite(rep.slope))

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            energy_growth_report([snap(0.0, [[1.0, 1.0]], [1.0], [1.0])])

    def test_squares_the_stacked_walls_in_place(self):
        # the shipped scenario's 3,001 levels of 4 species on 65 nodes: the
        # stacked walls take 6.2 MB, and squaring them into a copy took as
        # much again
        rng = np.random.default_rng(3)
        traj = [snap(0.01 * k, rng.uniform(0.0, 1.0, (4, 65)), [0.0] * 4, [1.0] * 4)
                for k in range(3001)]
        stacked = 4 * 65 * 3001 * 8
        tracemalloc.start()
        try:
            rep = energy_growth_report(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * stacked, (peak, stacked)
        walls = np.stack([s.wall for s in traj], axis=-1)
        trap = np.full(65, 1.0 / 64)
        trap[[0, -1]] /= 2.0
        assert np.array_equal(rep.wall_energy, np.einsum("izt,z->it", walls * walls, trap))


class TestEnvelopeFromSolverOutput:
    def test_consumed_sup_never_grows(self, scenario_run):
        # recomputing the bound from any later snapshot of a consumed
        # species never exceeds the initial one
        cfg, _, report, traj, _ = scenario_run
        for i, s in enumerate(cfg.species):
            if s.delta != -1:
                continue
            a0 = max(cfg.initial.inlet[i].max(), cfg.initial.wall_init[i].max())
            for snap_ in traj:
                later = max(float(snap_.fluid_max[i]), float(snap_.wall[i].max()))
                assert later <= a0 + 1e-8
