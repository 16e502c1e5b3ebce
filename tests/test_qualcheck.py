import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graetzcat.coupler import CouplerSettings, Snapshot, run_simulation
from graetzcat.kinetics import default_box
from graetzcat.model import InitialData
from graetzcat.qualcheck import (
    CHECK_TOL,
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


def recorded(t, vals, wall):
    """A level's snapshot with the reductions ``record`` takes of its field."""
    return snap(t, wall, vals.min(axis=(1, 2)), vals.max(axis=(1, 2)))


def energies(traj):
    """E_is(t) = int C_is^2 dz of every level by the trapezoidal rule, (ns, levels)."""
    walls = np.stack([s.wall for s in traj], axis=-1)
    trap = np.full(walls.shape[1], 1.0 / (walls.shape[1] - 1))
    trap[[0, -1]] /= 2.0
    return np.einsum("izt,z->it", walls * walls, trap)


class TestNonnegativity:
    def levels(self, n=3, ns=2):
        """n clean levels at t = 0, 0.5, 1, ...: fields of 0.3, walls of 0.2."""
        return [(0.5 * k, np.full((ns, 4, 6), 0.3), np.full((ns, 6), 0.2)) for k in range(n)]

    def check(self, levels):
        return check_nonnegativity([recorded(*level) for level in levels])

    def test_positive_fields_pass(self):
        rep = self.check(self.levels())
        assert rep.passed
        assert (rep.violation_count, rep.species, rep.worst, rep.t_worst) == (0, None, 0.0, None)

    def test_tiny_negative_within_tolerance(self):
        levels = self.levels()
        levels[1][1][0, 2, 2] = -1e-9
        levels[2][2][1, 3] = -CHECK_TOL
        assert self.check(levels).passed

    def test_real_negative_reported_with_location(self):
        levels = self.levels()
        levels[1][1][0, 3, 1] = -1e-3
        rep = self.check(levels)
        assert (rep.passed, rep.violation_count, rep.species, rep.t_worst) == (False, 1, 0, 0.5)
        assert rep.worst == -CHECK_TOL + 1e-3

    def test_wall_violation_located(self):
        levels = self.levels()
        levels[2][2][1, 4] = -0.5
        rep = self.check(levels)
        assert (rep.passed, rep.species, rep.t_worst) == (False, 1, 1.0)

    @pytest.mark.parametrize("where", ["fluid", "wall"])
    def test_single_negative_node_listed(self, where):
        # one node just past the slack, every other node clean: the report
        # names it as its worst point
        levels = self.levels()
        bad = -2.0 * CHECK_TOL
        if where == "fluid":
            levels[1][1][1, 2, 5] = bad
        else:
            levels[1][2][1, 5] = bad
        rep = self.check(levels)
        assert (rep.passed, rep.violation_count, rep.species, rep.t_worst) == (False, 1, 1, 0.5)
        assert rep.worst == -CHECK_TOL - bad

    def test_counts_species_level_pairs(self):
        # three negative nodes of one species at one level are one pair;
        # the worst point is the largest gap, whichever species holds it
        levels = self.levels(4)
        levels[1][1][0, :3, 0] = -1e-3
        levels[1][2][0, 4] = -2e-3
        levels[2][2][1, 0] = -0.5
        levels[3][1][0, 1, 1] = -1e-3
        rep = self.check(levels)
        assert (rep.violation_count, rep.species, rep.t_worst) == (3, 1, 1.0)
        assert rep.worst == -CHECK_TOL + 0.5

    def test_worst_point_of_a_plateau_is_its_start(self):
        # the rule check_envelopes reports by: a one-ulp deeper node later
        # on a plateau moves the largest gap, never the reported time
        for k in (None, 3, 5):
            levels = self.levels(6)
            for j in range(2, 6):
                levels[j][2][0, 1] = -0.5
            if k is not None:
                levels[k][2][0, 1] = np.nextafter(-0.5, -1.0)
            rep = self.check(levels)
            assert (rep.violation_count, rep.species, rep.t_worst) == (4, 0, 1.0), k
            assert rep.worst == -CHECK_TOL - min(level[2][0, 1] for level in levels), k

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_fails(self, value):
        # a NaN minimum no longer hides a real negative node beside it
        levels = self.levels()
        levels[2][1][0, 1, 1] = value
        levels[2][1][0, 2, 2] = -1e-3
        rep = self.check(levels)
        assert (rep.violation_count, rep.species, rep.worst, rep.t_worst) == (1, 0, np.inf, 1.0)

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_verdict_from_the_reductions_matches_every_node(self, data):
        # fields in either layout march_fluid may store; the pairs that
        # fail are exactly those holding a value below -CHECK_TOL or not
        # finite, and the worst gap is the largest of those pairs'
        ns = data.draw(st.integers(1, 3))
        nr, nz = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        elements = st.one_of(
            st.floats(-1e-6, 1.0),
            st.sampled_from([0.0, -CHECK_TOL, -2.0 * CHECK_TOL, np.nan, np.inf, -np.inf]),
        )
        levels, bad, gaps = [], [], []
        for k in range(data.draw(st.integers(1, 4))):
            vals = data.draw(arrays(np.float64, (ns, nr + 1, nz + 1), elements=elements))
            wall = data.draw(arrays(np.float64, (ns, nz + 1), elements=elements))
            if data.draw(st.booleans()):
                vals = station_major(vals)
            levels.append((0.5 * k, vals, wall))
            nodes = np.concatenate([vals.reshape(ns, -1), wall], axis=1)
            bad.append(((nodes < -CHECK_TOL) | ~np.isfinite(nodes)).any(axis=1))
            finite = np.isfinite(nodes).all(axis=1)
            gaps.append(np.where(finite, -CHECK_TOL - nodes.min(axis=1), np.inf))
        rep = self.check(levels)
        assert rep.violation_count == int(np.sum(bad))
        assert rep.passed == (not np.any(bad))
        if not rep.passed:
            assert rep.worst == max(g for g, b in zip(np.ravel(gaps), np.ravel(bad)) if b)


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

    def test_non_finite_level_breaks_every_bound_of_its_species(self):
        # a NaN bulk max beside a wall value of 0.5, far past "down"'s 0.02;
        # a NaN wall node of "up"; an infinite high against an exponential
        # bound that overflows too: each is an infinite gap at its level
        clean = snap(0.0, [[0.01] * 3, [0.5] * 3], [0.0, 0.5], [0.02, 0.5])
        nan = np.nan
        traj = [clean, snap(1.0, [[0.5, 0.01, 0.01], [0.5, nan, 0.5]], [0.0, nan], [nan, nan])]
        c = self.checks(traj)
        for key in (("down", "upper_bound"), ("up", "lower_bound"), ("up", "exp_bound")):
            assert (c[key].passed, c[key].worst, c[key].t_worst) == (False, np.inf, 1.0), key
        big = [clean, snap(1e3, [[0.01] * 3, [np.inf] * 3], [0.0, 0.5], [0.02, np.inf])]
        c = self.checks(big, lam=1e3)
        assert c[("down", "upper_bound")].passed
        assert (c[("up", "exp_bound")].passed, c[("up", "exp_bound")].worst) == (False, np.inf)


class TestEnergyGrowth:
    def test_constant_run_has_zero_slope(self):
        cfg = constant_config(t_end=0.1, levels=(0.4, 0.9))
        _, traj = run_simulation(cfg, CouplerSettings())
        assert np.all(energy_growth_report(traj) == 0.0)
        assert energies(traj)[0] == pytest.approx(np.full(len(traj), 0.16), rel=1e-12)

    def test_envelope_dominates_by_construction(self):
        # the fit is the smallest line through E(0): it dominates every
        # sample and touches the steepest one
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 2.0, 15)
        traj = [snap(t, rng.uniform(0.0, 1.0, (1, 9)), [0.0], [1.0]) for t in times]
        slope, energy = energy_growth_report(traj)[0], energies(traj)[0]
        gap = slope * times + energy[0] - energy
        assert slope > 0.0 and gap[0] == 0.0
        assert np.all(gap >= -1e-12) and gap[1:].min() <= 1e-12

    def test_consumed_species_cap(self, scenario_run):
        cfg, _, report, traj, _ = scenario_run
        # consumed species: energy never exceeds A0^2, so does the envelope
        a0 = 0.02
        t_end = traj[-1].time
        assert energy_growth_report(traj)[0] * t_end + energies(traj)[0, 0] <= a0**2 + 1e-8

    def test_scenario_fit_well_posed(self, scenario_run):
        _, _, _, traj, _ = scenario_run
        assert np.all(np.isfinite(energy_growth_report(traj)))

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
            slope = energy_growth_report(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * stacked, (peak, stacked)
        energy = energies(traj)
        times = np.array([s.time for s in traj])
        fit = ((energy[:, 1:] - energy[:, :1]) / times[1:]).max(axis=1)
        assert np.array_equal(slope, np.maximum(fit, 0.0))


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
