import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from graetzcat import wall_evolve
from graetzcat.model import SpeciesParams
from graetzcat.wall_evolve import step_wall, surface_operator, surface_rhs, surface_step


def params(theta=1.0, gamma=1.0, delta=1, n=1):
    return tuple(SpeciesParams(f"s{i}", 1.0, gamma, theta, delta) for i in range(n))


def step(prev, flux, rates, dt, p):
    """One step_wall call on a surface operator built for this step alone."""
    return step_wall(surface_step(prev, rates, surface_operator(p, prev.shape[1], dt)), flux)


def zeros(ns, nn):
    return np.zeros((ns, nn))


def trapz_z(values):
    nn = values.shape[-1]
    w = np.full(nn, 1.0 / (nn - 1))
    w[0] = w[-1] = 0.5 / (nn - 1)
    return values @ w


def reference_step(prev, flux, rates, dt, p):
    """The step as one scipy solve_banded call per species."""
    nn = prev.shape[1]
    dz = 1.0 / (nn - 1)
    rhs = dt * surface_rhs(prev, flux, rates, surface_operator(p, nn, dt))
    new = prev + rhs  # theta = 0: no diffusion to solve
    for i, s in enumerate(p):
        if s.theta_s == 0.0:
            continue
        a = dt * s.theta_s / dz**2
        ab = np.zeros((3, nn))
        ab[1, :] = 1.0 + 2.0 * a
        ab[0, 1] = -2.0 * a
        ab[0, 2:] = -a
        ab[2, :-2] = -a
        ab[2, -2] = -2.0 * a
        new[i] = prev[i] + solve_banded((1, 1), ab, rhs[i])
    return new


class TestStepWall:
    def test_constants_are_bitwise_fixed_points(self):
        wall = np.full((2, 33), 7.25)
        out = step(wall, zeros(2, 33), zeros(2, 33), 0.01, params(n=2))
        assert np.array_equal(out, wall)

    def test_heat_eigenmode_decay(self):
        nz, dt, steps = 128, 1e-4, 1000
        z = np.linspace(0.0, 1.0, nz + 1)
        wall = np.cos(np.pi * z)[None, :]
        zero = zeros(1, nz + 1)
        op = surface_operator(params(theta=1.0), nz + 1, dt)
        for _ in range(steps):
            wall = step_wall(surface_step(wall, zero, op), zero)
        amp = float(wall[0, 0])
        assert amp == pytest.approx(np.exp(-np.pi**2 * 0.1), abs=2e-2)
        # and the fully discrete eigenvalue reproduces the step map exactly
        sigma = 2.0 * (1.0 - np.cos(np.pi / nz)) * nz**2
        assert amp == pytest.approx((1.0 + dt * sigma) ** (-steps), abs=1e-12)

    def test_pure_reaction_decay(self):
        op = surface_operator(params(theta=0.0, delta=1), 11, 0.01)
        wall = np.ones((1, 11))
        for _ in range(100):
            wall = step_wall(surface_step(wall, -wall, op), zeros(1, 11))
        assert wall[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-2)

    def test_mass_conservation_per_step(self):
        rng = np.random.default_rng(4)
        wall = rng.uniform(0.0, 5.0, (1, 65))
        op = surface_operator(params(theta=0.7), 65, 0.01)
        for _ in range(50):
            before = trapz_z(wall)
            wall = step_wall(surface_step(wall, zeros(1, 65), op), zeros(1, 65))
            after = trapz_z(wall)
            assert abs(after - before) <= 1e-12 * max(1.0, abs(before))

    def test_comparison_principle(self):
        rng = np.random.default_rng(5)
        wall = rng.uniform(-2.0, 3.0, (1, 33))
        op = surface_operator(params(theta=1.3), 33, 0.05)
        lo, hi = wall.min(), wall.max()
        for _ in range(20):
            wall = step_wall(surface_step(wall, zeros(1, 33), op), zeros(1, 33))
            assert wall.min() >= lo - 1e-12
            assert wall.max() <= hi + 1e-12
            lo, hi = wall.min(), wall.max()

    def test_affine_superposition(self):
        rng = np.random.default_rng(6)
        nn = 41
        op = surface_operator(params(theta=0.9, gamma=2.0, delta=-1), nn, 0.02)

        def affine(w, f, r):
            return step_wall(surface_step(w, r, op), f)

        w1, w2 = rng.standard_normal((2, 1, nn))
        f1, f2 = rng.standard_normal((2, 1, nn))
        r1, r2 = rng.standard_normal((2, 1, nn))
        combined = affine(w1 + w2, f1 + f2, r1 + r2)
        # affine in (wall, flux, rates): the homogeneous parts superpose
        zero = affine(zeros(1, nn), zeros(1, nn), zeros(1, nn))
        split = affine(w1, f1, r1) + affine(w2, f2, r2) - zero
        assert np.allclose(combined, split, atol=1e-12)

    def test_flux_sign_and_gamma(self):
        # positive wall gradient of the bulk drains the surface
        p = (SpeciesParams("s", 1.0, 3.0, 0.0, 1),)
        wall = np.full((1, 9), 2.0)
        flux = np.full((1, 9), 0.5)
        out = step(wall, flux, zeros(1, 9), 0.1, p)
        assert np.allclose(out, 2.0 - 0.1 * 3.0 * 0.5)

    def test_matches_reference_step_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            nn = int(rng.integers(3, 130))
            ns = int(rng.integers(1, 5))
            thetas = rng.choice([0.0, 0.4, 1.0, 6.5], ns)
            p = tuple(
                SpeciesParams(f"s{i}", 1.0, float(rng.uniform(0.1, 3.0)), float(t), 1)
                for i, t in enumerate(thetas)
            )
            wall, flux, rates = rng.standard_normal((3, ns, nn)) * 10.0 ** rng.uniform(-3, 3)
            dt = float(10.0 ** rng.uniform(-5, 0))
            inp = (wall, flux, rates, dt, p)
            copies = [a.copy() for a in (wall, flux, rates)]
            assert np.array_equal(step(*inp), reference_step(*inp)), (nn, ns, dt)
            # the step solves in its own right-hand side, never in its inputs
            for a, before in zip((wall, flux, rates), copies):
                assert np.array_equal(a, before)

    def test_one_step_serves_every_flux(self):
        # the coupler builds one surface step per time step and tries each
        # Picard iterate's flux on it: every try is the fresh step's, bitwise
        rng = np.random.default_rng(9)
        p = params(theta=0.4, n=2) + (SpeciesParams("c", 1.0, 2.0, 0.0, -1),)
        wall, rates = rng.standard_normal((2, 3, 21))
        op = surface_operator(p, 21, 0.05)
        shared = surface_step(wall, rates, op)
        kept = [shared.reaction.copy(), shared.diffusion.copy()]
        for flux in rng.standard_normal((4, 3, 21)):
            want = reference_step(wall, flux, rates, 0.05, p)
            assert np.array_equal(step_wall(shared, flux), want)
        assert np.array_equal(shared.reaction, kept[0])
        assert np.array_equal(shared.diffusion, kept[1])

    def test_fortran_ordered_inputs_step_alike(self):
        # the solves run in place in the right-hand side, which must be
        # C-ordered whatever the order of the flux, rates and wall
        rng = np.random.default_rng(10)
        p = params(theta=0.8, n=3)
        wall, flux, rates = rng.standard_normal((3, 3, 15))
        want = step(wall, flux, rates, 0.1, p)
        got = step(*(np.asfortranarray(a) for a in (wall, flux, rates)), 0.1, p)
        assert np.array_equal(got, want)

    def test_factor_is_built_once_per_operator(self, monkeypatch):
        # thetas 0.789, 0, 0.789, 0.5: one factor over all four species,
        # built with the operator, and one solve per step
        nn, dt = 23, 0.0123
        p = params(theta=0.789) + (
            SpeciesParams("b", 1.0, 1.0, 0.0, 1),
            SpeciesParams("c", 1.0, 1.0, 0.789, 1),
            SpeciesParams("d", 1.0, 1.0, 0.5, 1),
        )
        factored, solved = [], []
        dgttrf, dgttrs = wall_evolve.dgttrf, wall_evolve.dgttrs
        monkeypatch.setattr(wall_evolve, "dgttrf", lambda *a: factored.append(a) or dgttrf(*a))
        def counted(*a, overwrite_b):
            solved.append(a[-1].shape)
            return dgttrs(*a, overwrite_b=overwrite_b)

        monkeypatch.setattr(wall_evolve, "dgttrs", counted)
        op = surface_operator(p, nn, dt)
        for seed in range(4):
            wall, flux, rates = np.random.default_rng(seed).standard_normal((3, 4, nn))
            step_wall(surface_step(wall, rates, op), flux)
        assert len(factored) == 1
        assert solved == [(4 * nn,)] * 4
        dl, d, du, du2, ipiv = op.factor
        assert d.shape == (4 * nn,)
        # zero between species, no row interchange across them (ipiv is
        # 1-based), and each species' rows its factor alone, the theta = 0
        # species' identity rows
        assert not np.any(dl[nn - 1 :: nn]) and not np.any(du[nn - 1 :: nn])
        assert np.array_equal(ipiv[nn - 1 :: nn], np.arange(nn, 4 * nn + 1, nn))
        for i, s in enumerate(p):
            a_dl, a_d, a_du, a_du2, a_ipiv = surface_operator((s,), nn, dt).factor
            k = i * nn
            assert np.array_equal(d[k : k + nn], a_d)
            assert np.array_equal(dl[k : k + nn - 1], a_dl)
            assert np.array_equal(du[k : k + nn - 1], a_du)
            assert np.array_equal(du2[k : k + nn - 2], a_du2)
            assert np.array_equal(ipiv[k : k + nn] - k, a_ipiv)
        assert np.all(d[nn : 2 * nn] == 1.0)
        assert not np.any(dl[nn : 2 * nn]) and not np.any(du[nn : 2 * nn])
        for arr in op.factor:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_lapack_error_raises(self, monkeypatch):
        monkeypatch.setattr(wall_evolve, "dgttrs", lambda *args, overwrite_b: (args[-1], -6))
        with pytest.raises(ValueError, match="argument 6"):
            step(np.ones((1, 9)), zeros(1, 9), zeros(1, 9), 0.1, params())

    def test_bad_dt_rejected(self):
        for dt in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt = "):
                surface_operator(params(), 9, dt)

    def test_bad_theta_rejected(self):
        # a NaN theta used to step to an all-NaN wall without an error
        for theta in (np.nan, -1e-3, np.inf):
            p = params() + (SpeciesParams("bad", 1.0, 1.0, theta, 1),)
            with pytest.raises(ValueError, match="species.bad.theta_s"):
                surface_operator(p, 9, 0.1)

    def test_bad_gamma_rejected(self):
        # a NaN gamma used to step to an all-NaN wall without an error
        for gamma in (np.nan, 0.0, -1.0, np.inf):
            p = params() + (SpeciesParams("bad", 1.0, gamma, 1.0, 1),)
            with pytest.raises(ValueError, match="species.bad.gamma_s"):
                surface_operator(p, 9, 0.1)

    def test_bad_delta_rejected(self):
        # delta = 7 used to scale the rate sevenfold
        for delta in (7, 0, -2, np.nan):
            p = params() + (SpeciesParams("bad", 1.0, 1.0, 1.0, delta),)
            with pytest.raises(ValueError, match="species.bad.delta"):
                surface_operator(p, 9, 0.1)

    def test_shape_mismatch_rejected(self):
        # a flux (step_wall) or rates (surface_step) of 8 nodes on a 9-node wall
        with pytest.raises(ValueError):
            step(np.ones((1, 9)), zeros(1, 8), zeros(1, 9), 0.1, params())
        with pytest.raises(ValueError):
            step(np.ones((1, 9)), zeros(1, 9), zeros(1, 8), 0.1, params())

    def test_operator_of_another_layout_rejected(self):
        # built for two species, or for 9 nodes: a wall of one species on 9
        # nodes fits neither
        wall = np.ones((1, 9))
        for op in (surface_operator(params(n=2), 9, 0.1), surface_operator(params(), 11, 0.1)):
            with pytest.raises(ValueError, match="layout"):
                surface_step(wall, zeros(1, 9), op)
            with pytest.raises(ValueError, match="layout"):
                surface_rhs(wall, zeros(1, 9), zeros(1, 9), op)
        # and a flux of another layout than the step's wall
        fitting = surface_step(wall, zeros(1, 9), surface_operator(params(), 9, 0.1))
        for flux in (zeros(2, 9), zeros(1, 11)):
            with pytest.raises(ValueError, match="layout"):
                step_wall(fitting, flux)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(min_value=4, max_value=200),
    st.floats(min_value=1e-5, max_value=10.0),
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_flux_and_reaction_free_steps_conserve_surface_mass(nz, dt, thetas, seed):
    # the mirrored ghost ends make the trapezoid integral a left null
    # vector of the diffusion matrix, so mass moves only by rounding
    ns = len(thetas)
    p = tuple(SpeciesParams(f"s{i}", 1.0, 1.0, t, 1) for i, t in enumerate(thetas))
    wall = np.random.default_rng(seed).uniform(-100.0, 100.0, (ns, nz + 1))
    out = step(wall, zeros(ns, nz + 1), zeros(ns, nz + 1), dt, p)
    scale = trapz_z(np.abs(wall)) * (1.0 + dt * max(thetas) * nz**2)
    assert np.all(np.abs(trapz_z(out) - trapz_z(wall)) <= 1e-15 * nz * scale)


class TestSurfaceRhs:
    def test_step_wall_integrates_surface_rhs(self):
        # without axial diffusion the step is explicit: prev + dt * rhs, bitwise
        rng = np.random.default_rng(7)
        p = (SpeciesParams("a", 1.0, 2.0, 0.0, -1), SpeciesParams("b", 1.0, 0.5, 0.0, 1))
        prev, flux, rates = rng.standard_normal((3, 2, 17))
        op = surface_operator(p, 17, 0.03)
        out = step_wall(surface_step(prev, rates, op), flux)
        assert np.array_equal(out, prev + 0.03 * surface_rhs(prev, flux, rates, op))

    def test_constant_data_is_exactly_zero(self):
        p = (SpeciesParams("a", 1.0, 2.0, 0.7, -1), SpeciesParams("b", 1.0, 0.5, 1.3, 1))
        wall = np.array([[7.25] * 33, [0.1] * 33])
        op = surface_operator(p, 33, 0.01)
        assert np.all(surface_rhs(wall, zeros(2, 33), zeros(2, 33), op) == 0.0)

