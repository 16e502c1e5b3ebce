import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dptsv

from graetzcat import fluid_march
from graetzcat.fluid_march import (
    BLOCK,
    BLOCK_MAX_NR,
    DIFFUSION_MAX,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from graetzcat.model import FluidField, SpeciesParams

from conftest import station_major

# Tests marked ``kernel`` pin how the march is computed (its impulse block,
# folded kernel, block size, station loop and flush); they go with that
# kernel, and only they read these names or ``station_operator``.  Every
# other test reaches the march only through march_operator and march_fluid,
# and judges it against the oracles below, which assemble the radial matrix
# from the finite-volume stencil themselves.
from graetzcat.fluid_march import (
    FLUSH,
    KERNEL_BYTES,
    BlockKernel,
    MarchOperator,
    RadialOperator,
    impulse_block,
)

# station counts around the station loop's flush size
KERNEL_STATION_COUNTS = [
    pytest.param(n, marks=pytest.mark.kernel) for n in (FLUSH, FLUSH + 1, 2 * FLUSH + 5)
]


def single(beta=1.0):
    return (SpeciesParams("c", beta, 1.0, 1.0, -1),)


def graetz(nr, nz, inlet=None, wall=None, beta=1.0):
    """The march of one species, by default the unit-inlet, cold-wall one."""
    if inlet is None:
        inlet = np.ones((1, nr + 1))
    if wall is None:
        wall = np.zeros((1, nz + 1))
    return march_fluid(wall, inlet, march_operator(single(beta), nr, nz))


def stencil(nr, nz):
    """The finite-volume pieces of the marching matrix over the nr interior
    nodes: (mass, k_diag, k_sup, face).

    Cells are r dr wide, the axis cell dr^2 / 8 (its symmetry closure), and
    mass is a cell's volume times the convective weight (1 - r^2) / dz.
    Face i sits at r = (i + 1/2) dr and conducts r_f / dr, so the
    volume-scaled diffusion matrix K has k_diag on its diagonal and k_sup
    off it.
    """
    dr, dz = 1.0 / nr, 1.0 / nz
    r = np.linspace(0.0, 1.0, nr + 1)[:nr]
    vol = r * dr
    vol[0] = dr * dr / 8.0
    face = (np.arange(nr) + 0.5) * dr
    k_diag = np.empty(nr)
    k_diag[0] = face[0] / dr
    k_diag[1:] = (face[:-1] + face[1:]) / dr
    return vol * ((1.0 - r * r) / dz), k_diag, -face[:-1] / dr, face


def marching_matrix(nr, nz, beta):
    """(diagonal, superdiagonal) of the symmetric matrix mass + beta K."""
    mass, k_diag, k_sup, _ = stencil(nr, nz)
    return mass + beta * k_diag, beta * k_sup


def m_matrix(diag, sup):
    """Superdiagonal nonpositive, diagonal positive, rows weakly diagonally
    dominant to rounding of the diagonal: the maximum principle's witness."""
    off = np.zeros_like(diag)
    off[:-1] += np.abs(sup)
    off[1:] += np.abs(sup)
    return bool(np.all(sup <= 0.0) and np.all(diag > 0.0) and np.all(diag - off >= -1e-15 * diag))


def reference_march(wall, inlet, betas):
    """The march as one LAPACK dptsv call per station and species, on the
    grid that the inlet (ns, nr + 1) and the wall (ns, nz + 1) fix.

    dptsv factors the species' stencil matrix afresh at every station
    (dpttrf) and solves with dpttrs, on the right-hand side of face
    differences: the face fluxes beta r_f (C_{i+1} - C_i) / dr, the axis
    face's flux being 0.
    """
    nr, nz = inlet.shape[1] - 1, wall.shape[1] - 1
    dr = 1.0 / nr
    face = stencil(nr, nz)[3]
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for i, beta in enumerate(betas):
        diag, sup = marching_matrix(nr, nz, beta)
        for k in range(1, nz + 1):
            pad = np.append(values[i, :nr, k - 1], wall[i, k])
            flux = face * (beta / dr) * np.diff(pad)
            rhs = np.append(flux[0], np.diff(flux))
            _, _, delta, info = dptsv(diag, sup, rhs)
            assert info == 0
            values[i, :nr, k] = pad[:nr] + delta
    values[:, nr, :] = wall
    return values


def extended_march(wall, inlet, beta):
    """The march of one species in extended precision, by Thomas elimination,
    on the grid that its inlet (nr + 1) and wall (nz + 1) fix.

    An independent check of the float64 LDL^T station loop: the stencil's
    matrix and right-hand side, another elimination, and np.longdouble
    arithmetic, whose rounding is far below float64's where it has more
    bits than float64 (x86-64: 64-bit mantissa).
    """
    nr, nz = len(inlet) - 1, len(wall) - 1
    diag, sup = (a.astype(np.longdouble) for a in marching_matrix(nr, nz, beta))
    face = stencil(nr, nz)[3].astype(np.longdouble) * beta * nr
    # forward elimination of the (fixed) matrix, once
    piv, ratio = np.empty(nr, np.longdouble), np.empty(nr - 1, np.longdouble)
    piv[0] = diag[0]
    for i in range(1, nr):
        ratio[i - 1] = sup[i - 1] / piv[i - 1]
        piv[i] = diag[i] - ratio[i - 1] * sup[i - 1]
    values = np.empty((nr + 1, nz + 1), np.longdouble)
    values[:, 0] = inlet
    values[nr] = wall
    for k in range(1, nz + 1):
        col = np.append(values[:nr, k - 1], values[nr, k])
        flux = np.append(0.0, face * np.diff(col))
        y = np.diff(flux)
        for i in range(1, nr):
            y[i] -= ratio[i - 1] * y[i - 1]
        x = np.empty(nr, np.longdouble)
        x[-1] = y[-1] / piv[-1]
        for i in range(nr - 2, -1, -1):
            x[i] = (y[i] - sup[i] * x[i + 1]) / piv[i]
        values[:nr, k] = col[:nr] + x
    return values


def graetz_modes(nr):
    """The two lowest modes of the unit-inlet, cold-wall problem on the
    stencil, exact in z: (lambda_0, each mode's centerline term at z = 1).

    With M the mass at dz = 1 and beta = 1 the semi-discrete field is
    C(z) = sum_n exp(-lambda_n^2 z) phi_n <phi_n, M 1> over K phi = lambda^2
    M phi, phi_n M-orthonormal.  Scaled by M^-1/2 the pencil is one
    symmetric tridiagonal matrix.  Its eigenvalues carry rounding of eps
    times its norm, 6.4e10 at nr = 4000 (the last cell's mass is 2 dr^2),
    so lambda_0^2 is taken as the Rayleigh quotient of its mode, with K
    applied in face-difference form.
    """
    mass, k_diag, k_sup, face = stencil(nr, 1)
    s = 1.0 / np.sqrt(mass)
    mu, v = eigh_tridiagonal(
        k_diag * s * s, k_sup * s[:-1] * s[1:], select="i", select_range=(0, 1)
    )
    phi = s[:, None] * v
    mu[0] = nr * face @ np.diff(phi[:, 0], append=0.0) ** 2 / (mass @ phi[:, 0] ** 2)
    return np.sqrt(mu[0]), np.exp(-mu) * phi[0] * (mass @ phi)


def species_of(betas):
    return tuple(SpeciesParams(f"s{i}", b, 1.0, 1.0, -1) for i, b in enumerate(betas))


def march(betas, inlet, wall, op=None):
    """The march of the species from inlet (ns, nr + 1) against wall (ns, nz + 1)."""
    op = op or march_operator(species_of(betas), inlet.shape[1] - 1, wall.shape[1] - 1)
    return march_fluid(wall, inlet, op)


def scaled_data(rng, ns, nr, nz, lo=-1.0):
    """Inlet (ns, nr + 1) and wall (ns, nz + 1) data, each species on its own scale."""
    scale = rng.uniform(0.01, 500.0, (ns, 1))
    return scale * rng.uniform(lo, 1.0, (ns, nr + 1)), scale * rng.uniform(lo, 1.0, (ns, nz + 1))


def assert_near(values, want, inlet, wall, rel):
    """Per species, no node further from ``want`` than rel times its largest datum."""
    err = np.abs(values - want).max(axis=(1, 2))
    data = np.abs(np.concatenate([inlet, wall], axis=1)).max(axis=1)
    assert np.all(err <= rel * data), err / data


def station_operator(betas, nr, nz):
    """The march operator with every species on the station path, whatever nr is."""
    with mock.patch.object(fluid_march, "BLOCK_MAX_NR", 0):
        return march_operator(species_of(betas), nr, nz)


class TestRadialOperator:
    """The finite-volume radial operator as the oracles assemble it, and the
    engine's builder's own input check."""

    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.7, 1e-6, 1e8])
    @pytest.mark.parametrize("nr,nz", [(8, 8), (32, 64), (100, 16), (1024, 64), (1024, 8192)])
    def test_m_matrix_structure(self, beta, nr, nz):
        assert m_matrix(*marching_matrix(nr, nz, beta))

    def test_m_matrix_witness_can_fail(self):
        diag, sup = marching_matrix(10, 8, 1.0)
        # a positive off-diagonal of the same size: every row stays dominant
        flipped = sup.copy()
        flipped[4] = -flipped[4]
        assert not m_matrix(diag, flipped)
        # a row whose diagonal is below the sum of its off-diagonals
        low = diag.copy()
        low[4] = 0.5 * (abs(sup[3]) + abs(sup[4]))
        assert not m_matrix(low, sup)

    def test_axis_row_symmetry_closure(self):
        dr, dz = 1.0 / 10, 1.0 / 8
        diag, sup = marching_matrix(10, 8, 2.0)
        # the axis cell, volume dr^2/8, with conv + 4 beta (C_0 - C_1)/dr^2
        assert diag[0] == pytest.approx(dr**2 / 8.0 * (1.0 / dz + 4.0 * 2.0 / dr**2))
        assert sup[0] == pytest.approx(-2.0 / 2.0)

    @pytest.mark.kernel
    def test_rejects_nonpositive_beta(self):
        for beta in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                RadialOperator.build(8, 8, (1.0, beta))


class TestMarchFluid:
    def test_constants_are_exact_fixed_points(self):
        nr, nz = 16, 24
        c = np.array([0.37, 500.0])
        params = (SpeciesParams("a", 1.0, 1, 1, -1), SpeciesParams("b", 2.5, 1, 1, 1))
        inlet, wall = np.tile(c[:, None], (1, nr + 1)), np.tile(c[:, None], (1, nz + 1))
        field = march_fluid(wall, inlet, march_operator(params, nr, nz))
        assert np.array_equal(field.values, np.tile(c[:, None, None], (1, nr + 1, nz + 1)))

    def test_trace_and_inlet_are_bitwise(self):
        rng = np.random.default_rng(1)
        nz = 20
        for nr in (12, BLOCK_MAX_NR + 1):  # both paths
            inlet = rng.uniform(0.0, 1.0, (1, nr + 1))
            wall = rng.uniform(0.0, 1.0, (1, nz + 1))
            field = march((1.0,), inlet, wall)
            assert np.array_equal(field.values[:, nr, :], wall)
            # the inlet column is exact away from the corner, which the trace owns
            assert np.array_equal(field.values[:, :nr, 0], inlet[:, :nr])

    def test_discrete_maximum_principle_random_data(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            nr, nz = 16, 32
            inlet = rng.uniform(0.3, 0.7, (1, nr + 1))
            wall = rng.uniform(0.3, 0.7, (1, nz + 1))
            field = graetz(nr, nz, inlet, wall, beta=float(rng.uniform(0.2, 3.0)))
            lo = min(inlet.min(), wall.min())
            hi = max(inlet.max(), wall.max())
            assert field.values.min() >= lo - 1e-10
            assert field.values.max() <= hi + 1e-10

    def test_centerline_against_fine_reference(self):
        # modest version of the refinement oracle (the full one is acceptance)
        fine = graetz(512, 1024).values[0, 0, -1]
        coarse = graetz(64, 128).values[0, 0, -1]
        assert abs(coarse - fine) < 1e-3

    def test_species_batching_matches_single_solves(self):
        rng = np.random.default_rng(3)
        # one shared beta, and mixed betas in one march; one partial block,
        # and several blocks with a partial last one, and the station path
        batches = [(1.7,) * g for g in range(1, 5)] + [(1.7, 0.9, 1.7, 2.3)]
        for nr in (10, BLOCK_MAX_NR + 1):
            for nz in (BLOCK - 2, 3 * BLOCK + 5):
                for betas in batches:
                    g = len(betas)
                    inlet = rng.uniform(0.0, 1.0, (g, nr + 1))
                    wall = rng.uniform(0.0, 1.0, (g, nz + 1))
                    batched = march(betas, inlet, wall)
                    for i in range(g):
                        solo = march(betas[i : i + 1], inlet[i : i + 1], wall[i : i + 1])
                        assert np.array_equal(batched.values[i], solo.values[0]), (nr, nz, betas, i)

    @pytest.mark.parametrize(
        "betas, nr, nz",
        [
            ((1.0,), BLOCK_MAX_NR + 1, 16),  # one species
            ((1.3, 1.3, 1.3, 1.3), 80, 32),  # one run of four
            ((1.0, 2.0, 1.0), 70, 12),  # equal betas apart
            ((0.7, 1.9), 96, 24),
            ((0.3, 2.5, 2.5), 257, 6),  # the refinement study's radial sizes
            ((1.0,), 1024, 4),
        ],
    )
    def test_station_path_matches_reference_march_bitwise(self, betas, nr, nz):
        # the station path factors the oracle's matrix once and solves each
        # station with it; dptsv factors it afresh, so bitwise equality says
        # the engine marches the stencil's matrix on the stencil's fluxes
        rng = np.random.default_rng(nr * nz + len(betas))
        inlet, wall = scaled_data(rng, len(betas), nr, nz, lo=0.0)
        values = march(betas, inlet, wall).values
        assert np.array_equal(values, reference_march(wall, inlet, betas))

    @pytest.mark.parametrize("nz", [2 * BLOCK + 3, *KERNEL_STATION_COUNTS])
    def test_large_radial_grids_take_the_station_path(self, nz):
        rng = np.random.default_rng(6)
        betas = (1.0, 2.0, 1.0)
        nr = BLOCK_MAX_NR + 1
        inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, nz + 1))
        field = march(betas, inlet, wall)
        assert np.array_equal(field.values, reference_march(wall, inlet, betas))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here"
    )
    @pytest.mark.parametrize("nr,nz", [(BLOCK_MAX_NR + 1, 9), (257, 6), (1024, 4)])
    def test_station_path_matches_an_extended_precision_march(self, nr, nz):
        rng = np.random.default_rng(nr)
        betas = (0.05, 1.0, 20.0)
        inlet, wall = scaled_data(rng, len(betas), nr, nz)
        values = march(betas, inlet, wall).values
        for i, beta in enumerate(betas):
            one = slice(i, i + 1)
            want = extended_march(wall[i], inlet[i], beta)[None]
            assert_near(values[one], want, inlet[one], wall[one], 1e-12)

    @pytest.mark.parametrize("nr", [32, BLOCK_MAX_NR])
    def test_long_block_march_matches_reference_march(self, nr):
        # 64 (or, with four distinct betas at nr = 64, 128 half-size) blocks,
        # each carry taken from the one before: errors would accumulate down
        # the march
        rng = np.random.default_rng(nr)
        for betas in ((0.3, 0.3, 2.5), (0.8, 1.0, 1.25, 2.0)):
            inlet, wall = scaled_data(rng, len(betas), nr, 1024)
            values = march(betas, inlet, wall).values
            assert_near(values, reference_march(wall, inlet, betas), inlet, wall, 1e-13)

    def test_shape_mismatch_rejected(self):
        op = march_operator(single(), 8, 8)
        with pytest.raises(ValueError, match="wall shape"):
            march_fluid(np.zeros((1, 5)), np.ones((1, 9)), op)
        with pytest.raises(ValueError, match="inlet shape"):
            march_fluid(np.zeros((1, 9)), np.ones((1, 5)), op)

    def test_operator_of_another_grid_or_species_count_rejected(self):
        inlet, wall = np.ones((1, 9)), np.zeros((1, 9))
        field = march((1.0,), inlet, wall)
        for op in (
            march_operator(species_of((1.0, 1.0)), 8, 8),
            march_operator(single(), 8, 12),
            march_operator(single(), 10, 8),
        ):
            with pytest.raises(ValueError, match="shape"):
                march_fluid(wall, inlet, op)
        # the integral form reads only the betas, one per species
        with pytest.raises(ValueError, match="beta shape"):
            wall_flux_integral(field, march_operator(species_of((1.0, 1.0)), 8, 8).beta)

    @pytest.mark.parametrize("nr", [BLOCK_MAX_NR, BLOCK_MAX_NR + 1])  # both paths
    def test_field_is_stored_station_major(self, nr):
        # nz = 2 BLOCK + 3: a partial last block on the block path
        rng = np.random.default_rng(nr)
        nz = 2 * BLOCK + 3
        inlet, wall = rng.uniform(0.0, 1.0, (2, nr + 1)), rng.uniform(0.0, 1.0, (2, nz + 1))
        values = march((0.5, 2.0), inlet, wall).values
        assert values.shape == (2, nr + 1, nz + 1)
        assert values.strides[1] == values.itemsize  # a station's nodes are contiguous
        assert values.strides[2] == (nr + 1) * values.itemsize

    # -- kernel: the station loop on small radial grids, the impulse block,
    # the operator's factors and kernels, and LAPACK's error path

    @pytest.mark.kernel
    @pytest.mark.parametrize(
        "betas, nr, nz",
        [
            ((1.0,), 16, 16),  # one species
            ((1.3, 1.3, 1.3, 1.3), 32, 32),  # one batch of four
            ((1.0, 2.0, 1.0), 8, 12),  # equal betas apart
            ((0.7, 1.9), 40, 24),  # nr != nz
        ],
    )
    def test_matches_reference_march_bitwise(self, betas, nr, nz):
        rng = np.random.default_rng(nr * nz + len(betas))
        inlet, wall = scaled_data(rng, len(betas), nr, nz, lo=0.0)
        values = march(betas, inlet, wall, station_operator(betas, nr, nz)).values
        assert np.array_equal(values, reference_march(wall, inlet, betas))

    @pytest.mark.kernel
    def test_matches_reference_march_on_small_radial_grids(self):
        # each nr gives the column buffers other strides; numpy picks its
        # inner loops by stride
        rng = np.random.default_rng(5)
        betas = (1.0, 2.0, 1.0)
        for nr in range(4, 20):
            inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, 6))
            values = march(betas, inlet, wall, station_operator(betas, nr, 5)).values
            assert np.array_equal(values, reference_march(wall, inlet, betas)), nr

    @pytest.mark.kernel
    @pytest.mark.parametrize("nr,nz,beta", [(4, 4, 1.0), (12, 40, 0.3), (BLOCK_MAX_NR, 64, 2.5)])
    def test_impulse_block_is_the_station_march_of_its_impulses(self, nr, nz, beta):
        op = RadialOperator.build(nr, nz, (beta,))  # stations at the nz grid's dz
        for b in (BLOCK, BLOCK // 2):  # both block sizes the march takes
            qt = impulse_block(nr, nz, beta, b)
            assert qt.shape == (nr + b, b * nr)
            assert not qt.flags.writeable
            assert np.all(qt >= 0.0)
            # station-major marches, (1, b + 1 stations, nr + 1 nodes)
            for i in range(nr):  # a unit deviation at node i under a zero wall
                values = np.zeros((1, b + 1, nr + 1))
                values[0, 0, i] = 1.0
                fluid_march._march_stations(values, np.zeros((1, b + 1)), op)
                assert np.array_equal(qt[i].reshape(b, nr), values[0, 1:, :nr]), (b, i)
            for m in range(b):  # a unit drop into station m + 1 from a constant 1
                values = np.ones((1, b + 1, nr + 1))
                wall = (np.arange(b + 1) <= m).astype(float)[None, :]
                fluid_march._march_stations(values, wall, op)
                want = values[0, 1:, :nr] - wall[0, 1:, None]
                assert np.array_equal(qt[nr + m].reshape(b, nr), want), (b, m)
            # causal: a drop into station m + 1 leaves the stations before it at 0
            assert np.all(qt[nr:].reshape(b, b, nr)[np.tril_indices(b, -1)] == 0.0)
        # the kernel folded from it is built once per (nr, nz, betas)
        ops = [march_operator(single(beta), nr, nz) for _ in range(2)]
        assert ops[1].kernel is ops[0].kernel

    @pytest.mark.kernel
    def test_impulse_block_slab_fits_its_stations(self):
        # 136 impulses over 8 stations at nr = 128: their field and the
        # block take 1.3 and 1.1 MB; a slab of FLUSH stations would add 9 MB
        tracemalloc.start()
        try:
            impulse_block(128, 8192, 1.0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    @pytest.mark.kernel
    def test_factor_is_built_once_per_grid_and_beta(self, monkeypatch):
        # betas 1.2, 3.4, 1.2: on the station path one factor over all
        # three, zero between species, whatever their order
        params = species_of((1.2, 3.4, 1.2))
        factored = []
        dpttrf = fluid_march.dpttrf
        monkeypatch.setattr(fluid_march, "dpttrf", lambda *a: factored.append(a) or dpttrf(*a))
        nr = BLOCK_MAX_NR + 1
        op = march_operator(params, nr, 20)
        assert len(factored) == 1
        solver = op.kernel
        assert isinstance(solver, RadialOperator) and op.block == 1
        assert solver.face.shape == (3, nr)
        assert solver.d.shape == (3 * nr,) and solver.e.shape == (3 * nr - 1,)
        assert np.all(solver.e[nr - 1 :: nr] == 0.0)
        # each species' block of the factor is that species' factor alone
        alone = RadialOperator.build(nr, 20, (3.4,))
        assert np.array_equal(solver.d[nr : 2 * nr], alone.d)
        assert np.array_equal(solver.e[nr : 2 * nr - 1], alone.e)
        assert np.array_equal(solver.face[1], alone.face[0])
        # the block path: one kernel over every species, its carries the last
        # station of each beta's impulse block; the kernel is kept for the
        # process and built once per (nr, nz, betas).  Two distinct betas at
        # nr = 64 would take 1.3 MB at BLOCK, so B halves
        fluid_march._block_kernel.cache_clear()
        for nr, nz, b in ((12, 20, BLOCK), (BLOCK_MAX_NR, 64, BLOCK // 2)):
            for _ in range(2):
                op = march_operator(params, nr, nz)
                assert isinstance(op.kernel, BlockKernel) and op.block == b
                for i, beta in enumerate((1.2, 3.4, 1.2)):
                    qt = impulse_block(nr, nz, beta, b)
                    assert np.array_equal(op.kernel.carry[i], qt[:, -nr:]), (nr, i)
        assert fluid_march._block_kernel.cache_info().misses == 2

    @pytest.mark.kernel
    @pytest.mark.parametrize("nz", KERNEL_STATION_COUNTS)
    def test_one_solve_per_station(self, monkeypatch, nz):
        # every species in one dpttrs call per station, on its flat rows
        calls = []
        dpttrs = fluid_march.dpttrs
        monkeypatch.setattr(
            fluid_march,
            "dpttrs",
            lambda d, e, b, overwrite_b: calls.append(b.shape) or dpttrs(d, e, b, overwrite_b),
        )
        nr = BLOCK_MAX_NR + 1
        rng = np.random.default_rng(nz)
        betas = (1.0, 2.0, 1.0, 0.5)
        inlet, wall = rng.uniform(0.0, 1.0, (4, nr + 1)), rng.uniform(0.0, 1.0, (4, nz + 1))
        march(betas, inlet, wall)
        assert calls == [(4 * nr,)] * nz

    @pytest.mark.kernel
    def test_impulse_block_raises_on_a_negative_entry(self, monkeypatch):
        station = fluid_march._march_stations

        def undershoot(values, wvals, op):
            station(values, wvals, op)
            values[0, 1, 2] = -1e-300

        monkeypatch.setattr(fluid_march, "_march_stations", undershoot)
        with pytest.raises(RuntimeError, match="maximum principle"):
            impulse_block(8, 8, 1.0, BLOCK)

    @pytest.mark.kernel
    def test_lapack_error_raises(self, monkeypatch):
        monkeypatch.setattr(fluid_march, "dpttrs", lambda d, e, b, overwrite_b: (b, -2))
        with pytest.raises(ValueError, match="argument 2"):
            graetz(BLOCK_MAX_NR + 1, 8)  # station path
        with pytest.raises(ValueError, match="argument 2"):
            impulse_block(8, 8, 1.0, BLOCK)  # the block path's one LAPACK use


class TestMarchOperator:
    @pytest.mark.parametrize("nr", [8, BLOCK_MAX_NR + 16])
    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_beta_rejected(self, nr, beta):
        # a NaN beta used to march to an all-NaN field on the station path,
        # and to raise a misleading maximum-principle error on the block path
        params = single() + (SpeciesParams("bad", beta, 1.0, 1.0, -1),)
        with pytest.raises(ValueError, match="species.bad.beta_f"):
            march_operator(params, nr, 8)

    def test_sizes_it_cannot_build_rejected(self):
        # nr or nz = 0 used to raise ZeroDivisionError and a negative size
        # to fail in numpy; each is now a ValueError that names it
        for nr, nz in ((0, 8), (8, 0), (0, 0), (-1, 8), (8, -3)):
            with pytest.raises(ValueError, match=rf"nr = {nr}, nz = {nz} needs nr >= 1 and "):
                march_operator(single(), nr, nz)
        # nr = 1 marches on either path (beta = 300 at nz = 1 is past
        # DIFFUSION_MAX: the station path on a 1x1 system).  Its one interior
        # node, volume 1/8 and face 1/2, falls by nz / (nz + 4 beta) per
        # station under a cold wall
        for beta, nz in ((1.0, 1), (1.0, 3), (300.0, 1)):
            op = march_operator(single(beta), 1, nz)
            assert isinstance(op.kernel, RadialOperator) == (beta / nz > DIFFUSION_MAX)
            axis = march_fluid(np.zeros((1, nz + 1)), np.ones((1, 2)), op).values[0, 0]
            assert axis == pytest.approx((nz / (nz + 4.0 * beta)) ** np.arange(nz + 1), rel=1e-14)

    @pytest.mark.kernel
    def test_kernels_follow_the_path(self):
        # one kernel over every species on either path: the block path up to
        # nr = BLOCK_MAX_NR and a diffusion number beta nr^2 / nz of
        # DIFFUSION_MAX, the station path past either
        params = species_of((0.5, 0.5, 2.0))
        for nr, nz, kind in (
            (BLOCK_MAX_NR, 32, BlockKernel),  # 2 * 64^2 / 32 = 256
            (BLOCK_MAX_NR, 31, RadialOperator),
            (BLOCK_MAX_NR + 1, 1024, RadialOperator),
        ):
            op = march_operator(params, nr, nz)
            assert isinstance(op, MarchOperator) and (op.nr, op.nz) == (nr, nz)
            assert isinstance(op.kernel, kind), (nr, nz)
        assert 2.0 * BLOCK_MAX_NR**2 / 32 == DIFFUSION_MAX
        # the benchmark workloads' marches stay on the block path:
        # co_oxidation, split_beta and graetz_refine's block-path grids
        for betas, nr, nz in (
            ((1.0,) * 4, 32, 64),
            ((0.8, 1.0, 1.25, 2.0), 64, 128),
            ((1.0,), 32, 64),
            ((1.0,), 64, 128),
            ((1.0,), 64, 8192),
        ):
            op = march_operator(species_of(betas), nr, nz)
            assert isinstance(op.kernel, BlockKernel), (betas, nr, nz)
        # the block march's worst draw, at a diffusion number of 13,230
        assert isinstance(march_operator(species_of((0.05, 20.0)), 63, 6).kernel, RadialOperator)

    @pytest.mark.kernel
    @pytest.mark.parametrize(
        "betas, nr, nz, block",
        [
            ((1.0,) * 4, 32, 64, BLOCK),  # co_oxidation
            ((1.0,), 32, 8192, BLOCK),  # graetz_refine's block-path grids
            ((1.0,), 64, 8192, BLOCK),
            ((0.8, 1.0, 1.25, 2.0), 64, 128, BLOCK // 2),  # split_beta
        ],
    )
    def test_block_size_follows_the_kernel_bytes(self, betas, nr, nz, block):
        distinct = len(set(betas)) * (nr + BLOCK) * BLOCK * nr * 8
        assert (distinct > KERNEL_BYTES) == (block < BLOCK)
        kernel = march_operator(species_of(betas), nr, nz).kernel
        assert kernel.block == block
        assert kernel.carry.shape == (len(betas), nr + block, nr)
        assert kernel.out.shape == (len(betas), nr + block + 1, block * (nr + 1))

    @pytest.mark.kernel
    def test_one_stacked_block_march_per_march(self, monkeypatch):
        # the block path marches every species in one call, whatever their
        # betas, so a per-run loop cannot come back unnoticed
        calls = []
        blocks = fluid_march._march_blocks
        monkeypatch.setattr(
            fluid_march, "_march_blocks", lambda *a: calls.append(a[2].out.shape) or blocks(*a)
        )
        nr, nz = 16, 40
        rng = np.random.default_rng(8)
        inlet, wall = rng.uniform(0.0, 1.0, (4, nr + 1)), rng.uniform(0.0, 1.0, (4, nz + 1))
        march((0.8, 1.0, 1.25, 2.0), inlet, wall)
        assert calls == [(4, nr + BLOCK + 1, BLOCK * (nr + 1))]
        for betas in ((0.8, 1.0, 1.25, 2.0), (1.5,) * 4):
            kernel = march_operator(species_of(betas), nr, nz).kernel
            for arr in (kernel.carry, kernel.out):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0, 0] = 0.0
        # one beta: one folded block and one carry copy, broadcast to every
        # species; the carries are the plain block's last station, bitwise
        qt = impulse_block(nr, nz, 1.5, BLOCK)
        assert kernel.carry.strides[0] == kernel.out.strides[0] == 0
        assert np.array_equal(kernel.carry[0], qt[:, -nr:])
        assert np.all(qt >= 0.0)
        # a second operator on the same grid and betas shares the first one's kernel
        again = march_operator(species_of((1.5,) * 4), nr, nz).kernel
        assert again is kernel

    @pytest.mark.kernel
    def test_kernel_build_holds_no_stacked_copy(self):
        # split_beta's four betas at 64x128 (B = 8): the build keeps the
        # folded kernel (1.21 MB) and the carries (0.15 MB) alone.  Each
        # plain impulse block is folded and dropped before the next is
        # built, so neither the four blocks (1.18 MB) nor a stacked copy of
        # them outlives the build, and its peak is the kernel plus the
        # transients of one block's build
        betas, nr, nz = (0.8, 1.0, 1.25, 2.0), 64, 128
        fluid_march._block_kernel.cache_clear()  # so the build runs under the tracer
        tracemalloc.start()
        try:
            kernel = march_operator(species_of(betas), nr, nz).kernel
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            impulse_block(nr, nz, betas[0], kernel.block)
            one = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        kept = kernel.carry.nbytes + kernel.out.nbytes
        assert kernel.block == BLOCK // 2
        assert held < kept + 5e4, (held, kept)
        assert peak < kept + one + 5e4, (peak, kept, one)


class TestGraetzOracle:
    """The march against the Graetz series C = sum A_n phi_n exp(-beta lambda_n^2 z),
    (1/r)(r phi')' + lambda^2 (1 - r^2) phi = 0 (Graetz 1883), solved on
    the same stencil exactly in z by one symmetric eigensolve."""

    # the measured error of the march, a dr^2 + b dz: least squares over
    # nr = 16, 32, 64 at nz = 1024 and 4096
    A_DR2, B_DZ = 4.94, 27.0

    def test_lowest_mode_and_outlet_centerline(self):
        lam, terms = graetz_modes(4000)
        assert lam == pytest.approx(2.7043644, abs=1e-7)  # Shah & London tabulate 2.70436
        assert terms[0] == pytest.approx(9.83930e-4, rel=1e-5)
        assert abs(terms[1]) < 1e-19  # the next mode, and every one above it, is negligible at z = 1

    def test_march_error_follows_its_model(self):
        exact = graetz_modes(4000)[1][0]

        def error(nr, nz):
            return graetz(nr, nz).values[0, 0, -1] / exact - 1.0

        assert error(32, 64) == pytest.approx(0.4811, abs=5e-5)
        assert error(32, 1024) == pytest.approx(0.0312, abs=5e-5)
        for nr, nz in ((16, 1024), (32, 1024), (64, 1024), (16, 4096), (64, 4096), (128, 2048)):
            model = self.A_DR2 / nr**2 + self.B_DZ / nz
            assert error(nr, nz) == pytest.approx(model, rel=0.02), (nr, nz)


def uniformized_propagator(nr, nz, beta):
    """(dz A, E, psi, s, m): the stencil's station step exact in z, by
    uniformization (Moler & Van Loan, SIAM Review 45, 2003).

    With M = mass dz the deviation D = C - w from the wall value obeys
    M dD/dz = -beta K D - M w', so across a station with w linear in z,
    D+ = E D - (w+ - w) psi, E = exp(dz A), A = -M^-1 beta K, and
    dz psi = int_0^dz exp(s A) 1 ds.  Both are blocks of exp(H),
    H = dz [[A, 1], [0, 0]].  A is nonnegative off its diagonal, so with
    c = max(-diag H), X = (H + c I) / 2^s >= 0 for c / 2^s <= 1/2, and
    exp(H) = (exp(-c / 2^s) sum_k X^k / k!)^(2^s): sums and products of
    nonnegative numbers, nonnegative in floating point with no clipping.
    The series stops at its m-th term, the first whose entries are all at
    most 2^-60.
    """
    mass, k_diag, k_sup, _ = stencil(nr, nz)  # mass carries the 1 / dz
    n = nr
    i = np.arange(n)
    h = np.zeros((n + 1, n + 1))
    h[i, i] = -beta * k_diag / mass
    h[i[:-1], i[1:]] = -beta * k_sup / mass[:-1]
    h[i[1:], i[:-1]] = -beta * k_sup / mass[1:]
    h[:n, n] = 1.0 / nz
    c = -h.diagonal().min()
    s = max(0, math.ceil(math.log2(2.0 * c)))
    x = (h + c * np.eye(n + 1)) / 2.0**s
    t = term = np.eye(n + 1)
    m = 0
    while term.max() > 2.0**-60:
        m += 1
        term = term @ x / m
        t = t + term
    t *= math.exp(-c / 2.0**s)
    for _ in range(s):
        t = t @ t
    return h[:n, :n], t[:n, :n], t[:n, n] / (1.0 / nz), s, m


class TestUniformizedPropagator:
    """The exact-in-z station step, built on the stencil by uniformization:
    a nonnegative E without clipping, its row sums and psi within their
    rounding slack of the exact relations, and the Graetz outlet within the
    march's radial error alone."""

    @pytest.mark.parametrize(
        "nr, nz, min_e, centerline_error",
        [(32, 64, 1.7855e-7, 0.0047650), (64, 8192, 2.4132e-93, 0.0011896)],
    )
    def test_graetz_outlet_has_only_the_radial_error(self, nr, nz, min_e, centerline_error):
        # backward Euler errs by +48.11 % at 32x64 and +0.45 % at 64x8192;
        # what is left is the 4.94 dr^2 term of the march's error model
        exact = graetz_modes(4000)[1][0]
        _, e, _, _, _ = uniformized_propagator(nr, nz, 1.0)
        assert e.min() == pytest.approx(min_e, rel=1e-4)
        d = np.ones(nr)  # unit inlet, cold wall: the wall never moves
        for _ in range(nz):
            d = e @ d
        assert d[0] / exact - 1.0 == pytest.approx(centerline_error, abs=5e-7)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.7, 1e-6, 1e8])
    @pytest.mark.parametrize("nr,nz", [(8, 8), (32, 64), (100, 16)])
    def test_propagator_is_nonnegative(self, beta, nr, nz):
        # the M-matrix test's grids with nr <= 100 (128x8192 is checked
        # below); its nr = 1024 grids take 24-52 dense 1025x1025 squarings
        # per beta, about 19 s for the ten on a 2-core host
        _, e, psi, _, _ = uniformized_propagator(nr, nz, beta)
        assert np.all(e >= 0.0) and np.all(psi >= 0.0)

    @pytest.mark.parametrize("nr, nz", [(32, 64), (32, 1024), (64, 8192), (128, 8192)])
    def test_row_sums_and_psi_within_their_rounding_slack(self, nr, nz):
        # exact: E 1 <= 1, E 1 <= psi <= 1 and (dz A) psi = E 1 - 1, for a
        # matrix dz A with nonpositive row sums; rounding leaves the computed
        # dz A's row sums up to `excess` above 0 (about u c), and E 1 reaches
        # 1 + 1.15e-14 at 32x1024 and 1 + 2.55e-14 at 64x8192
        ha, e, psi, s, m = uniformized_propagator(nr, nz, 1.0)
        u = 2.0**-53
        excess = max(0.0, max(math.fsum(row) for row in ha))
        # first-order relative rounding of every computed entry: the series
        # takes at most (m + 1)(n + 2) + m + 2 roundings and drops a tail
        # under 2 (n + 1) 2^-60 of a row; each squaring doubles the relative
        # error and adds n + 1 more
        delta = 2**s * ((m + 1) * (nr + 2) + m + 2 + 2 * (nr + 1) * 2**-7 + nr + 1) * u
        bound = (1.0 + delta) * math.exp(excess)
        assert np.all(e >= 0.0) and np.all(psi >= 0.0)
        e1 = np.array([math.fsum(row) for row in e])  # correctly rounded
        assert e1.max() <= bound
        assert psi.max() <= bound
        assert np.all(e1 <= psi * bound * (1.0 + delta))
        gap = np.abs(ha @ psi - (e1 - 1.0))
        assert np.all(gap <= 3.0 * delta * (np.abs(ha) @ psi + e1 + 1.0))

    def test_constant_data_stays_a_bitwise_fixed_point(self):
        _, e, psi, _, _ = uniformized_propagator(32, 64, 1.0)
        c = 0.37
        wall = np.full(65, c)
        d = np.full(32, c) - wall[0]
        for k in range(1, 65):
            d = e @ d - (wall[k] - wall[k - 1]) * psi
            assert np.array_equal(d, np.zeros(32)) and np.array_equal(d + wall[k], np.full(32, c))


GRID_SIZE = st.integers(min_value=4, max_value=24)
# radial grids past BLOCK_MAX_NR, which march_fluid runs on the station path
STATION_NR = st.integers(min_value=BLOCK_MAX_NR + 1, max_value=160)
BETAS = st.lists(st.sampled_from([0.05, 0.3, 1.0, 2.5, 20.0]), min_size=1, max_size=4)


def assert_in_data_envelope(nr, nz, betas, seed):
    # discrete maximum principle, per species: the field stays between the
    # smallest and the largest of its inlet and wall data
    rng = np.random.default_rng(seed)
    ns = len(betas)
    lo = rng.uniform(-10.0, 10.0, (ns, 1))
    width = rng.uniform(1e-3, 10.0, (ns, 1))
    inlet = lo + width * rng.uniform(0.0, 1.0, (ns, nr + 1))
    wall = lo + width * rng.uniform(0.0, 1.0, (ns, nz + 1))
    values = march(betas, inlet, wall).values
    data = np.concatenate([inlet, wall], axis=1)
    slack = 1e-12 * np.abs(data).max(axis=1)
    assert np.all(values.min(axis=(1, 2)) >= data.min(axis=1) - slack)
    assert np.all(values.max(axis=(1, 2)) <= data.max(axis=1) + slack)


def assert_constant_fixed_point(nr, nz, betas, seed):
    c = np.random.default_rng(seed).uniform(-1e3, 1e3, (len(betas), 1))
    field = march(betas, np.tile(c, nr + 1), np.tile(c, nz + 1))
    assert np.array_equal(field.values, np.broadcast_to(c[:, :, None], field.values.shape))


@settings(max_examples=40, deadline=None, database=None)
@given(GRID_SIZE, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_marched_field_stays_in_the_data_envelope(nr, nz, betas, seed):
    assert_in_data_envelope(nr, nz, betas, seed)


@settings(max_examples=25, deadline=None, database=None)
@given(STATION_NR, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_station_march_stays_in_the_data_envelope(nr, nz, betas, seed):
    assert_in_data_envelope(nr, nz, betas, seed)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(4, BLOCK_MAX_NR),
    st.integers(4, 3 * BLOCK + 1),  # partial blocks and nz < BLOCK
    BETAS,
    st.integers(0, 2**32 - 1),
)
# a diffusion number of 13,230: 1.19e-13 on the block path
@example(63, 6, [0.05, 20.0], 1)
def test_block_march_matches_reference_march(nr, nz, betas, seed):
    inlet, wall = scaled_data(np.random.default_rng(seed), len(betas), nr, nz)
    values = march(betas, inlet, wall).values
    assert_near(values, reference_march(wall, inlet, betas), inlet, wall, 1e-13)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(4, BLOCK_MAX_NR),
    st.lists(st.sampled_from([0.3, 0.8, 1.0, 2.5]), min_size=1, max_size=4),  # repeats and runs
    st.integers(2, 4 * BLOCK + 7),  # whole and partial blocks of either size
    st.integers(0, 2**32 - 1),
)
# distinct betas at nr = BLOCK_MAX_NR march half-size blocks
@example(BLOCK_MAX_NR, [0.3, 0.8, 2.5], 5 * BLOCK // 2 + 3, 0)
@example(BLOCK_MAX_NR, [0.8, 0.3], 4 * BLOCK, 1)
def test_folded_block_march(nr, betas, nz, seed):
    # within rounding of the reference; each species bitwise the same
    # whatever the other species' data (alone it may march another block
    # size, so it is compared in the batch); constant data kept exactly
    ns = len(betas)
    rng = np.random.default_rng(seed)
    inlet, wall = scaled_data(rng, ns, nr, nz)
    values = march(betas, inlet, wall).values
    assert_near(values, reference_march(wall, inlet, betas), inlet, wall, 1e-13)
    for i in range(ns):
        other_inlet, other_wall = scaled_data(rng, ns, nr, nz)
        other_inlet[i], other_wall[i] = inlet[i], wall[i]
        assert np.array_equal(march(betas, other_inlet, other_wall).values[i], values[i]), i
    c = rng.uniform(-1e3, 1e3, (ns, 1))
    constant = march(betas, np.tile(c, nr + 1), np.tile(c, nz + 1)).values
    assert np.array_equal(constant, np.broadcast_to(c[:, :, None], constant.shape))


@settings(max_examples=40, deadline=None, database=None)
@given(GRID_SIZE, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_constant_data_is_an_exact_fixed_point(nr, nz, betas, seed):
    assert_constant_fixed_point(nr, nz, betas, seed)


@settings(max_examples=25, deadline=None, database=None)
@given(STATION_NR, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_station_march_keeps_constant_data_exactly(nr, nz, betas, seed):
    assert_constant_fixed_point(nr, nz, betas, seed)


@settings(max_examples=30, deadline=None, database=None)
@given(
    STATION_NR,
    st.integers(2, 40),
    # repeats, and repeats that are not neighbours
    st.lists(st.sampled_from([0.05, 0.3, 1.0, 2.5, 20.0]), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
@example(63, 6, [20.0, 2.5, 20.0], 0)  # nr <= BLOCK_MAX_NR past DIFFUSION_MAX
def test_station_march_matches_per_species_reference(nr, nz, betas, seed):
    # one factor over every species, zero between them: each species is
    # bitwise its own march, whatever its neighbours
    inlet, wall = scaled_data(np.random.default_rng(seed), len(betas), nr, nz)
    values = march(betas, inlet, wall).values
    assert np.array_equal(values, reference_march(wall, inlet, betas))


class TestWallFluxGradient:
    def test_exact_for_radial_quadratics(self):
        nr, nz = 16, 8
        r = np.linspace(0.0, 1.0, nr + 1)
        vals = np.broadcast_to(r[None, :, None] ** 2, (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_gradient(FluidField(vals))
        assert np.allclose(flux, 2.0, atol=1e-13)

    def test_zero_for_constants(self):
        vals = np.full((1, 9, 9), 3.3)
        assert np.all(wall_flux_gradient(FluidField(vals)) == 0.0)

    def test_second_order_on_cubic(self):
        errs = []
        for nr in (64, 128):
            r = np.linspace(0.0, 1.0, nr + 1)
            vals = np.broadcast_to(r[None, :, None] ** 3, (1, nr + 1, 5)).copy()
            flux = wall_flux_gradient(FluidField(vals))
            errs.append(abs(flux[0, 0] - 3.0))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_small_grid_rejected(self):
        vals = np.ones((1, 2, 9))  # nr = 1
        with pytest.raises(ValueError):
            wall_flux_gradient(FluidField(vals))

    def test_spacing_comes_from_the_field(self):
        # the field's shape fixes dr: a 64x16 field gives the one-sided
        # stencil on its nodes 62-64 at dr = 1/64
        field = graetz(64, 16)
        v = field.values[0]
        d1, d2 = v[64] - v[63], v[63] - v[62]
        assert np.array_equal(wall_flux_gradient(field)[0], (3.0 * d1 - d2) / (2.0 * (1.0 / 64)))

    def test_same_flux_on_either_layout(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-1.0, 1.0, (3, 25, 41))
        flux = wall_flux_gradient(FluidField(values))
        assert np.array_equal(flux, wall_flux_gradient(FluidField(station_major(values))))


class TestWallFluxIntegral:
    def test_linear_in_z(self):
        nr, nz = 64, 16
        z = np.linspace(0.0, 1.0, nz + 1)
        vals = np.broadcast_to(z[None, None, :], (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_integral(FluidField(vals), march_operator(single(), nr, nz).beta)
        assert np.allclose(flux, 0.25, atol=1e-4)  # int r(1-r^2) dr = 1/4

    def test_zero_for_constants(self):
        vals = np.full((1, 9, 9), 1.7)
        op = march_operator(single(), 8, 8)
        assert np.all(wall_flux_integral(FluidField(vals), op.beta) == 0.0)

    def test_beta_scaling(self):
        nr, nz = 32, 8
        z = np.linspace(0.0, 1.0, nz + 1)
        vals = np.broadcast_to(z[None, None, :], (1, nr + 1, nz + 1)).copy()
        f1 = wall_flux_integral(FluidField(vals), march_operator(single(beta=1.0), nr, nz).beta)
        f2 = wall_flux_integral(FluidField(vals), march_operator(single(beta=2.0), nr, nz).beta)
        assert np.allclose(f2, 0.5 * f1)

    def test_same_flux_on_either_layout(self):
        # the r-integral sums the nodes in another memory order on each
        # layout, so the two agree to rounding, not bitwise
        rng = np.random.default_rng(10)
        nr, nz = 48, 40
        values = rng.uniform(-1.0, 1.0, (3, nr + 1, nz + 1))
        op = march_operator(species_of((0.5, 1.0, 2.0)), nr, nz)
        flux = wall_flux_integral(FluidField(values), op.beta)
        other = wall_flux_integral(FluidField(station_major(values)), op.beta)
        assert np.abs(other - flux).max() <= 1e-14 * np.abs(flux).max()

    def test_cross_method_consistency_on_resolved_window(self):
        # the two extractions approach each other at first order away from
        # the inlet corner, where the marched solution is resolved
        gaps = []
        for nr, nz in ((64, 128), (128, 256)):
            field = graetz(nr, nz)
            g = wall_flux_gradient(field)[0]
            q = wall_flux_integral(field, march_operator(single(), nr, nz).beta)[0]
            k0 = nz // 4
            d = (g - q)[k0:-1]
            gaps.append(float(np.sqrt((1.0 / nz) * np.sum(d * d))))
        assert gaps[1] < 0.55 * gaps[0]


def windowed_flux_gap(nr, nz, beta, c0, amps):
    """L2(z >= 1/4) gap between the two wall-flux forms on the interior
    nodes, as convergence_study windows it, for a constant inlet c0 and a
    wall of c0 plus the modes amps[m] (1 - cos((m + 1) pi z)) / 2."""
    z = np.linspace(0.0, 1.0, nz + 1)
    wall = c0 + sum(a * (1.0 - np.cos((m + 1) * np.pi * z)) / 2.0 for m, a in enumerate(amps))
    op = march_operator(single(beta), nr, nz)
    field = march((beta,), np.full((1, nr + 1), c0), wall[None, :], op)
    d = (wall_flux_gradient(field) - wall_flux_integral(field, op.beta))[0]
    d = d[math.ceil(0.25 * nz):-1]
    return math.sqrt((1.0 / nz) * np.sum(d * d))


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from([4, 8, 16, 32]),
    st.sampled_from([16, 32, 64]),
    st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
    st.floats(0.0, 2.0),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda a: max(map(abs, a)) >= 0.05
    ),
)
def test_flux_forms_converge_on_compatible_data(nr, nz, beta, c0, amps):
    # with the corner compatible (the wall's modes vanish at z = 0 with
    # their slope), the two forms approach each other away from the inlet:
    # over every mix of the three modes the ratio stays at or below 0.58
    # on this range of grids and betas
    coarse = windowed_flux_gap(nr, nz, beta, c0, amps)
    fine = windowed_flux_gap(2 * nr, 2 * nz, beta, c0, amps)
    assert fine <= 0.7 * coarse, (fine, coarse)
