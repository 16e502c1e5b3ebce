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
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from graetzcat.model import FluidField, Grid, InitialData, SpeciesParams

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


def unit_grid(nr, nz):
    return Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)


def graetz(nr, nz, inlet=None, wall=None, beta=1.0):
    grid = unit_grid(nr, nz)
    if inlet is None:
        inlet = np.ones((1, nr + 1))
    if wall is None:
        wall = np.zeros((1, nz + 1))
    field = march_fluid(wall, InitialData(inlet, wall.copy()), march_operator(single(beta), grid))
    return grid, field


def stencil(grid):
    """The finite-volume pieces of the marching matrix over the nr interior
    nodes: (mass, k_diag, k_sup, face).

    Cells are r dr wide, the axis cell dr^2 / 8 (its symmetry closure), and
    mass is a cell's volume times the convective weight (1 - r^2) / dz.
    Face i sits at r = (i + 1/2) dr and conducts r_f / dr, so the
    volume-scaled diffusion matrix K has k_diag on its diagonal and k_sup
    off it.
    """
    nr, dr = grid.nr, grid.dr
    r = grid.r[:nr]
    vol = r * dr
    vol[0] = dr * dr / 8.0
    face = (np.arange(nr) + 0.5) * dr
    k_diag = np.empty(nr)
    k_diag[0] = face[0] / dr
    k_diag[1:] = (face[:-1] + face[1:]) / dr
    return vol * ((1.0 - r * r) / grid.dz), k_diag, -face[:-1] / dr, face


def marching_matrix(grid, beta):
    """(diagonal, superdiagonal) of the symmetric matrix mass + beta K."""
    mass, k_diag, k_sup, _ = stencil(grid)
    return mass + beta * k_diag, beta * k_sup


def m_matrix(diag, sup):
    """Superdiagonal nonpositive, diagonal positive, rows weakly diagonally
    dominant to rounding of the diagonal: the maximum principle's witness."""
    off = np.zeros_like(diag)
    off[:-1] += np.abs(sup)
    off[1:] += np.abs(sup)
    return bool(np.all(sup <= 0.0) and np.all(diag > 0.0) and np.all(diag - off >= -1e-15 * diag))


def reference_march(wall, inlet, betas, grid):
    """The march as one LAPACK dptsv call per station and beta.

    dptsv factors the stencil's matrix afresh at every station (dpttrf) and
    solves with dpttrs, on the right-hand side of face differences: the
    face fluxes beta r_f (C_{i+1} - C_i) / dr, the axis face's flux being 0.
    """
    nr, nz, dr = grid.nr, grid.nz, grid.dr
    face = stencil(grid)[3]
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for beta in dict.fromkeys(betas):
        idx = [i for i, b in enumerate(betas) if b == beta]
        diag, sup = marching_matrix(grid, beta)
        pad = np.empty((len(idx), nr + 1))
        for k in range(1, nz + 1):
            pad[:, :nr] = values[idx, :nr, k - 1]
            pad[:, nr] = wall[idx, k]
            flux = face * (beta / dr) * (pad[:, 1:] - pad[:, :-1])
            rhs = np.empty((len(idx), nr))
            rhs[:, 0] = flux[:, 0]
            rhs[:, 1:] = flux[:, 1:] - flux[:, :-1]
            _, _, delta, info = dptsv(diag, sup, rhs.T)
            assert info == 0
            values[idx, :nr, k] = pad[:, :nr] + delta.T
    values[:, nr, :] = wall
    return values


def extended_march(wall, inlet, beta, grid):
    """The march of one species in extended precision, by Thomas elimination.

    An independent check of the float64 LDL^T station loop: the stencil's
    matrix and right-hand side, another elimination, and np.longdouble
    arithmetic, whose rounding is far below float64's where it has more
    bits than float64 (x86-64: 64-bit mantissa).
    """
    nr, nz = grid.nr, grid.nz
    diag, sup = (a.astype(np.longdouble) for a in marching_matrix(grid, beta))
    face = stencil(grid)[3].astype(np.longdouble) * beta * nr
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
    mass, k_diag, k_sup, face = stencil(unit_grid(nr, 1))
    s = 1.0 / np.sqrt(mass)
    mu, v = eigh_tridiagonal(
        k_diag * s * s, k_sup * s[:-1] * s[1:], select="i", select_range=(0, 1)
    )
    phi = s[:, None] * v
    mu[0] = nr * face @ np.diff(phi[:, 0], append=0.0) ** 2 / (mass @ phi[:, 0] ** 2)
    return np.sqrt(mu[0]), np.exp(-mu) * phi[0] * (mass @ phi)


def species_of(betas):
    return tuple(SpeciesParams(f"s{i}", b, 1.0, 1.0, -1) for i, b in enumerate(betas))


def march(betas, grid, inlet, wall, op=None):
    op = op or march_operator(species_of(betas), grid)
    return march_fluid(wall, InitialData(inlet, wall.copy()), op)


def scaled_data(rng, ns, nr, nz, lo=-1.0):
    """Inlet (ns, nr + 1) and wall (ns, nz + 1) data, each species on its own scale."""
    scale = rng.uniform(0.01, 500.0, (ns, 1))
    return scale * rng.uniform(lo, 1.0, (ns, nr + 1)), scale * rng.uniform(lo, 1.0, (ns, nz + 1))


def assert_near(values, want, inlet, wall, rel):
    """Per species, no node further from ``want`` than rel times its largest datum."""
    err = np.abs(values - want).max(axis=(1, 2))
    data = np.abs(np.concatenate([inlet, wall], axis=1)).max(axis=1)
    assert np.all(err <= rel * data), err / data


def station_operator(betas, grid):
    """The march operator with every species on the station path, whatever nr is."""
    with mock.patch.object(fluid_march, "BLOCK_MAX_NR", 0):
        return march_operator(species_of(betas), grid)


class TestRadialOperator:
    """The finite-volume radial operator as the oracles assemble it, and the
    engine's builder's own input check."""

    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.7, 1e-6, 1e8])
    @pytest.mark.parametrize("nr,nz", [(8, 8), (32, 64), (100, 16), (1024, 64), (1024, 8192)])
    def test_m_matrix_structure(self, beta, nr, nz):
        assert m_matrix(*marching_matrix(unit_grid(nr, nz), beta))

    def test_m_matrix_witness_can_fail(self):
        diag, sup = marching_matrix(unit_grid(10, 8), 1.0)
        # a positive off-diagonal of the same size: every row stays dominant
        flipped = sup.copy()
        flipped[4] = -flipped[4]
        assert not m_matrix(diag, flipped)
        # a row whose diagonal is below the sum of its off-diagonals
        low = diag.copy()
        low[4] = 0.5 * (abs(sup[3]) + abs(sup[4]))
        assert not m_matrix(low, sup)

    def test_axis_row_symmetry_closure(self):
        grid = unit_grid(10, 8)
        diag, sup = marching_matrix(grid, 2.0)
        # the axis cell, volume dr^2/8, with conv + 4 beta (C_0 - C_1)/dr^2
        assert diag[0] == pytest.approx(grid.dr**2 / 8.0 * (1.0 / grid.dz + 4.0 * 2.0 / grid.dr**2))
        assert sup[0] == pytest.approx(-2.0 / 2.0)

    @pytest.mark.kernel
    def test_rejects_nonpositive_beta(self):
        for beta in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                RadialOperator.build(unit_grid(8, 8), beta)


class TestMarchFluid:
    def test_constants_are_exact_fixed_points(self):
        nr, nz = 16, 24
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        c = np.array([0.37, 500.0])
        params = (SpeciesParams("a", 1.0, 1, 1, -1), SpeciesParams("b", 2.5, 1, 1, 1))
        init = InitialData(np.tile(c[:, None], (1, nr + 1)), np.tile(c[:, None], (1, nz + 1)))
        field = march_fluid(init.wall_init, init, march_operator(params, grid))
        assert np.array_equal(field.values, np.tile(c[:, None, None], (1, nr + 1, nz + 1)))

    def test_trace_and_inlet_are_bitwise(self):
        rng = np.random.default_rng(1)
        nz = 20
        for nr in (12, BLOCK_MAX_NR + 1):  # both paths
            inlet = rng.uniform(0.0, 1.0, (1, nr + 1))
            wall = rng.uniform(0.0, 1.0, (1, nz + 1))
            field = march((1.0,), unit_grid(nr, nz), inlet, wall)
            assert np.array_equal(field.values[:, nr, :], wall)
            # the inlet column is exact away from the corner, which the trace owns
            assert np.array_equal(field.values[:, :nr, 0], inlet[:, :nr])

    def test_discrete_maximum_principle_random_data(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            nr, nz = 16, 32
            inlet = rng.uniform(0.3, 0.7, (1, nr + 1))
            wall = rng.uniform(0.3, 0.7, (1, nz + 1))
            _, field = graetz(nr, nz, inlet, wall, beta=float(rng.uniform(0.2, 3.0)))
            lo = min(inlet.min(), wall.min())
            hi = max(inlet.max(), wall.max())
            assert field.values.min() >= lo - 1e-10
            assert field.values.max() <= hi + 1e-10

    def test_centerline_against_fine_reference(self):
        # modest version of the refinement oracle (the full one is acceptance)
        fine = graetz(512, 1024)[1].values[0, 0, -1]
        coarse = graetz(64, 128)[1].values[0, 0, -1]
        assert abs(coarse - fine) < 1e-3

    def test_species_batching_matches_single_solves(self):
        rng = np.random.default_rng(3)
        # one shared beta, and mixed betas in one march; one partial block,
        # and several blocks with a partial last one, and the station path
        batches = [(1.7,) * g for g in range(1, 5)] + [(1.7, 0.9, 1.7, 2.3)]
        for nr in (10, BLOCK_MAX_NR + 1):
            for nz in (BLOCK - 2, 3 * BLOCK + 5):
                grid = unit_grid(nr, nz)
                for betas in batches:
                    g = len(betas)
                    inlet = rng.uniform(0.0, 1.0, (g, nr + 1))
                    wall = rng.uniform(0.0, 1.0, (g, nz + 1))
                    batched = march(betas, grid, inlet, wall)
                    for i in range(g):
                        solo = march(betas[i : i + 1], grid, inlet[i : i + 1], wall[i : i + 1])
                        assert np.array_equal(batched.values[i], solo.values[0]), (nr, nz, betas, i)

    @pytest.mark.parametrize(
        "betas, nr, nz",
        [
            ((1.0,), BLOCK_MAX_NR + 1, 16),  # one species
            ((1.3, 1.3, 1.3, 1.3), 80, 32),  # one run of four
            ((1.0, 2.0, 1.0), 70, 12),  # equal betas apart
            ((0.7, 1.9), 96, 24),
        ],
    )
    def test_station_path_matches_reference_march_bitwise(self, betas, nr, nz):
        # the station path factors the oracle's matrix once and solves each
        # station with it; dptsv factors it afresh, so bitwise equality says
        # the engine marches the stencil's matrix on the stencil's fluxes
        rng = np.random.default_rng(nr * nz + len(betas))
        grid = Grid(nr=nr, nz=nz, dt=0.1, t_end=1.0)
        inlet, wall = scaled_data(rng, len(betas), nr, nz, lo=0.0)
        values = march(betas, grid, inlet, wall).values
        assert np.array_equal(values, reference_march(wall, inlet, betas, grid))

    @pytest.mark.parametrize("nz", [2 * BLOCK + 3, *KERNEL_STATION_COUNTS])
    def test_large_radial_grids_take_the_station_path(self, nz):
        rng = np.random.default_rng(6)
        betas = (1.0, 2.0, 1.0)
        nr = BLOCK_MAX_NR + 1
        grid = Grid(nr=nr, nz=nz, dt=0.1, t_end=1.0)
        inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, grid.nz + 1))
        field = march(betas, grid, inlet, wall)
        assert np.array_equal(field.values, reference_march(wall, inlet, betas, grid))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here"
    )
    @pytest.mark.parametrize("nr,nz", [(BLOCK_MAX_NR + 1, 9), (257, 6), (1024, 4)])
    def test_station_path_matches_an_extended_precision_march(self, nr, nz):
        rng = np.random.default_rng(nr)
        betas = (0.05, 1.0, 20.0)
        grid = Grid(nr=nr, nz=nz, dt=0.1, t_end=1.0)
        inlet, wall = scaled_data(rng, len(betas), nr, nz)
        values = march(betas, grid, inlet, wall).values
        for i, beta in enumerate(betas):
            one = slice(i, i + 1)
            want = extended_march(wall[i], inlet[i], beta, grid)[None]
            assert_near(values[one], want, inlet[one], wall[one], 1e-12)

    @pytest.mark.parametrize("nr", [32, BLOCK_MAX_NR])
    def test_long_block_march_matches_reference_march(self, nr):
        # 64 (or, with four distinct betas at nr = 64, 128 half-size) blocks,
        # each carry taken from the one before: errors would accumulate down
        # the march
        rng = np.random.default_rng(nr)
        grid = Grid(nr=nr, nz=1024, dt=1.0, t_end=1.0)
        for betas in ((0.3, 0.3, 2.5), (0.8, 1.0, 1.25, 2.0)):
            inlet, wall = scaled_data(rng, len(betas), nr, grid.nz)
            values = march(betas, grid, inlet, wall).values
            assert_near(values, reference_march(wall, inlet, betas, grid), inlet, wall, 1e-13)

    def test_march_does_not_depend_on_the_time_grid(self):
        rng = np.random.default_rng(7)
        betas = (1.2, 1.2, 3.4)
        for nr in (12, BLOCK_MAX_NR + 1):  # both paths
            inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, 21))
            fields = [
                march(betas, Grid(nr=nr, nz=20, dt=dt, t_end=t_end), inlet, wall).values
                for dt, t_end in ((0.1, 1.0), (0.25, 2.0))
            ]
            assert np.array_equal(*fields), nr

    def test_shape_mismatch_rejected(self):
        op = march_operator(single(), Grid(nr=8, nz=8, dt=1.0, t_end=1.0))
        with pytest.raises(ValueError):
            march_fluid(np.zeros((1, 5)), InitialData(np.ones((1, 9)), np.zeros((1, 9))), op)

    def test_operator_of_another_grid_or_species_count_rejected(self):
        grid = unit_grid(8, 8)
        field = march((1.0,), grid, np.ones((1, 9)), np.zeros((1, 9)))
        init = InitialData(np.ones((1, 9)), np.zeros((1, 9)))
        for op in (
            march_operator(single() * 2, grid),
            march_operator(single(), unit_grid(8, 12)),
            march_operator(single(), unit_grid(10, 8)),
        ):
            with pytest.raises(ValueError, match="shape"):
                march_fluid(init.wall_init, init, op)
            with pytest.raises(ValueError, match="shape"):
                wall_flux_integral(field, grid, op)

    @pytest.mark.parametrize("nr", [BLOCK_MAX_NR, BLOCK_MAX_NR + 1])  # both paths
    def test_field_is_stored_station_major(self, nr):
        # nz = 2 BLOCK + 3: a partial last block on the block path
        rng = np.random.default_rng(nr)
        nz = 2 * BLOCK + 3
        inlet, wall = rng.uniform(0.0, 1.0, (2, nr + 1)), rng.uniform(0.0, 1.0, (2, nz + 1))
        values = march((0.5, 2.0), unit_grid(nr, nz), inlet, wall).values
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
        grid = Grid(nr=nr, nz=nz, dt=0.1, t_end=1.0)
        inlet, wall = scaled_data(rng, len(betas), nr, nz, lo=0.0)
        values = march(betas, grid, inlet, wall, station_operator(betas, grid)).values
        assert np.array_equal(values, reference_march(wall, inlet, betas, grid))

    @pytest.mark.kernel
    def test_matches_reference_march_on_small_radial_grids(self):
        # each nr gives the column buffers other strides; numpy picks its
        # inner loops by stride
        rng = np.random.default_rng(5)
        betas = (1.0, 2.0, 1.0)
        for nr in range(4, 20):
            grid = Grid(nr=nr, nz=5, dt=0.1, t_end=1.0)
            inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, 6))
            values = march(betas, grid, inlet, wall, station_operator(betas, grid)).values
            assert np.array_equal(values, reference_march(wall, inlet, betas, grid)), nr

    @pytest.mark.kernel
    @pytest.mark.parametrize("nr,nz,beta", [(4, 4, 1.0), (12, 40, 0.3), (BLOCK_MAX_NR, 64, 2.5)])
    def test_impulse_block_is_the_station_march_of_its_impulses(self, nr, nz, beta):
        op = RadialOperator.build(unit_grid(nr, nz), beta)  # stations at the nz grid's dz
        for b in (BLOCK, BLOCK // 2):  # both block sizes the march takes
            qt = impulse_block(nr, nz, beta, b)
            assert impulse_block(nr, nz, beta, b) is qt  # built once per (nr, nz, beta, B)
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

    @pytest.mark.kernel
    def test_factor_is_built_once_per_grid_and_beta(self, monkeypatch):
        # betas 1.2, 1.2, 3.4: one factor per run on the station path
        params = species_of((1.2, 1.2, 3.4))
        factored = []
        dpttrf = fluid_march.dpttrf
        monkeypatch.setattr(fluid_march, "dpttrf", lambda *a: factored.append(a) or dpttrf(*a))
        nr = BLOCK_MAX_NR + 1
        op = march_operator(params, Grid(nr=nr, nz=20, dt=0.1, t_end=1.0))
        assert len(factored) == 2
        (_, first), (_, last) = op.groups
        assert isinstance(first, RadialOperator) and first.beta == 1.2
        assert last.d.shape == (nr,) and last.e.shape == (nr - 1,)
        # the block path: one kernel over every species, its carries the last
        # station of impulse blocks kept for the process and built once per
        # (nr, nz, beta, B), whatever the time grid.  Two distinct betas at
        # nr = 64 would take 1.3 MB at BLOCK, so B halves
        impulse_block.cache_clear()
        for nr, nz, b in ((12, 20, BLOCK), (BLOCK_MAX_NR, 20, BLOCK // 2)):
            for dt in (0.1, 0.25):
                op = march_operator(params, Grid(nr=nr, nz=nz, dt=dt, t_end=1.0))
                ((rows, kernel),) = op.groups
                assert rows == slice(0, 3)
                for i, beta in enumerate((1.2, 1.2, 3.4)):
                    qt = impulse_block(nr, nz, beta, b)
                    assert np.array_equal(kernel.carry[i], qt[:, -nr:]), (nr, i)
        assert impulse_block.cache_info().misses == 4

    @pytest.mark.kernel
    def test_impulse_block_raises_on_a_negative_entry(self, monkeypatch):
        station = fluid_march._march_stations

        def undershoot(values, wvals, op):
            station(values, wvals, op)
            values[0, 1, 2] = -1e-300

        monkeypatch.setattr(fluid_march, "_march_stations", undershoot)
        with pytest.raises(RuntimeError, match="maximum principle"):
            impulse_block.__wrapped__(8, 8, 1.0, BLOCK)

    @pytest.mark.kernel
    def test_lapack_error_raises(self, monkeypatch):
        monkeypatch.setattr(fluid_march, "dpttrs", lambda d, e, b, overwrite_b: (b, -2))
        with pytest.raises(ValueError, match="argument 2"):
            graetz(BLOCK_MAX_NR + 1, 8)  # station path
        with pytest.raises(ValueError, match="argument 2"):
            impulse_block.__wrapped__(8, 8, 1.0, BLOCK)  # the block path's one LAPACK use, uncached


class TestMarchOperator:
    @pytest.mark.parametrize("nr", [8, BLOCK_MAX_NR + 16])
    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_beta_rejected(self, nr, beta):
        # a NaN beta used to march to an all-NaN field on the station path,
        # and to raise a misleading maximum-principle error on the block path
        params = single() + (SpeciesParams("bad", beta, 1.0, 1.0, -1),)
        with pytest.raises(ValueError, match="species.bad.beta_f"):
            march_operator(params, unit_grid(nr, 8))

    @pytest.mark.kernel
    def test_kernels_follow_the_path(self):
        # the block path: one group over every species; the station path:
        # one group per run of equal beta
        params = species_of((0.5, 0.5, 2.0))
        for nr, kind, runs in (
            (BLOCK_MAX_NR, BlockKernel, [slice(0, 3)]),
            (BLOCK_MAX_NR + 1, RadialOperator, [slice(0, 2), slice(2, 3)]),
        ):
            op = march_operator(params, unit_grid(nr, 16))
            assert isinstance(op, MarchOperator) and (op.nr, op.nz) == (nr, 16)
            assert [rows for rows, _ in op.groups] == runs
            assert all(isinstance(kernel, kind) for _, kernel in op.groups)

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
        ((_, kernel),) = march_operator(species_of(betas), unit_grid(nr, nz)).groups
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
        grid = unit_grid(nr, nz)
        rng = np.random.default_rng(8)
        inlet, wall = rng.uniform(0.0, 1.0, (4, nr + 1)), rng.uniform(0.0, 1.0, (4, nz + 1))
        march((0.8, 1.0, 1.25, 2.0), grid, inlet, wall)
        assert calls == [(4, nr + BLOCK + 1, BLOCK * (nr + 1))]
        for betas in ((0.8, 1.0, 1.25, 2.0), (1.5,) * 4):
            ((_, kernel),) = march_operator(species_of(betas), grid).groups
            for arr in (kernel.carry, kernel.out):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0, 0] = 0.0
        # one beta: the carries are a view of the kept block, no copy; the
        # folded kernel is the operator's own, and the kept block stays plain
        qt = impulse_block(nr, nz, 1.5, BLOCK)
        assert np.shares_memory(kernel.carry, qt)
        assert not np.shares_memory(kernel.out, qt)
        assert np.all(qt >= 0.0)
        again = march_operator(species_of((1.5,) * 4), grid).groups[0][1]
        assert not np.shares_memory(again.out, kernel.out)


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
            return graetz(nr, nz)[1].values[0, 0, -1] / exact - 1.0

        assert error(32, 64) == pytest.approx(0.4811, abs=5e-5)
        assert error(32, 1024) == pytest.approx(0.0312, abs=5e-5)
        for nr, nz in ((16, 1024), (32, 1024), (64, 1024), (16, 4096), (64, 4096), (128, 2048)):
            model = self.A_DR2 / nr**2 + self.B_DZ / nz
            assert error(nr, nz) == pytest.approx(model, rel=0.02), (nr, nz)


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
    values = march(betas, Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), inlet, wall).values
    data = np.concatenate([inlet, wall], axis=1)
    slack = 1e-12 * np.abs(data).max(axis=1)
    assert np.all(values.min(axis=(1, 2)) >= data.min(axis=1) - slack)
    assert np.all(values.max(axis=(1, 2)) <= data.max(axis=1) + slack)


def assert_constant_fixed_point(nr, nz, betas, seed):
    c = np.random.default_rng(seed).uniform(-1e3, 1e3, (len(betas), 1))
    field = march(betas, Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), np.tile(c, nr + 1), np.tile(c, nz + 1))
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
def test_block_march_matches_reference_march(nr, nz, betas, seed):
    inlet, wall = scaled_data(np.random.default_rng(seed), len(betas), nr, nz)
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    values = march(betas, grid, inlet, wall).values
    assert_near(values, reference_march(wall, inlet, betas, grid), inlet, wall, 1e-13)


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
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    rng = np.random.default_rng(seed)
    inlet, wall = scaled_data(rng, ns, nr, nz)
    values = march(betas, grid, inlet, wall).values
    assert_near(values, reference_march(wall, inlet, betas, grid), inlet, wall, 1e-13)
    for i in range(ns):
        other_inlet, other_wall = scaled_data(rng, ns, nr, nz)
        other_inlet[i], other_wall[i] = inlet[i], wall[i]
        assert np.array_equal(march(betas, grid, other_inlet, other_wall).values[i], values[i]), i
    c = rng.uniform(-1e3, 1e3, (ns, 1))
    constant = march(betas, grid, np.tile(c, nr + 1), np.tile(c, nz + 1)).values
    assert np.array_equal(constant, np.broadcast_to(c[:, :, None], constant.shape))


@settings(max_examples=40, deadline=None, database=None)
@given(GRID_SIZE, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_constant_data_is_an_exact_fixed_point(nr, nz, betas, seed):
    assert_constant_fixed_point(nr, nz, betas, seed)


@settings(max_examples=25, deadline=None, database=None)
@given(STATION_NR, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_station_march_keeps_constant_data_exactly(nr, nz, betas, seed):
    assert_constant_fixed_point(nr, nz, betas, seed)


class TestWallFluxGradient:
    def test_exact_for_radial_quadratics(self):
        nr, nz = 16, 8
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.r[None, :, None] ** 2, (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_gradient(FluidField(vals), grid)
        assert np.allclose(flux, 2.0, atol=1e-13)

    def test_zero_for_constants(self):
        grid = Grid(nr=8, nz=8, dt=1.0, t_end=1.0)
        vals = np.full((1, 9, 9), 3.3)
        assert np.all(wall_flux_gradient(FluidField(vals), grid) == 0.0)

    def test_second_order_on_cubic(self):
        errs = []
        for nr in (64, 128):
            grid = Grid(nr=nr, nz=4, dt=1.0, t_end=1.0)
            vals = np.broadcast_to(grid.r[None, :, None] ** 3, (1, nr + 1, 5)).copy()
            flux = wall_flux_gradient(FluidField(vals), grid)
            errs.append(abs(flux[0, 0] - 3.0))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_small_grid_rejected(self):
        grid = Grid(nr=1, nz=8, dt=1.0, t_end=1.0)
        vals = np.ones((1, 2, 9))
        with pytest.raises(ValueError):
            wall_flux_gradient(FluidField(vals), grid)

    def test_field_of_another_grid_rejected(self):
        # an nr = 64 field read on an nr = 32 grid used to give a wrong flux
        # (its nodes 30-32 taken for the wall and its neighbours) without an error
        _, field = graetz(64, 16)
        for grid in (unit_grid(32, 16), unit_grid(64, 8)):
            with pytest.raises(ValueError, match="does not fit"):
                wall_flux_gradient(field, grid)

    def test_same_flux_on_either_layout(self):
        rng = np.random.default_rng(9)
        nr, nz = 24, 40
        grid = unit_grid(nr, nz)
        values = rng.uniform(-1.0, 1.0, (3, nr + 1, nz + 1))
        flux = wall_flux_gradient(FluidField(values), grid)
        assert np.array_equal(flux, wall_flux_gradient(FluidField(station_major(values)), grid))


class TestWallFluxIntegral:
    def test_linear_in_z(self):
        nr, nz = 64, 16
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.z[None, None, :], (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_integral(FluidField(vals), grid, march_operator(single(), grid))
        assert np.allclose(flux, 0.25, atol=1e-4)  # int r(1-r^2) dr = 1/4

    def test_zero_for_constants(self):
        grid = Grid(nr=8, nz=8, dt=1.0, t_end=1.0)
        vals = np.full((1, 9, 9), 1.7)
        op = march_operator(single(), grid)
        assert np.all(wall_flux_integral(FluidField(vals), grid, op) == 0.0)

    def test_beta_scaling(self):
        nr, nz = 32, 8
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.z[None, None, :], (1, nr + 1, nz + 1)).copy()
        f1 = wall_flux_integral(FluidField(vals), grid, march_operator(single(beta=1.0), grid))
        f2 = wall_flux_integral(FluidField(vals), grid, march_operator(single(beta=2.0), grid))
        assert np.allclose(f2, 0.5 * f1)

    def test_same_flux_on_either_layout(self):
        # the r-integral sums the nodes in another memory order on each
        # layout, so the two agree to rounding, not bitwise
        rng = np.random.default_rng(10)
        nr, nz = 48, 40
        grid = unit_grid(nr, nz)
        values = rng.uniform(-1.0, 1.0, (3, nr + 1, nz + 1))
        op = march_operator(species_of((0.5, 1.0, 2.0)), grid)
        flux = wall_flux_integral(FluidField(values), grid, op)
        other = wall_flux_integral(FluidField(station_major(values)), grid, op)
        assert np.abs(other - flux).max() <= 1e-14 * np.abs(flux).max()

    def test_cross_method_consistency_on_resolved_window(self):
        # the two extractions approach each other at first order away from
        # the inlet corner, where the marched solution is resolved
        gaps = []
        for nr, nz in ((64, 128), (128, 256)):
            grid, field = graetz(nr, nz)
            g = wall_flux_gradient(field, grid)[0]
            q = wall_flux_integral(field, grid, march_operator(single(), grid))[0]
            k0 = nz // 4
            d = (g - q)[k0:-1]
            gaps.append(float(np.sqrt(grid.dz * np.sum(d * d))))
        assert gaps[1] < 0.55 * gaps[0]
