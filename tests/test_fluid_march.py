import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded

from graetzcat import fluid_march
from graetzcat.fluid_march import (
    BLOCK,
    BLOCK_MAX_NR,
    RadialOperator,
    impulse_block,
    march_fluid,
    radial_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from graetzcat.model import FluidField, Grid, InitialData, SpeciesParams, WallField


def single(beta=1.0):
    return (SpeciesParams("c", beta, 1.0, 1.0, -1),)


def graetz(nr, nz, inlet=None, wall=None, beta=1.0):
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    if inlet is None:
        inlet = np.ones((1, nr + 1))
    if wall is None:
        wall = np.zeros((1, nz + 1))
    field = march_fluid(
        WallField(wall, 0.0), InitialData(inlet, wall.copy()), single(beta), grid
    )
    return grid, field


def reference_march(wall, inlet, betas, grid):
    """The march as one scipy cho_solve_banded call per station and beta group."""
    nr, nz, dr = grid.nr, grid.nz, grid.dr
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for beta in dict.fromkeys(betas):
        idx = [i for i, b in enumerate(betas) if b == beta]
        op = RadialOperator.build(grid, beta)
        pad = np.empty((len(idx), nr + 1))
        for k in range(1, nz + 1):
            pad[:, :nr] = values[idx, :nr, k - 1]
            pad[:, nr] = wall[idx, k]
            diff = op.face_r * (pad[:, 1:] - pad[:, :-1])
            kc = np.empty((len(idx), nr))
            kc[:, 0] = -diff[:, 0] / dr
            kc[:, 1:] = (diff[:, :-1] - diff[:, 1:]) / dr
            delta = cho_solve_banded((op.cho_factor, False), (-beta * kc).T)
            values[idx, :nr, k] = pad[:, :nr] + delta.T
    values[:, nr, :] = wall
    return values


def march(betas, grid, inlet, wall):
    params = tuple(SpeciesParams(f"s{i}", b, 1.0, 1.0, -1) for i, b in enumerate(betas))
    return march_fluid(WallField(wall, 0.0), InitialData(inlet, wall.copy()), params, grid)


def station_march(betas, grid, inlet, wall):
    """march_fluid with every beta group on the station path, whatever nr is."""
    nr, nz = grid.nr, grid.nz
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for beta in dict.fromkeys(betas):
        idx = [i for i, b in enumerate(betas) if b == beta]
        rows = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx
        fluid_march._march_stations(values, rows, wall[rows], radial_operator(nr, nz, beta))
    values[:, nr, :] = wall
    return values


class TestRadialOperator:
    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.7])
    @pytest.mark.parametrize("nr,nz", [(8, 8), (32, 64), (100, 16)])
    def test_m_matrix_structure(self, beta, nr, nz):
        op = RadialOperator.build(Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), beta)
        assert op.m_matrix_ok()

    def test_axis_row_symmetry_closure(self):
        grid = Grid(nr=10, nz=8, dt=1.0, t_end=1.0)
        op = RadialOperator.build(grid, 2.0)
        # axis row reduces to conv + 4 beta (C_0 - C_1)/dr^2
        assert op.diag[0] == pytest.approx(1.0 / grid.dz + 4.0 * 2.0 / grid.dr**2)
        assert op.upper[0] == pytest.approx(-4.0 * 2.0 / grid.dr**2)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            RadialOperator.build(Grid(nr=8, nz=8, dt=1.0, t_end=1.0), 0.0)


class TestMarchFluid:
    def test_constants_are_exact_fixed_points(self):
        nr, nz = 16, 24
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        c = np.array([0.37, 500.0])
        params = (SpeciesParams("a", 1.0, 1, 1, -1), SpeciesParams("b", 2.5, 1, 1, 1))
        init = InitialData(np.tile(c[:, None], (1, nr + 1)), np.tile(c[:, None], (1, nz + 1)))
        field = march_fluid(WallField(init.wall_init, 0.0), init, params, grid)
        assert np.array_equal(field.values, np.tile(c[:, None, None], (1, nr + 1, nz + 1)))

    def test_trace_and_inlet_are_bitwise(self):
        rng = np.random.default_rng(1)
        nr, nz = 12, 20
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        inlet = rng.uniform(0.0, 1.0, (1, nr + 1))
        wall = rng.uniform(0.0, 1.0, (1, nz + 1))
        field = march_fluid(WallField(wall, 0.5), InitialData(inlet, wall.copy()), single(), grid)
        assert np.array_equal(field.values[:, nr, :], wall)
        # the inlet column is exact away from the corner, which the trace owns
        assert np.array_equal(field.values[:, :nr, 0], inlet[:, :nr])
        assert field.time_tag == 0.5

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
        nr, nz = 10, 14
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        inlet = rng.uniform(0.0, 1.0, (3, nr + 1))
        wall = rng.uniform(0.0, 1.0, (3, nz + 1))
        params = tuple(SpeciesParams(f"s{i}", 1.7, 1, 1, -1) for i in range(3))
        batched = march_fluid(WallField(wall, 0.0), InitialData(inlet, wall.copy()), params, grid)
        for i in range(3):
            solo = march_fluid(
                WallField(wall[i : i + 1], 0.0),
                InitialData(inlet[i : i + 1], wall[i : i + 1].copy()),
                params[i : i + 1],
                grid,
            )
            assert np.array_equal(batched.values[i], solo.values[0])

    @pytest.mark.parametrize(
        "betas, nr, nz",
        [
            ((1.0,), 16, 16),  # one species
            ((1.3, 1.3, 1.3, 1.3), 32, 32),  # one batch of four
            ((1.0, 2.0, 1.0), 8, 12),  # a group that is not contiguous
            ((0.7, 1.9), 40, 24),  # nr != nz
        ],
    )
    def test_matches_reference_march_bitwise(self, betas, nr, nz):
        rng = np.random.default_rng(nr * nz + len(betas))
        grid = Grid(nr=nr, nz=nz, dt=0.1, t_end=1.0)
        scale = rng.uniform(0.01, 500.0, (len(betas), 1))
        inlet = scale * rng.uniform(0.0, 1.0, (len(betas), nr + 1))
        wall = scale * rng.uniform(0.0, 1.0, (len(betas), nz + 1))
        values = station_march(betas, grid, inlet, wall)
        assert np.array_equal(values, reference_march(wall, inlet, betas, grid))

    def test_matches_reference_march_on_small_radial_grids(self):
        # each nr gives the column buffers other strides; numpy picks its
        # inner loops by stride
        rng = np.random.default_rng(5)
        betas = (1.0, 2.0, 1.0)
        for nr in range(4, 20):
            grid = Grid(nr=nr, nz=5, dt=0.1, t_end=1.0)
            inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, 6))
            values = station_march(betas, grid, inlet, wall)
            assert np.array_equal(values, reference_march(wall, inlet, betas, grid)), nr

    def test_large_radial_grids_take_the_station_path(self):
        rng = np.random.default_rng(6)
        betas = (1.0, 2.0, 1.0)
        nr = BLOCK_MAX_NR + 1
        grid = Grid(nr=nr, nz=2 * BLOCK + 3, dt=0.1, t_end=1.0)
        inlet, wall = rng.uniform(0.0, 1.0, (3, nr + 1)), rng.uniform(0.0, 1.0, (3, grid.nz + 1))
        field = march(betas, grid, inlet, wall)
        assert np.array_equal(field.values, reference_march(wall, inlet, betas, grid))

    @pytest.mark.parametrize("nr,nz,beta", [(4, 4, 1.0), (12, 40, 0.3), (BLOCK_MAX_NR, 64, 2.5)])
    def test_impulse_block_is_the_station_march_of_its_impulses(self, nr, nz, beta):
        qt = impulse_block(nr, nz, beta)
        assert impulse_block(nr, nz, beta) is qt  # built once per (nr, nz, beta)
        assert qt.shape == (nr + BLOCK, BLOCK * nr)
        assert not qt.flags.writeable
        assert np.all(qt >= 0.0)
        op = radial_operator(nr, nz, beta)  # BLOCK stations at the nz grid's dz
        for i in range(nr):  # a unit deviation at node i under a zero wall
            values = np.zeros((1, nr + 1, BLOCK + 1))
            values[0, i, 0] = 1.0
            fluid_march._march_stations(values, slice(None), np.zeros((1, BLOCK + 1)), op)
            assert np.array_equal(qt[i].reshape(BLOCK, nr), values[0, :nr, 1:].T), i
        for m in range(BLOCK):  # a unit drop into station m + 1 from a constant 1
            values = np.ones((1, nr + 1, BLOCK + 1))
            wall = (np.arange(BLOCK + 1) <= m).astype(float)[None, :]
            fluid_march._march_stations(values, slice(None), wall, op)
            assert np.array_equal(qt[nr + m].reshape(BLOCK, nr), (values[0, :nr, 1:] - wall[:, 1:]).T)
        # causal: a drop into station m + 1 leaves the stations before it at 0
        assert np.all(qt[nr:].reshape(BLOCK, BLOCK, nr)[np.tril_indices(BLOCK, -1)] == 0.0)

    def test_factor_is_built_once_per_grid_and_beta(self):
        nr, nz, beta = 12, 20, 1.2345
        rng = np.random.default_rng(4)
        inlet, wall = rng.uniform(0.0, 1.0, (1, nr + 1)), rng.uniform(0.0, 1.0, (1, nz + 1))
        misses = radial_operator.cache_info().misses
        for dt in (0.1, 0.25):  # the operator does not depend on the time grid
            march((beta,), Grid(nr=nr, nz=nz, dt=dt, t_end=1.0), inlet, wall)
        assert radial_operator.cache_info().misses == misses + 1
        op = radial_operator(nr, nz, beta)
        assert op is radial_operator(nr, nz, beta)
        fresh = RadialOperator.build(Grid(nr=nr, nz=nz, dt=0.5, t_end=1.0), beta)
        for name in ("lower", "diag", "upper", "face_r", "cho_factor"):
            cached = getattr(op, name)
            assert not cached.flags.writeable, name
            assert np.array_equal(cached, getattr(fresh, name)), name
        with pytest.raises(ValueError):
            op.cho_factor[0, 0] = 1.0

    def test_impulse_block_raises_on_a_negative_entry(self, monkeypatch):
        station = fluid_march._march_stations

        def undershoot(values, rows, wvals, op):
            station(values, rows, wvals, op)
            values[0, 1, 2] = -1e-300

        monkeypatch.setattr(fluid_march, "_march_stations", undershoot)
        with pytest.raises(RuntimeError, match="maximum principle"):
            impulse_block.__wrapped__(8, 8, 1.0)

    def test_lapack_error_raises(self, monkeypatch):
        monkeypatch.setattr(fluid_march, "dpbtrs", lambda cb, b, lower, overwrite_b: (b, -2))
        with pytest.raises(ValueError, match="argument 2"):
            graetz(BLOCK_MAX_NR + 1, 8)  # station path
        with pytest.raises(ValueError, match="argument 2"):
            impulse_block.__wrapped__(8, 8, 1.0)  # the block path's one LAPACK use, uncached

    def test_shape_mismatch_rejected(self):
        grid = Grid(nr=8, nz=8, dt=1.0, t_end=1.0)
        with pytest.raises(ValueError):
            march_fluid(
                WallField(np.zeros((1, 5)), 0.0),
                InitialData(np.ones((1, 9)), np.zeros((1, 9))),
                single(),
                grid,
            )


GRID_SIZE = st.integers(min_value=4, max_value=24)
BETAS = st.lists(st.sampled_from([0.05, 0.3, 1.0, 2.5, 20.0]), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None, database=None)
@given(GRID_SIZE, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_marched_field_stays_in_the_data_envelope(nr, nz, betas, seed):
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


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(4, BLOCK_MAX_NR),
    st.integers(4, 3 * BLOCK + 1),  # partial blocks and nz < BLOCK
    BETAS,
    st.integers(0, 2**32 - 1),
)
def test_block_march_matches_reference_march(nr, nz, betas, seed):
    rng = np.random.default_rng(seed)
    ns = len(betas)
    scale = rng.uniform(0.01, 500.0, (ns, 1))
    inlet = scale * rng.uniform(-1.0, 1.0, (ns, nr + 1))
    wall = scale * rng.uniform(-1.0, 1.0, (ns, nz + 1))
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    err = np.abs(march(betas, grid, inlet, wall).values - reference_march(wall, inlet, betas, grid))
    data = np.concatenate([inlet, wall], axis=1)
    assert np.all(err.max(axis=(1, 2)) <= 1e-13 * np.abs(data).max(axis=1))


@settings(max_examples=40, deadline=None, database=None)
@given(GRID_SIZE, GRID_SIZE, BETAS, st.integers(0, 2**32 - 1))
def test_constant_data_is_an_exact_fixed_point(nr, nz, betas, seed):
    c = np.random.default_rng(seed).uniform(-1e3, 1e3, (len(betas), 1))
    field = march(betas, Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), np.tile(c, nr + 1), np.tile(c, nz + 1))
    assert np.array_equal(field.values, np.broadcast_to(c[:, :, None], field.values.shape))


class TestWallFluxGradient:
    def test_exact_for_radial_quadratics(self):
        nr, nz = 16, 8
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.r[None, :, None] ** 2, (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_gradient(FluidField(vals, 0.0), grid, single())
        assert np.allclose(flux, 2.0, atol=1e-13)

    def test_zero_for_constants(self):
        grid = Grid(nr=8, nz=8, dt=1.0, t_end=1.0)
        vals = np.full((1, 9, 9), 3.3)
        assert np.all(wall_flux_gradient(FluidField(vals, 0.0), grid, single()) == 0.0)

    def test_second_order_on_cubic(self):
        errs = []
        for nr in (64, 128):
            grid = Grid(nr=nr, nz=4, dt=1.0, t_end=1.0)
            vals = np.broadcast_to(grid.r[None, :, None] ** 3, (1, nr + 1, 5)).copy()
            flux = wall_flux_gradient(FluidField(vals, 0.0), grid, single())
            errs.append(abs(flux[0, 0] - 3.0))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_small_grid_rejected(self):
        grid = Grid(nr=1, nz=8, dt=1.0, t_end=1.0)
        vals = np.ones((1, 2, 9))
        with pytest.raises(ValueError):
            wall_flux_gradient(FluidField(vals, 0.0), grid, single())


class TestWallFluxIntegral:
    def test_linear_in_z(self):
        nr, nz = 64, 16
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.z[None, None, :], (1, nr + 1, nz + 1)).copy()
        flux = wall_flux_integral(FluidField(vals, 0.0), grid, single())
        assert np.allclose(flux, 0.25, atol=1e-4)  # int r(1-r^2) dr = 1/4

    def test_zero_for_constants(self):
        grid = Grid(nr=8, nz=8, dt=1.0, t_end=1.0)
        vals = np.full((1, 9, 9), 1.7)
        assert np.all(wall_flux_integral(FluidField(vals, 0.0), grid, single()) == 0.0)

    def test_beta_scaling(self):
        nr, nz = 32, 8
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        vals = np.broadcast_to(grid.z[None, None, :], (1, nr + 1, nz + 1)).copy()
        f1 = wall_flux_integral(FluidField(vals, 0.0), grid, single(beta=1.0))
        f2 = wall_flux_integral(FluidField(vals, 0.0), grid, single(beta=2.0))
        assert np.allclose(f2, 0.5 * f1)

    def test_cross_method_consistency_on_resolved_window(self):
        # the two extractions approach each other at first order away from
        # the inlet corner, where the marched solution is resolved
        gaps = []
        for nr, nz in ((64, 128), (128, 256)):
            grid, field = graetz(nr, nz)
            g = wall_flux_gradient(field, grid, single())[0]
            q = wall_flux_integral(field, grid, single())[0]
            k0 = nz // 4
            d = (g - q)[k0:-1]
            gaps.append(float(np.sqrt(grid.dz * np.sum(d * d))))
        assert gaps[1] < 0.55 * gaps[0]
