import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dptsv

from graetzcat import fluid_march
from graetzcat.fluid_march import (
    BLOCK,
    BLOCK_MAX_NR,
    FLUSH,
    KERNEL_BYTES,
    BlockKernel,
    MarchOperator,
    RadialOperator,
    impulse_block,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from graetzcat.model import FluidField, Grid, InitialData, SpeciesParams


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


def reference_march(wall, inlet, betas, grid):
    """The march as one LAPACK dptsv call per station and beta group.

    dptsv factors op.ab afresh at every station (dpttrf) and solves with
    dpttrs, on the engine's right-hand side: the difference of the face
    fluxes beta r_f (C_{i+1} - C_i) / dr, the axis face's flux being 0.
    """
    nr, nz, dr = grid.nr, grid.nz, grid.dr
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for beta in dict.fromkeys(betas):
        idx = [i for i, b in enumerate(betas) if b == beta]
        op = RadialOperator.build(grid, beta)
        face = op.face_r * (beta / dr)
        pad = np.empty((len(idx), nr + 1))
        for k in range(1, nz + 1):
            pad[:, :nr] = values[idx, :nr, k - 1]
            pad[:, nr] = wall[idx, k]
            flux = face * (pad[:, 1:] - pad[:, :-1])
            rhs = np.empty((len(idx), nr))
            rhs[:, 0] = flux[:, 0]
            rhs[:, 1:] = flux[:, 1:] - flux[:, :-1]
            _, _, delta, info = dptsv(op.ab[1], op.ab[0, 1:], rhs.T)
            assert info == 0
            values[idx, :nr, k] = pad[:, :nr] + delta.T
    values[:, nr, :] = wall
    return values


def extended_march(wall, inlet, beta, grid):
    """The march of one species in extended precision, by Thomas elimination.

    An independent check of the float64 LDL^T station loop: the same matrix
    (op.ab) and right-hand side, another elimination, and np.longdouble
    arithmetic, whose rounding is far below float64's where it has more
    bits than float64 (x86-64: 64-bit mantissa).
    """
    nr, nz = grid.nr, grid.nz
    op = RadialOperator.build(grid, beta)
    diag, sup = op.ab[1].astype(np.longdouble), op.ab[0, 1:].astype(np.longdouble)
    face = op.face_r.astype(np.longdouble) * beta * nr
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


def species_of(betas):
    return tuple(SpeciesParams(f"s{i}", b, 1.0, 1.0, -1) for i, b in enumerate(betas))


def march(betas, grid, inlet, wall):
    return march_fluid(wall, InitialData(inlet, wall.copy()), march_operator(species_of(betas), grid))


def station_march(betas, grid, inlet, wall):
    """march_fluid with every beta group on the station path, whatever nr is.

    A group is every species of one beta, consecutive or not, gathered by
    index and scattered back.
    """
    nr, nz = grid.nr, grid.nz
    values = np.empty((len(betas), nr + 1, nz + 1))
    values[:, :, 0] = inlet
    for beta in dict.fromkeys(betas):
        idx = [i for i, b in enumerate(betas) if b == beta]
        group = values[idx]
        fluid_march._march_stations(group, wall[idx], RadialOperator.build(grid, beta))
        values[idx] = group
    values[:, nr, :] = wall
    return values


def folded(qt, nr, block):
    """Qt folded with the wall, row by row: the drop into station m + 1
    lowers every station from m + 1 on by 1, and the wall at the block's
    start raises them all."""
    out = np.vstack([qt, np.ones((1, block * nr))])
    for m in range(block):
        for j in range(m, block):
            out[nr + m, j * nr : (j + 1) * nr] -= 1.0
    return out


class TestRadialOperator:
    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.7, 1e-6, 1e8])
    @pytest.mark.parametrize("nr,nz", [(8, 8), (32, 64), (100, 16), (1024, 64), (1024, 8192)])
    def test_m_matrix_structure(self, beta, nr, nz):
        op = RadialOperator.build(Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), beta)
        assert op.m_matrix_ok()

    def test_m_matrix_witness_can_fail(self):
        op = RadialOperator.build(Grid(nr=10, nz=8, dt=1.0, t_end=1.0), 1.0)
        # a positive off-diagonal of the same size: every row stays dominant
        ab = op.ab.copy()
        ab[0, 5] = -ab[0, 5]
        assert not dataclasses.replace(op, ab=ab).m_matrix_ok()
        # a row whose diagonal is below the sum of its off-diagonals
        ab = op.ab.copy()
        ab[1, 4] = 0.5 * (abs(ab[0, 4]) + abs(ab[0, 5]))
        assert not dataclasses.replace(op, ab=ab).m_matrix_ok()

    def test_axis_row_symmetry_closure(self):
        grid = Grid(nr=10, nz=8, dt=1.0, t_end=1.0)
        op = RadialOperator.build(grid, 2.0)
        # the axis cell, volume dr^2/8, with conv + 4 beta (C_0 - C_1)/dr^2
        assert op.ab[1, 0] == pytest.approx(grid.dr**2 / 8.0 * (1.0 / grid.dz + 4.0 * 2.0 / grid.dr**2))
        assert op.ab[0, 1] == pytest.approx(-2.0 / 2.0)

    def test_rejects_nonpositive_beta(self):
        for beta in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                RadialOperator.build(Grid(nr=8, nz=8, dt=1.0, t_end=1.0), beta)

    def test_arrays_are_read_only(self):
        op = RadialOperator.build(Grid(nr=10, nz=8, dt=1.0, t_end=1.0), 1.0)
        for name in ("face_r", "ab", "d", "e"):
            with pytest.raises(ValueError):
                getattr(op, name)[0] = 1.0


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
        nr, nz = 12, 20
        grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
        inlet = rng.uniform(0.0, 1.0, (1, nr + 1))
        wall = rng.uniform(0.0, 1.0, (1, nz + 1))
        field = march_fluid(wall, InitialData(inlet, wall.copy()), march_operator(single(), grid))
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
        nr = 10
        # one shared beta, and mixed betas in one stacked kernel (BLOCK
        # stations, as alone); one partial block, and several blocks with a
        # partial last one
        batches = [(1.7,) * g for g in range(1, 5)] + [(1.7, 0.9, 1.7, 2.3)]
        for nz in (BLOCK - 2, 3 * BLOCK + 5):
            for betas in batches:
                g = len(betas)
                grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
                inlet = rng.uniform(0.0, 1.0, (g, nr + 1))
                wall = rng.uniform(0.0, 1.0, (g, nz + 1))
                batched = march(betas, grid, inlet, wall)
                for i in range(g):
                    solo = march(betas[i : i + 1], grid, inlet[i : i + 1], wall[i : i + 1])
                    assert np.array_equal(batched.values[i], solo.values[0]), (nz, betas, i)

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

    # station counts around the flush size, where the station loop writes out
    @pytest.mark.parametrize("nz", [2 * BLOCK + 3, FLUSH, FLUSH + 1, 2 * FLUSH + 5])
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
        scale = rng.uniform(0.01, 500.0, (len(betas), 1))
        inlet = scale * rng.uniform(-1.0, 1.0, (len(betas), nr + 1))
        wall = scale * rng.uniform(-1.0, 1.0, (len(betas), nz + 1))
        values = march(betas, grid, inlet, wall).values
        for i, beta in enumerate(betas):
            err = np.abs(values[i] - extended_march(wall[i], inlet[i], beta, grid)).max()
            assert err <= 1e-12 * max(np.abs(inlet[i]).max(), np.abs(wall[i]).max()), beta

    @pytest.mark.parametrize("nr", [32, BLOCK_MAX_NR])
    def test_long_block_march_matches_reference_march(self, nr):
        # 64 (or, with four distinct betas at nr = 64, 128 half-size) blocks,
        # each carry taken from the one before: errors would accumulate down
        # the march
        rng = np.random.default_rng(nr)
        grid = Grid(nr=nr, nz=1024, dt=1.0, t_end=1.0)
        for betas in ((0.3, 0.3, 2.5), (0.8, 1.0, 1.25, 2.0)):
            scale = rng.uniform(0.01, 500.0, (len(betas), 1))
            inlet = scale * rng.uniform(-1.0, 1.0, (len(betas), nr + 1))
            wall = scale * rng.uniform(-1.0, 1.0, (len(betas), grid.nz + 1))
            values = march(betas, grid, inlet, wall).values
            err = np.abs(values - reference_march(wall, inlet, betas, grid))
            data = np.concatenate([inlet, wall], axis=1)
            assert np.all(err.max(axis=(1, 2)) <= 1e-13 * np.abs(data).max(axis=1)), betas

    @pytest.mark.parametrize("nr,nz,beta", [(4, 4, 1.0), (12, 40, 0.3), (BLOCK_MAX_NR, 64, 2.5)])
    def test_impulse_block_is_the_station_march_of_its_impulses(self, nr, nz, beta):
        op = RadialOperator.build(unit_grid(nr, nz), beta)  # stations at the nz grid's dz
        for b in (BLOCK, BLOCK // 2):  # both block sizes the march takes
            qt = impulse_block(nr, nz, beta, b)
            assert impulse_block(nr, nz, beta, b) is qt  # built once per (nr, nz, beta, B)
            assert qt.shape == (nr + b, b * nr)
            assert not qt.flags.writeable
            assert np.all(qt >= 0.0)
            for i in range(nr):  # a unit deviation at node i under a zero wall
                values = np.zeros((1, nr + 1, b + 1))
                values[0, i, 0] = 1.0
                fluid_march._march_stations(values, np.zeros((1, b + 1)), op)
                assert np.array_equal(qt[i].reshape(b, nr), values[0, :nr, 1:].T), (b, i)
            for m in range(b):  # a unit drop into station m + 1 from a constant 1
                values = np.ones((1, nr + 1, b + 1))
                wall = (np.arange(b + 1) <= m).astype(float)[None, :]
                fluid_march._march_stations(values, wall, op)
                want = (values[0, :nr, 1:] - wall[:, 1:]).T
                assert np.array_equal(qt[nr + m].reshape(b, nr), want), (b, m)
            # causal: a drop into station m + 1 leaves the stations before it at 0
            assert np.all(qt[nr:].reshape(b, b, nr)[np.tril_indices(b, -1)] == 0.0)

    def test_factor_is_built_once_per_grid_and_beta(self, monkeypatch):
        # betas 1.2, 1.2, 3.4: one kernel per run, whatever the time grid
        params = species_of((1.2, 1.2, 3.4))
        factored = []
        dpttrf = fluid_march.dpttrf
        monkeypatch.setattr(fluid_march, "dpttrf", lambda *a: factored.append(a) or dpttrf(*a))
        nr = BLOCK_MAX_NR + 1  # the station path: each run holds its own factor
        op = march_operator(params, Grid(nr=nr, nz=20, dt=0.1, t_end=1.0))
        assert len(factored) == 2
        fresh = RadialOperator.build(Grid(nr=nr, nz=20, dt=0.25, t_end=2.0), 3.4)
        (_, first), (_, last) = op.groups
        assert isinstance(first, RadialOperator) and first.beta == 1.2
        for name in ("face_r", "ab", "d", "e"):
            assert np.array_equal(getattr(last, name), getattr(fresh, name)), name
        assert last.d.shape == (nr,) and last.e.shape == (nr - 1,)
        # the block path: one kernel over every species, made of the impulse
        # blocks kept for the process, each built once per (nr, nz, beta, B):
        # each species' carry is its block's last station and its output
        # kernel is its block folded with the wall.  Two distinct betas at
        # nr = 64 would take 1.3 MB at BLOCK, so B halves
        impulse_block.cache_clear()
        for nr, nz, b in ((12, 20, BLOCK), (BLOCK_MAX_NR, 20, BLOCK // 2)):
            for dt in (0.1, 0.25):
                op = march_operator(params, Grid(nr=nr, nz=nz, dt=dt, t_end=1.0))
                ((rows, kernel),) = op.groups
                assert rows == slice(0, 3)
                assert kernel.carry.shape == (3, nr + b, nr)
                assert kernel.out.shape == (3, nr + b + 1, b * nr)
                for i, beta in enumerate((1.2, 1.2, 3.4)):
                    qt = impulse_block(nr, nz, beta, b)
                    assert np.array_equal(kernel.carry[i], qt[:, -nr:]), (nr, i)
                    assert np.array_equal(kernel.out[i], folded(qt, nr, b)), (nr, i)
        assert impulse_block.cache_info().misses == 4

    def test_impulse_block_raises_on_a_negative_entry(self, monkeypatch):
        station = fluid_march._march_stations

        def undershoot(values, wvals, op):
            station(values, wvals, op)
            values[0, 1, 2] = -1e-300

        monkeypatch.setattr(fluid_march, "_march_stations", undershoot)
        with pytest.raises(RuntimeError, match="maximum principle"):
            impulse_block.__wrapped__(8, 8, 1.0, BLOCK)

    def test_lapack_error_raises(self, monkeypatch):
        monkeypatch.setattr(fluid_march, "dpttrs", lambda d, e, b, overwrite_b: (b, -2))
        with pytest.raises(ValueError, match="argument 2"):
            graetz(BLOCK_MAX_NR + 1, 8)  # station path
        with pytest.raises(ValueError, match="argument 2"):
            impulse_block.__wrapped__(8, 8, 1.0, BLOCK)  # the block path's one LAPACK use, uncached

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


class TestMarchOperator:
    @pytest.mark.parametrize("nr", [8, BLOCK_MAX_NR + 16])
    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_beta_rejected(self, nr, beta):
        # a NaN beta used to march to an all-NaN field on the station path,
        # and to raise a misleading maximum-principle error on the block path
        params = single() + (SpeciesParams("bad", beta, 1.0, 1.0, -1),)
        with pytest.raises(ValueError, match="species.bad.beta_f"):
            march_operator(params, unit_grid(nr, 8))

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
        assert kernel.carry.shape == (len(betas), nr + block, nr)
        assert kernel.out.shape == (len(betas), nr + block + 1, block * nr)

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
        assert calls == [(4, nr + BLOCK + 1, BLOCK * nr)]
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
@given(
    st.integers(4, BLOCK_MAX_NR),
    st.lists(st.sampled_from([0.3, 1.0, 2.5]), min_size=1, max_size=4),  # repeats and runs
    st.sampled_from([1 << 40, 0]),  # a budget that keeps B = BLOCK, and one that halves it
    st.integers(1, 4),
    st.integers(0, BLOCK // 2 - 1),  # nz % B == 0 at 0
    st.integers(0, 2**32 - 1),
)
def test_folded_block_march(nr, betas, kernel_bytes, blocks, rest, seed):
    block = BLOCK if kernel_bytes else BLOCK // 2
    nz = blocks * block + rest
    ns = len(betas)
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.01, 500.0, (ns, 1))
    inlet = scale * rng.uniform(-1.0, 1.0, (ns, nr + 1))
    wall = scale * rng.uniform(-1.0, 1.0, (ns, nz + 1))
    c = rng.uniform(-1e3, 1e3, (ns, 1))
    with mock.patch.object(fluid_march, "KERNEL_BYTES", kernel_bytes):
        ((_, kernel),) = march_operator(species_of(betas), grid).groups
        assert kernel.carry.shape[1] == nr + block
        values = march(betas, grid, inlet, wall).values
        alone = [
            march(betas[i : i + 1], grid, inlet[i : i + 1], wall[i : i + 1]).values[0]
            for i in range(ns)
        ]
        constant = march(betas, grid, np.tile(c, nr + 1), np.tile(c, nz + 1)).values
    # within rounding of the station march, whose carries the fold leaves alone
    err = np.abs(values - station_march(betas, grid, inlet, wall))
    data = np.concatenate([inlet, wall], axis=1)
    assert np.all(err.max(axis=(1, 2)) <= 1e-13 * np.abs(data).max(axis=1))
    # batched is each species alone, bitwise, and constant data is kept exactly
    for i in range(ns):
        assert np.array_equal(values[i], alone[i]), i
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
