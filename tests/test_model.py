import dataclasses
import math

import numpy as np
import pytest

from graetzcat import coupler
from graetzcat.coupler import Snapshot, run_simulation
from graetzcat.fluid_march import BLOCK_MAX_NR, march_fluid, march_operator, wall_flux_integral
from graetzcat.model import (
    Grid,
    InitialData,
    ModelConfig,
    SpeciesParams,
    consecutive_runs,
    contraction_margin,
    validate_config,
)
from graetzcat.wall_evolve import step_wall, surface_operator, surface_step
from graetzcat.qualcheck import energy_growth_report

from conftest import constant_config


def species(name="x", beta=1.0, gamma=1.0, theta=1.0, delta=-1):
    return SpeciesParams(name=name, beta_f=beta, gamma_s=gamma, theta_s=theta, delta=delta)


class TestSpeciesPlan:
    """What the march and surface operators derive from the species alone:
    the runs of consecutive species they group and the coefficient columns."""

    # betas 1, 2, 1, 3: four runs, the equal betas of a and c apart; thetas
    # 0.5, 0, 0, 0.5: three runs, b and c one theta = 0 run
    MIXED = (
        species("a", beta=1.0, theta=0.5),
        species("b", beta=2.0, gamma=0.3, theta=0.0, delta=1),
        species("c", beta=1.0, gamma=1.7, theta=0.0),
        species("d", beta=3.0, theta=0.5, delta=1),
    )

    def inputs(self, ns, nr=6, nz=10):
        rng = np.random.default_rng(11)
        grid = Grid(nr=nr, nz=nz, dt=0.01, t_end=0.01)
        inlet = rng.uniform(0.0, 1.0, (ns, nr + 1))
        wall, flux, rates = rng.uniform(0.0, 1.0, (3, ns, nz + 1))
        return grid, InitialData(inlet, wall.copy()), wall, flux, rates

    @staticmethod
    def operators(params, grid):
        return march_operator(params, grid), surface_operator(params, grid.nz + 1, grid.dt)

    @staticmethod
    def arrays_of(obj):
        """Every array an operator holds, through dataclass fields and tuples."""
        if isinstance(obj, np.ndarray):
            return [obj]
        if dataclasses.is_dataclass(obj):
            obj = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
        if isinstance(obj, (list, tuple)):
            return [a for item in obj for a in TestSpeciesPlan.arrays_of(item)]
        return []

    def test_groups_are_runs_of_consecutive_species(self):
        assert consecutive_runs([1.0, 2.0, 1.0, 3.0]) == (
            (1.0, slice(0, 1)), (2.0, slice(1, 2)), (1.0, slice(2, 3)), (3.0, slice(3, 4))
        )
        assert consecutive_runs([]) == ()
        grid = self.inputs(4)[0]
        # the station path (nr > 64) marches by runs of beta, the block path
        # all species in one group
        station_grid = self.inputs(4, nr=65)[0]
        march_op, surface_op = self.operators(self.MIXED, grid)
        assert [rows for rows, _ in march_op.groups] == [slice(0, 4)]
        runs = march_operator(self.MIXED, station_grid).groups
        assert [rows for rows, _ in runs] == [slice(i, i + 1) for i in range(4)]
        assert [rows for rows, _ in surface_op.groups] == [slice(0, 1), slice(1, 3), slice(3, 4)]
        assert surface_op.groups[1][1] is None  # theta = 0: no factor
        # the split_beta benchmark workload's theta_s of CO, O2, CO2 and T
        thetas = (1.0, 1.2, 1.0, 1.5)
        split = tuple(species(n, theta=t) for n, t in zip("abcd", thetas))
        march_op, surface_op = self.operators(split, grid)
        assert [rows for rows, _ in march_op.groups] == [slice(0, 4)]
        runs = march_operator(split, station_grid).groups
        assert [rows for rows, _ in runs] == [slice(0, 4)]
        assert [rows for rows, _ in surface_op.groups] == [slice(i, i + 1) for i in range(4)]
        for p in (self.MIXED, split):
            for g in (grid, station_grid):
                march_op, surface_op = self.operators(p, g)
                assert all(type(rows) is slice for rows, _ in march_op.groups + surface_op.groups)

    def test_plan_columns(self):
        march_op, surface_op = self.operators(self.MIXED, self.inputs(4)[0])
        assert surface_op.dt == 0.01 and surface_op.nn == 11
        for col, want in (
            (surface_op.neg_gamma, [-1.0, -0.3, -1.7, -1.0]),
            (surface_op.delta, [-1.0, 1.0, -1.0, 1.0]),
            (surface_op.theta, [0.5, 0.0, 0.0, 0.5]),
            (march_op.beta, [1.0, 2.0, 1.0, 3.0]),
        ):
            assert col.shape == (4, 1) and col.dtype == float
            assert np.array_equal(col[:, 0], want)

    def test_a_run_builds_each_operator_once(self, monkeypatch):
        built = {"march_operator": 0, "surface_operator": 0}
        for name in built:
            real = getattr(coupler, name)

            def counted(*args, _real=real, _name=name):
                built[_name] += 1
                return _real(*args)

            monkeypatch.setattr(coupler, name, counted)
        run_simulation(constant_config(nr=8, nz=8, dt=0.05, t_end=0.25))
        assert built == {"march_operator": 1, "surface_operator": 1}

    def test_arrays_are_read_only(self):
        for nr in (6, BLOCK_MAX_NR + 1):  # both march paths
            ops = self.operators(self.MIXED, self.inputs(4, nr=nr)[0])
            # every group but a theta = 0 run holds arrays of its own
            for op in ops:
                assert all(self.arrays_of(k) for _, k in op.groups if k is not None)
            for arr in self.arrays_of(ops):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_a_list_and_a_tuple_give_bitwise_the_same_march_and_step(self):
        grid, init, wall, flux, rates = self.inputs(4)
        ops = self.operators(self.MIXED, grid)
        from_list = self.operators(list(self.MIXED), grid)
        for a, b in zip(ops, from_list):
            assert type(a) is type(b)
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if field.name == "groups":
                    assert [rows for rows, _ in x] == [rows for rows, _ in y]
                    x, y = self.arrays_of(x), self.arrays_of(y)
                    assert len(x) == len(y)
                    assert all(np.array_equal(u, v) for u, v in zip(x, y))
                else:
                    assert np.array_equal(x, y), field.name
        march_op, surface_op = ops
        field = march_fluid(wall, init, march_op)
        assert np.array_equal(field.values, march_fluid(wall, init, from_list[0]).values)
        assert np.array_equal(
            wall_flux_integral(field, grid, march_op), wall_flux_integral(field, grid, from_list[0])
        )
        stepped = step_wall(surface_step(wall, rates, surface_op), flux)
        assert np.array_equal(stepped, step_wall(surface_step(wall, rates, from_list[1]), flux))
        # and each species is what it gives alone
        for i in range(4):
            one = slice(i, i + 1)
            init_i = InitialData(init.inlet[one], init.wall_init[one])
            solo_march, solo_surface = self.operators([self.MIXED[i]], grid)
            solo = march_fluid(wall[one], init_i, solo_march)
            assert np.array_equal(field.values[i], solo.values[0])
            alone = step_wall(surface_step(wall[one], rates[one], solo_surface), flux[one])
            assert np.array_equal(stepped[i], alone[0])


class TestValidateConfig:
    def test_constant_compatible_data_is_clean(self):
        report = validate_config(constant_config())
        assert report.ok
        assert report.errors == () and report.warnings == ()

    def test_temperature_style_mismatch_warns(self, scenario):
        cfg, _ = scenario
        report = validate_config(cfg)
        assert report.ok
        assert any("species.T" in w and "compatibility" in w for w in report.warnings)
        # the compatible species stay silent
        assert not any("species.CO:" in w for w in report.warnings)

    def test_zero_beta_is_an_error_naming_the_field(self):
        cfg = constant_config()
        bad = (species("CO", beta=0.0),) + cfg.species[1:]
        cfg = ModelConfig(bad, cfg.grid, cfg.initial, cfg.kinetics)
        report = validate_config(cfg)
        assert not report.ok
        assert any("species.CO.beta_f" in e for e in report.errors)

    def test_bad_delta_is_an_error(self):
        cfg = constant_config()
        bad = (species("a", delta=2),) + cfg.species[1:]
        report = validate_config(ModelConfig(bad, cfg.grid, cfg.initial, cfg.kinetics))
        assert any("delta" in e for e in report.errors)

    def test_small_grid_is_an_error(self):
        cfg = constant_config(nr=2, nz=64)
        report = validate_config(cfg)
        assert any("nr" in e for e in report.errors)

    def test_degenerate_theta_warns(self):
        cfg = constant_config()
        bad = (species("a", theta=0.0),) + cfg.species[1:]
        report = validate_config(ModelConfig(bad, cfg.grid, cfg.initial, cfg.kinetics))
        assert report.ok
        assert any("DEGENERATE" in w for w in report.warnings)

    def test_idempotent_and_pure(self):
        cfg = constant_config()
        assert validate_config(cfg) == validate_config(cfg)

    @pytest.mark.parametrize(
        "key, value",
        [("beta_f", math.inf), ("gamma_s", math.inf), ("theta_s", math.inf), ("theta_s", math.nan)],
    )
    def test_non_finite_transport_constant_is_an_error(self, key, value):
        cfg = constant_config()
        bad = dataclasses.replace(cfg.species[0], **{key: value})
        report = validate_config(
            ModelConfig((bad,) + cfg.species[1:], cfg.grid, cfg.initial, cfg.kinetics)
        )
        assert any(e.startswith(f"species.s0.{key} = ") for e in report.errors)

    def test_non_finite_initial_data_is_an_error(self):
        cfg = constant_config()
        inlet = cfg.initial.inlet.copy()
        inlet[0, 3] = np.nan
        bad = ModelConfig(
            cfg.species, cfg.grid, InitialData(inlet, cfg.initial.wall_init), cfg.kinetics
        )
        report = validate_config(bad)
        assert any("non-finite" in e for e in report.errors)


class TestGrid:
    def test_nodes_cover_the_closed_interval(self):
        g = Grid(nr=7, nz=13, dt=0.1, t_end=1.0)
        assert g.r[0] == 0.0 and g.r[-1] == 1.0
        assert g.z[0] == 0.0 and g.z[-1] == 1.0
        assert len(g.r) == 8 and len(g.z) == 14

    def test_step_count(self):
        assert Grid(nr=8, nz=8, dt=0.02, t_end=60.0).n_steps == 3000


class TestContractionMargin:
    def test_unit_parameters(self):
        d = contraction_margin([species()])
        assert d.mu == 1.0
        assert d.satisfied
        assert d.margin == pytest.approx(math.sqrt(math.e) / 2.0, abs=1e-15)
        assert d.alpha_opt == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_violating_parameters(self):
        d = contraction_margin([species(gamma=4.0)])
        assert d.mu == 2.0
        assert not d.satisfied
        assert d.threshold == pytest.approx(1.2130613194252668, abs=1e-15)

    def test_degenerate_theta_gives_infinity(self):
        d = contraction_margin([species(theta=0.0)])
        assert math.isinf(d.mu)
        assert not d.satisfied

    def test_scaling_identity(self):
        # mu(c gamma, theta) = sqrt(c) * mu(gamma, theta)
        rng = np.random.default_rng(11)
        for _ in range(50):
            b, g, t = rng.uniform(0.1, 5.0, 3)
            c = rng.uniform(0.1, 10.0)
            base = contraction_margin([species(beta=b, gamma=g, theta=t)])
            scaled = contraction_margin([species(beta=b, gamma=c * g, theta=t)])
            assert scaled.mu == pytest.approx(math.sqrt(c) * base.mu, rel=1e-12)

    def test_sup_inf_over_species(self):
        d = contraction_margin(
            [species("a", beta=1, gamma=1, theta=2), species("b", beta=4, gamma=9, theta=3)]
        )
        assert d.mu == pytest.approx(max(1.0, 1.5) / 2.0)

    def test_rejects_empty_and_bad_beta(self):
        with pytest.raises(ValueError):
            contraction_margin([])
        with pytest.raises(ValueError):
            contraction_margin([species(beta=-1.0)])


class TestWeightedFluidNorm:
    """sup_z int_0^T int_0^1 U^2 r(1-r^2) dr dt per species, the weighted
    bulk norm a run reports, from station energies as the run records them."""

    def norm(self, values, times):
        _, nrp1, nzp1 = values.shape
        grid = Grid(nr=nrp1 - 1, nz=nzp1 - 1, dt=1.0, t_end=1.0)
        station = np.einsum("ijk,j->ik", values**2, grid.radial_quadrature())
        trajectory = [
            Snapshot(
                time=t,
                wall=values[:, -1, :],
                fluid_min=values.min(axis=(1, 2)),
                fluid_max=values.max(axis=(1, 2)),
                station_energy=station,
                residuals=(),
            )
            for t in times
        ]
        return energy_growth_report(trajectory).fluid_station_energy.max(axis=1)

    def test_constant_unit_field(self):
        vals = np.ones((1, 129, 5))
        # int_0^1 r(1-r^2) dr = 1/4, horizon T = 2
        assert self.norm(vals, np.linspace(0.0, 2.0, 41))[0] == pytest.approx(0.5, abs=2e-4)

    def test_zero_field(self):
        vals = np.zeros((2, 17, 5))
        assert np.all(self.norm(vals, [0.0, 0.5, 1.0]) == 0.0)

    def test_linear_radial_profile_against_quadrature_oracle(self):
        # oracle: dense trapezoid of r^2 * r(1-r^2) over r
        rr = np.linspace(0.0, 1.0, 200001)
        oracle = np.trapezoid(rr**2 * rr * (1 - rr**2), rr)
        assert oracle == pytest.approx(1.0 / 12.0, abs=1e-10)

        r = np.linspace(0.0, 1.0, 257)
        vals = np.broadcast_to(r[None, :, None], (1, 257, 9)).copy()
        assert self.norm(vals, np.linspace(0.0, 1.0, 11))[0] == pytest.approx(oracle, abs=1e-4)

    def test_degree_two_homogeneity(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.0, 1.0, (2, 33, 9))
        times = np.linspace(0.0, 1.0, 6)
        base = self.norm(vals, times)
        scaled = self.norm(4.0 * vals, times)
        assert np.allclose(scaled, 16.0 * base, rtol=1e-13)
