import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from graetzcat import cli_io, coupler
from graetzcat.cli_io import ConfigError, parse_config
from graetzcat.coupler import run_simulation
from graetzcat.fluid_march import (
    BLOCK_MAX_NR,
    BlockKernel,
    RadialOperator,
    march_fluid,
    march_operator,
    wall_flux_integral,
)
from graetzcat.model import (
    BYTE_BUDGET,
    Grid,
    InitialData,
    ModelConfig,
    SpeciesParams,
    contraction_margin,
    grid_errors,
    validate_config,
)
from graetzcat.wall_evolve import step_wall, surface_operator, surface_step

from conftest import SCENARIO_CFG, constant_config


def species(name="x", beta=1.0, gamma=1.0, theta=1.0, delta=-1):
    return SpeciesParams(name=name, beta_f=beta, gamma_s=gamma, theta_s=theta, delta=delta)


class TestSpeciesPlan:
    """What the march and surface operators derive from the species alone:
    one solver each over every species and the coefficient columns."""

    # betas 1, 2, 1, 3: the equal betas of a and c apart; thetas 0.5, 0, 0,
    # 0.5: b and c two neighbouring theta = 0 species
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
        return grid, inlet, wall, flux, rates

    @staticmethod
    def operators(params, grid):
        return (
            march_operator(params, grid.nr, grid.nz),
            surface_operator(params, grid.nz + 1, grid.dt),
        )

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

    def test_each_operator_holds_one_solver(self):
        # one march kernel and one surface factor over every species,
        # whatever runs, repeats apart or theta = 0 species they hold
        grid = self.inputs(4)[0]
        station_grid = self.inputs(4, nr=BLOCK_MAX_NR + 1)[0]
        thetas = (1.0, 1.2, 1.0, 1.5)  # the split_beta benchmark workload's
        split = tuple(species(n, theta=t) for n, t in zip("abcd", thetas))
        for p in (self.MIXED, split):
            for g, kind in ((grid, BlockKernel), (station_grid, RadialOperator)):
                march_op, surface_op = self.operators(p, g)
                kernel = march_op.kernel
                assert isinstance(kernel, kind)
                rows = len(kernel.carry) if kind is BlockKernel else kernel.d.size // g.nr
                assert rows == 4
                assert len(surface_op.factor) == 5
                assert surface_op.factor[1].shape == (4 * (g.nz + 1),)

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
            # each solver holds arrays of its own
            assert self.arrays_of(ops[0].kernel) and self.arrays_of(ops[1].factor)
            for arr in self.arrays_of(ops):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_a_list_and_a_tuple_give_bitwise_the_same_march_and_step(self):
        grid, inlet, wall, flux, rates = self.inputs(4)
        ops = self.operators(self.MIXED, grid)
        from_list = self.operators(list(self.MIXED), grid)
        for a, b in zip(ops, from_list):
            assert type(a) is type(b)
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if field.name in ("kernel", "factor"):
                    assert type(x) is type(y)
                    x, y = self.arrays_of(x), self.arrays_of(y)
                    assert len(x) == len(y)
                    assert all(np.array_equal(u, v) for u, v in zip(x, y))
                else:
                    assert np.array_equal(x, y), field.name
        march_op, surface_op = ops
        field = march_fluid(wall, inlet, march_op)
        assert np.array_equal(field.values, march_fluid(wall, inlet, from_list[0]).values)
        assert np.array_equal(
            wall_flux_integral(field, march_op.beta), wall_flux_integral(field, from_list[0].beta)
        )
        stepped = step_wall(surface_step(wall, rates, surface_op), flux)
        assert np.array_equal(stepped, step_wall(surface_step(wall, rates, from_list[1]), flux))
        # and each species is what it gives alone
        for i in range(4):
            one = slice(i, i + 1)
            solo_march, solo_surface = self.operators([self.MIXED[i]], grid)
            solo = march_fluid(wall[one], inlet[one], solo_march)
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
    def test_step_count(self):
        assert Grid(nr=8, nz=8, dt=0.02, t_end=60.0).n_steps == 3000


# every constant out of its range, NaN and the infinities included
BAD_CONSTANTS = (
    [(key, v) for key in ("beta_f", "gamma_s") for v in (math.nan, -math.inf, math.inf, 0.0, -1.0)]
    + [("theta_s", v) for v in (math.nan, -math.inf, math.inf, -1e-3)]
    + [("delta", v) for v in (0, 2, -2)]
)


class TestSpeciesRules:
    """One rule set for the species constants: what validate_config reports,
    the march and surface operators and contraction_margin reject, whether
    they read the constant or not and wherever the species stands."""

    @pytest.mark.parametrize("key, value", BAD_CONSTANTS)
    def test_every_consumer_rejects_a_bad_constant(self, key, value):
        cfg = constant_config(nr=8, nz=8)
        bad = dataclasses.replace(cfg.species[0], name="bad", **{key: value})
        report = validate_config(dataclasses.replace(cfg, species=(bad,) + cfg.species[1:]))
        assert any(e.startswith(f"species.bad.{key} = ") for e in report.errors), report.errors
        ok = species("ok", gamma=4.0)
        for params in ((ok, bad), (bad, ok)):
            for build in (
                lambda: march_operator(params, cfg.grid.nr, cfg.grid.nz),
                lambda: surface_operator(params, cfg.grid.nz + 1, cfg.grid.dt),
                lambda: contraction_margin(params),
            ):
                with pytest.raises(ValueError, match=rf"species\.bad\.{key}"):
                    build()

    @pytest.mark.parametrize("name", ["C,O", "C=O", "C O", "1CO", ""])
    def test_every_consumer_rejects_a_name_that_is_not_an_identifier(self, name):
        # names go unquoted into CSV headers and KEY=VALUE lines: "C,O" gave a
        # header of one column more than the data, "C=O" a footer key OUTLET_C
        cfg = constant_config(nr=8, nz=8)
        bad = dataclasses.replace(cfg.species[0], name=name)
        report = validate_config(dataclasses.replace(cfg, species=(bad,) + cfg.species[1:]))
        message = f"species.{name}.name = {name} must be an identifier"
        assert message in report.errors
        ok = species("ok", gamma=4.0)
        for params in ((ok, bad), (bad, ok)):
            for build in (
                lambda: march_operator(params, cfg.grid.nr, cfg.grid.nz),
                lambda: surface_operator(params, cfg.grid.nz + 1, cfg.grid.dt),
                lambda: contraction_margin(params),
            ):
                with pytest.raises(ValueError, match=re.escape(message)):
                    build()

    @pytest.mark.parametrize("name", ["C,O", "C=O"])
    def test_the_cli_refuses_a_name_that_is_not_an_identifier(self, name, tmp_path, capsys):
        text = SCENARIO_CFG.read_text().replace("[species.CO]", f"[species.{name}]")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("box.CO = 0, 0.05\n", ""))
        out = tmp_path / "out"
        assert cli_io.main(["check", "--config", str(cfg)]) == 2
        assert cli_io.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        error = f"config error: species.{name}.name = {name} must be an identifier"
        assert captured.err.splitlines().count(error) == 2, captured.err

    @pytest.mark.parametrize("name", ["r", "z", "t"])
    def test_every_consumer_rejects_a_csv_column_name(self, name):
        # a species named z gave snapshot_final.csv the header r,z,z,..., and
        # csv.DictReader returned its value for the coordinate z
        cfg = constant_config(nr=8, nz=8)
        bad = dataclasses.replace(cfg.species[0], name=name)
        report = validate_config(dataclasses.replace(cfg, species=(bad,) + cfg.species[1:]))
        message = f"species.{name}.name = {name} must be none of the CSV columns r, z, t"
        assert report.errors == (message,)
        ok = species("ok", gamma=4.0)
        for params in ((ok, bad), (bad, ok)):
            for build in (
                lambda: march_operator(params, cfg.grid.nr, cfg.grid.nz),
                lambda: surface_operator(params, cfg.grid.nz + 1, cfg.grid.dt),
                lambda: contraction_margin(params),
            ):
                with pytest.raises(ValueError, match=re.escape(message)):
                    build()

    @pytest.mark.parametrize("name", ["r", "z", "t"])
    def test_the_cli_refuses_a_csv_column_name(self, name, tmp_path, capsys):
        text = SCENARIO_CFG.read_text().replace("[species.CO]", f"[species.{name}]")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("box.CO = 0, 0.05\n", ""))
        out = tmp_path / "out"
        assert cli_io.main(["check", "--config", str(cfg)]) == 2
        assert cli_io.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        rule = "must be none of the CSV columns r, z, t"
        error = f"config error: species.{name}.name = {name} {rule}"
        assert captured.err.splitlines().count(error) == 2, captured.err

    def test_every_consumer_rejects_a_repeated_name(self):
        # two species named s0 gave probe.csv the header t,s0,s0 and
        # report.txt each OUTLET_s0 and ENVELOPE_s0_* key twice, of which a
        # KEY=VALUE reader keeps the last.  The CLI cannot reach this: a
        # repeated [species.s0] section is a duplicate-section error
        cfg = constant_config(nr=8, nz=8)
        first = cfg.species[0]
        twin = dataclasses.replace(cfg.species[1], name=first.name)
        report = validate_config(dataclasses.replace(cfg, species=(first, twin)))
        message = "species.s0.name = s0 must be unique"
        assert report.errors == (message,)  # the repeat is named once, not each copy
        ok = species("ok", gamma=4.0)
        for params in ((first, twin), (twin, ok, first)):
            for build in (
                lambda: march_operator(params, cfg.grid.nr, cfg.grid.nz),
                lambda: surface_operator(params, cfg.grid.nz + 1, cfg.grid.dt),
                lambda: contraction_margin(params),
            ):
                with pytest.raises(ValueError, match=re.escape(message)):
                    build()

    def test_every_consumer_rejects_no_species(self):
        cfg = constant_config(nr=8, nz=8)
        report = validate_config(dataclasses.replace(cfg, species=()))
        assert "at least one species is required" in report.errors
        for build in (
            lambda: march_operator((), cfg.grid.nr, cfg.grid.nz),
            lambda: surface_operator((), cfg.grid.nz + 1, cfg.grid.dt),
            lambda: contraction_margin(()),
        ):
            with pytest.raises(ValueError, match="at least one species is required"):
                build()

    def test_mu_does_not_depend_on_the_species_order(self):
        params = (
            species("a", beta=1.0, gamma=4.0, theta=0.5),
            species("b", beta=2.0, gamma=0.3, theta=1.2),
            species("c", beta=0.5, gamma=1.7, theta=0.8),
        )
        mus = {contraction_margin(p).mu for p in itertools.permutations(params)}
        assert mus == {contraction_margin(params).mu}


# one grid per rule, and one breaking three rules at once, with the message
# each broken rule gives for a run of two species: a march field of
# 16 (nr + 1)(nz + 1) bytes and a trajectory of 8 (1 + 2 (nz + 3)) bytes per
# level, 11 levels for 10 steps
GRID_RULES = [
    (Grid(2, 8, 0.05, 0.5), ["grid.nr = 2 is too small (need nr >= 4)"]),
    (Grid(8, -100, 0.05, 0.5), ["grid.nz = -100 is too small (need nz >= 4)"]),
    (Grid(8, 8, math.inf, 0.5), ["grid.dt = inf and grid.t_end = 0.5 must be finite"]),
    (Grid(8, 8, 0.05, math.nan), ["grid.dt = 0.05 and grid.t_end = nan must be finite"]),
    (Grid(8, 8, 0.0, 0.5), ["grid.dt = 0.0 must be positive"]),
    (Grid(8, 8, -0.05, 0.5), ["grid.dt = -0.05 must be positive"]),
    (Grid(8, 8, 0.05, 0.01), ["grid.t_end = 0.01 is shorter than one step dt = 0.05"]),
    (Grid(8, 8, 0.05, 0.525), ["grid.t_end = 0.525 is not a whole number of steps dt = 0.05"]),
    (
        Grid(10**13, 8, 0.05, 0.5),
        [
            f"a 10000000000000x8 run of 10 steps takes {16 * 9 * (10**13 + 1)} bytes of "
            f"march field and {88 * (1 + 2 * 11)} bytes of trajectory, over the "
            f"{BYTE_BUDGET}-byte budget"
        ],
    ),
    (
        Grid(8, 10**13, 0.05, 0.5),
        [
            f"a 8x10000000000000 run of 10 steps takes {16 * 9 * (10**13 + 1)} bytes of "
            f"march field and {88 * (1 + 2 * (10**13 + 3))} bytes of trajectory, over the "
            f"{BYTE_BUDGET}-byte budget"
        ],
    ),
    (
        Grid(8, 8, 0.5, 5e7),
        [
            f"a 8x8 run of 100000000 steps takes 1296 bytes of march field and "
            f"{(10**8 + 1) * 8 * 23} bytes of trajectory, over the {BYTE_BUDGET}-byte budget"
        ],
    ),
    (
        Grid(-1, 3, math.nan, 0.5),
        [
            "grid.nr = -1 is too small (need nr >= 4)",
            "grid.nz = 3 is too small (need nz >= 4)",
            "grid.dt = nan and grid.t_end = 0.5 must be finite",
        ],
    ),
]


class TestGridRules:
    """One rule set for the grid: what validate_config reports for a config
    built by hand, and what parse_config refuses at the [grid] line before
    it sizes any profile by the grid."""

    @pytest.mark.parametrize("grid, messages", GRID_RULES)
    def test_validate_config_reports_the_rule_set(self, grid, messages):
        assert grid_errors(grid, 2) == messages
        # the profiles fit the valid 8x8 grid; on a rejected grid their
        # shapes are not checked, so the grid's messages are all there is
        cfg = constant_config(nr=8, nz=8)
        assert validate_config(dataclasses.replace(cfg, grid=grid)).errors == tuple(messages)

    @pytest.mark.parametrize("grid, messages", GRID_RULES)
    def test_parse_config_refuses_before_any_profile(self, grid, messages, monkeypatch):
        text = "\n".join(
            ["[grid]"]
            + [f"{key} = {getattr(grid, key)!r}" for key in ("nr", "nz", "dt", "t_end")]
            + ["[kinetics]", "model = zero"]
            + [
                f"[species.{name}]\nbeta_f = 1\ngamma_s = 1\ntheta_s = 1\ndelta = -1\n"
                "inlet = const:0.5\nwall_init = const:0.5"
                for name in "ab"
            ]
        )

        def no_profile(*args):
            raise AssertionError("a profile was built")

        monkeypatch.setattr(cli_io, "_profile", no_profile)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak
        assert [i.message for i in exc.value.issues] == messages
        assert {(i.code, i.section, i.key, i.line) for i in exc.value.issues} == {
            ("BAD_NUMBER", "grid", "", 1)
        }


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
