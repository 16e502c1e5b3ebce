import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graetzcat
from graetzcat import cli_io
from graetzcat.cli_io import (
    ConfigError,
    main,
    parse_config,
    write_probe_csv,
    write_report,
    write_snapshot_csv,
)
from graetzcat.coupler import CouplerSettings, run_simulation
from graetzcat.kinetics import co_oxidation, linear_consumption, zero_model
from graetzcat.model import FluidField, Grid
from graetzcat.qualcheck import NonnegReport

from conftest import SCENARIO_CFG, constant_config, raised, station_major

MINIMAL = """\
[grid]
nr = 8
nz = 8
dt = 0.05
t_end = 0.5

[kinetics]
model = zero

[species.a]
beta_f = 1.0
gamma_s = 1.0
theta_s = 1.0
delta = -1
inlet = const:0.5
wall_init = const:0.5

[species.b]
beta_f = 1.0
gamma_s = 1.0
theta_s = 1.0
delta = 1
inlet = const:1.0
wall_init = const:1.0
"""


def issues_of(text, base="."):
    try:
        parse_config(text, base)
    except ConfigError as exc:
        return exc.issues
    return ()


class TestParseConfig:
    def test_coupler_defaults_applied(self):
        _, settings = parse_config(MINIMAL)
        assert settings == CouplerSettings()

    def test_missing_key_names_section_and_key(self):
        text = MINIMAL.replace("beta_f = 1.0\ngamma_s = 1.0", "gamma_s = 1.0", 1)
        issues = issues_of(text)
        assert any(
            i.code == "MISSING_KEY" and i.section == "species.a" and i.key == "beta_f"
            for i in issues
        )

    def test_unknown_key_with_line_number(self):
        text = MINIMAL.replace("[grid]\nnr = 8", "[grid]\nwidth = 8\nnr = 8")
        issues = issues_of(text)
        bad = [i for i in issues if i.code == "UNKNOWN_KEY"]
        assert bad and bad[0].key == "width" and bad[0].line == 2

    def test_bad_number(self):
        text = MINIMAL.replace("dt = 0.05", "dt = fast")
        issues = issues_of(text)
        assert any(i.code == "BAD_NUMBER" and i.key == "dt" for i in issues)

    def test_file_profile_roundtrip(self, tmp_path):
        prof = tmp_path / "inlet.txt"
        prof.write_text("\n".join(str(0.1 * i) for i in range(9)) + "\n")
        text = MINIMAL.replace("inlet = const:0.5", "inlet = file:inlet.txt", 1)
        (tmp_path / "cfg.cfg").write_text(text)
        cfg, _ = parse_config(text, tmp_path)
        assert np.allclose(cfg.initial.inlet[0], 0.1 * np.arange(9))

    def test_file_not_found(self, tmp_path):
        text = MINIMAL.replace("inlet = const:0.5", "inlet = file:missing.txt", 1)
        issues = issues_of(text, tmp_path)
        assert any(i.code == "FILE_NOT_FOUND" for i in issues)

    def test_length_mismatch(self, tmp_path):
        prof = tmp_path / "short.txt"
        prof.write_text("1.0\n2.0\n")
        text = MINIMAL.replace("inlet = const:0.5", "inlet = file:short.txt", 1)
        issues = issues_of(text, tmp_path)
        assert any(i.code == "LENGTH_MISMATCH" for i in issues)

    def test_duplicate_key_rejected(self):
        text = MINIMAL.replace("nr = 8", "nr = 8\nnr = 9")
        issues = issues_of(text)
        assert any("duplicate" in i.message for i in issues)

    def test_non_finite_rate_law_values_are_bad_numbers(self):
        text = SCENARIO_CFG.read_text()
        for old, new in (
            ("prefactor = 400.0", "prefactor = nan"),
            ("activation_temp = 3000.0", "activation_temp = -inf"),
            ("box.CO = 0, 0.05", "box.CO = 0, nan"),
            ("box.T = 0, 520", "box.T = 0, inf"),
        ):
            key = new.partition(" ")[0]
            issues = issues_of(text.replace(old, new), SCENARIO_CFG.parent)
            assert [(i.code, i.key) for i in issues] == [("BAD_NUMBER", key)], new

    def test_box_upper_bound_must_be_positive(self):
        text = SCENARIO_CFG.read_text()
        for new in ("box.CO = 0, 0", "box.CO = 0, -1"):
            issues = issues_of(text.replace("box.CO = 0, 0.05", new), SCENARIO_CFG.parent)
            assert [(i.code, i.key) for i in issues] == [("BAD_NUMBER", "box.CO")], new
            assert "must be > 0" in issues[0].message

    def test_box_entry_needs_exactly_two_fields(self):
        # a third field and more used to be dropped without a word
        text = SCENARIO_CFG.read_text()
        line = text.splitlines().index("box.CO = 0, 0.05") + 1
        for value in ("0, 0.05, 7, junk", "0, 0.05, 7", "0", ""):
            issues = issues_of(text.replace("0, 0.05", value, 1), SCENARIO_CFG.parent)
            assert [(i.code, i.key, i.line, i.message) for i in issues] == [
                ("BAD_NUMBER", "box.CO", line, f"expected lo,hi got {value!r}")
            ], value

    def test_co_oxidation_needs_four_species(self):
        text = MINIMAL.replace(
            "model = zero",
            "model = co_oxidation\nprefactor = 1\nactivation_temp = 0\nheat_release = 1",
        )
        issues = issues_of(text)
        assert any("4 species" in i.message for i in issues)

    def test_shipped_scenario_parses_to_the_published_data(self):
        cfg, settings = parse_config(SCENARIO_CFG.read_text(), SCENARIO_CFG.parent)
        assert cfg.species_names == ("CO", "O2", "CO2", "T")
        inlet0 = {n: cfg.initial.inlet[i, 0] for i, n in enumerate(cfg.species_names)}
        assert inlet0 == {"CO": 0.02, "O2": 0.05, "CO2": 0.0, "T": 500.0}
        wall0 = {n: cfg.initial.wall_init[i, 0] for i, n in enumerate(cfg.species_names)}
        assert wall0 == {"CO": 0.02, "O2": 0.05, "CO2": 0.0, "T": 490.0}
        deltas = [s.delta for s in cfg.species]
        assert deltas == [-1, -1, 1, 1]
        assert settings.tol == 1e-10 and settings.max_iter == 50


class TestRateLawRules:
    """The parser reports each rule of the rate law, at its key, with the
    text the library builders raise for the same value."""

    @pytest.mark.parametrize("bound", ["-1", "0", "inf", "nan"])
    def test_box_bound(self, bound):
        text = SCENARIO_CFG.read_text().replace("box.O2 = 0, 0.1", f"box.O2 = 0, {bound}")
        [issue] = issues_of(text, SCENARIO_CFG.parent)
        assert (issue.code, issue.key) == ("BAD_NUMBER", "box.O2")
        box = (0.05, float(bound), 0.05, 520.0)
        for build in (
            lambda: zero_model(box),
            lambda: linear_consumption(1.0, box),
            lambda: co_oxidation(400.0, 3000.0, 150.0, box),
        ):
            assert raised(build) == f"channel 1: {issue.message}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_constant(self, value):
        shipped = SCENARIO_CFG.read_text()
        for key, text, build in (
            (
                "rate",
                MINIMAL.replace("model = zero", f"model = linear_consumption\nrate = {value}"),
                lambda: linear_consumption(float(value), (1.0, 2.0)),
            ),
            (
                "prefactor",
                shipped.replace("prefactor = 400.0", f"prefactor = {value}"),
                lambda: co_oxidation(float(value), 3000.0, 150.0, (0.05, 0.1, 0.05, 520.0)),
            ),
            (
                "heat_release",
                shipped.replace("heat_release = 150.0", f"heat_release = {value}"),
                lambda: co_oxidation(400.0, 3000.0, float(value), (0.05, 0.1, 0.05, 520.0)),
            ),
        ):
            [issue] = issues_of(text, SCENARIO_CFG.parent)
            assert (issue.code, issue.key) == ("BAD_NUMBER", key)
            assert raised(build) == f"{key}: {issue.message}"

    def test_co_oxidation_channel_count(self):
        text = MINIMAL.replace(
            "model = zero",
            "model = co_oxidation\nprefactor = 1\nactivation_temp = 0\nheat_release = 1",
        )
        [issue] = issues_of(text)
        assert (issue.code, issue.key, issue.line) == ("UNKNOWN_KEY", "model", 8)
        assert raised(lambda: co_oxidation(1.0, 0.0, 1.0, (1.0, 2.0))) == issue.message


class TestWriters:
    def test_snapshot_csv_constant_field(self, tmp_path):
        # nr = 4, nz = 6: the r and z columns are the field's nodes j/4, k/6
        field = FluidField(np.full((2, 5, 7), 1.0 / 3.0))
        out = tmp_path / "snap.csv"
        write_snapshot_csv(field, ("a", "b"), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,z,a,b"
        assert len(lines) == 1 + 35
        cell = f"{1.0 / 3.0:.9g}"
        assert all(line.endswith(f"{cell},{cell}") for line in lines[1:])
        # z-major ordering: each block of 5 rows shares one z
        rows = [line.split(",")[:2] for line in lines[1:]]
        assert [r for r, _ in rows] == [f"{j / 4:.9g}" for j in range(5)] * 7
        assert [z for _, z in rows] == [f"{k / 6:.9g}" for k in range(7) for _ in range(5)]

    def test_snapshot_csv_bytes_match_the_per_value_writer(self, tmp_path):
        def per_value(field, grid, species_names, path):
            r, z, v = grid.r, grid.z, field.values
            lines = ["r,z," + ",".join(species_names)]
            for k in range(grid.nz + 1):
                for j in range(grid.nr + 1):
                    cells = [r[j], z[k]] + [v[i, j, k] for i in range(len(species_names))]
                    lines.append(",".join(f"{c:.9g}" for c in cells))
            path.write_text("\n".join(lines) + "\n")

        rng = np.random.default_rng(8)
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 123456789.5]
        # one species fewer than the field holds, and four species at nr = 64
        for nr, names in ((5, ("CO", "O2", "T")), (64, ("CO", "O2", "CO2", "T"))):
            grid = Grid(nr=nr, nz=7, dt=0.1, t_end=0.1)
            shape = (4, grid.nr + 1, grid.nz + 1)
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            values.flat[rng.choice(values.size, len(specials), replace=False)] = specials
            per_value(FluidField(values), grid, names, tmp_path / "old.csv")
            # r-major, and station-major as march_fluid stores the field
            for field in (FluidField(values), FluidField(station_major(values))):
                write_snapshot_csv(field, names, tmp_path / "new.csv")
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), nr

    def test_probe_csv_empty_series_is_header_only(self, tmp_path):
        out = tmp_path / "probe.csv"
        write_probe_csv([], [[], []], ("x", "y"), out)
        assert out.read_text() == "t,x,y\n"

    def test_probe_csv_column_order(self, tmp_path):
        out = tmp_path / "probe.csv"
        write_probe_csv([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]], ("CO", "O2"), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,CO,O2"
        assert lines[1] == "0,1,3"

    def test_probe_csv_values_are_nine_significant_digits(self, tmp_path):
        values = [1.0 / 3.0, -0.0, 5e-324, -1e308, 123456789.5, math.inf, math.nan]
        out = tmp_path / "probe.csv"
        write_probe_csv([0.1 * n for n in range(len(values))], [values], ("x",), out)
        rows = [f"{0.1 * n:.9g},{v:.9g}" for n, v in enumerate(values)]
        assert out.read_text() == "t,x\n" + "\n".join(rows) + "\n"

    def test_report_footer_values(self, tmp_path):
        cfg = constant_config(t_end=0.05)
        report, _ = run_simulation(cfg, CouplerSettings())
        out = tmp_path / "report.txt"
        write_report(report, out)
        text = out.read_text()
        assert "THRESHOLD=1.213061319" in text
        assert "SATISFIED=true" in text
        assert "REACTION_ENDED=0.0" in text
        assert "NONNEG=PASS" in text
        # byte-determinism of the writer itself
        out2 = tmp_path / "report2.txt"
        write_report(report, out2)
        assert out.read_bytes() == out2.read_bytes()
        # a failing nonnegativity line names its worst point like the envelopes'
        assert "\n  nonnegativity: PASS (0 violations)\n" in text
        write_report(dataclasses.replace(report, nonneg=NonnegReport(3, 1, 0.25, 0.04)), out)
        text = out.read_text()
        assert "\n  nonnegativity: FAIL (3 violations) (worst s1 0.25 at t = 0.04)\n" in text
        assert "\nNONNEG=FAIL\n" in text


# stdout of `graetzcat convergence --levels 3`
CONVERGENCE_LEVELS_3 = """\
LEVEL_0_CENTERLINE=0.0010146184421140874
LEVEL_1_CENTERLINE=0.0010110338987283603
LEVEL_2_CENTERLINE=0.001010139070204656
ORDER_CENTERLINE_0=2.002
LEVEL_0_FLUX_GAP=0.09103808297952647
LEVEL_1_FLUX_GAP=0.07737017543318786
LEVEL_2_FLUX_GAP=0.06746394995992458
ORDER_FLUX_IDENTITY_0=0.235
ORDER_FLUX_IDENTITY_1=0.198
LEVEL_0_FLUX_GAP_WINDOWED=0.0038801670975079096
LEVEL_1_FLUX_GAP_WINDOWED=0.0018683730854652798
LEVEL_2_FLUX_GAP_WINDOWED=0.00091646490926174
ORDER_FLUX_IDENTITY_WINDOWED_0=1.054
ORDER_FLUX_IDENTITY_WINDOWED_1=1.028
"""

# report.txt footer of the shipped scenario cut to its first 10 steps
# (t_end = 0.2), seed 0
SCENARIO_10_STEPS_FOOTER = """\
MU=1.0
THRESHOLD=1.213061319
SATISFIED=true
MARGIN=0.8243606353500641
LAMBDA=22.803584928198685
H1=PASS
H2=PASS
H3=FAIL
NONNEG=PASS
ENVELOPE_CO_UPPER_BOUND=PASS
ENVELOPE_O2_UPPER_BOUND=PASS
ENVELOPE_CO2_LOWER_BOUND=PASS
ENVELOPE_CO2_EXP_BOUND=FAIL
ENVELOPE_T_LOWER_BOUND=PASS
ENVELOPE_T_EXP_BOUND=PASS
REACTION_ENDED=inf
MAX_ITERATIONS=10
OUTLET_CO=0.019827807251200136
OUTLET_O2=0.049827807251200146
OUTLET_CO2=0.00017219274879986323
OUTLET_T=490.46885559031983
"""

# stdout of `graetzcat check` on the shipped config, seed 0: the footer's
# eight a-priori lines, then the worst point of each failed hypothesis
CHECK_SCENARIO = "".join(SCENARIO_10_STEPS_FOOTER.splitlines(keepends=True)[:8]) + (
    "H3_WORST species=-1 magnitude=317.4164222823702 "
    "x=(0.042318, 0.077253, 0.011469, 519.749265) y=(0.0, 0.0, 0.0, 0.0)\n"
)


class TestCli:
    def run_cli(self, *args):
        return main(list(args))

    def test_simulate_clean_run_exit_zero(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out"
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "report.txt").exists()
        assert (out / "probe.csv").exists()
        assert (out / "snapshot_final.csv").exists()

    def test_simulate_byte_determinism(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(a)) == 0
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(b)) == 0
        for name in ("report.txt", "probe.csv", "snapshot_final.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("levels", ["2", "-1"])
    def test_too_few_convergence_levels_exit_two(self, levels, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("convergence", "--levels", levels)
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [
            f"graetzcat convergence: error: --levels {levels}: "
            "need at least 3 levels for an observed order"
        ]

    @pytest.mark.parametrize("levels, need", [("8", 1074036744), ("9", 4295557128)])
    def test_convergence_beyond_the_byte_budget_exits_two(self, levels, need, capsys, monkeypatch):
        # refused before any march: K = 9's 8193 x 65537 field would be 4.3 GB
        monkeypatch.setattr(cli_io, "march_fluid", None)
        with pytest.raises(SystemExit) as exc:
            self.run_cli("convergence", "--levels", levels)
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [
            f"graetzcat convergence: error: --levels {levels}: its largest march field "
            f"takes {need} bytes, over the {cli_io.BYTE_BUDGET}-byte budget"
        ]
        with pytest.raises(ValueError, match=f"{need} bytes"):
            cli_io.convergence_study(int(levels))
        for fits in (6, 7):  # graetz_refine's K = 6 (67 MB) and K = 7 (269 MB)
            cli_io._check_levels(fits)

    @pytest.mark.parametrize("levels", ["100000", "1000000000"])
    def test_convergence_far_beyond_the_byte_budget_exits_two_promptly(
        self, levels, capsys, monkeypatch
    ):
        # refused before its field's byte count (a 60,000-digit number at
        # K = 10^5) is formed: that took seconds and then failed to print
        monkeypatch.setattr(cli_io, "march_fluid", None)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            self.run_cli("convergence", "--levels", levels)
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [
            f"graetzcat convergence: error: --levels {levels}: its largest march field "
            f"takes more than 2**{14 + 2 * int(levels)} bytes, "
            f"over the {cli_io.BYTE_BUDGET}-byte budget"
        ]

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize(
        "edits, nr, nz, steps",
        [
            ((("nr = 32", "nr = 20000"), ("nz = 64", "nz = 20000")), 20000, 20000, 3000),
            ((("t_end = 60", "t_end = 2000000"),), 32, 64, 10**8),
            ((("nr = 32", "nr = 10000000000000"),), 10**13, 64, 3000),
            ((("nz = 64", "nz = 10000000000000"),), 32, 10**13, 3000),
        ],
    )
    def test_run_beyond_the_byte_budget_exits_two(
        self, command, edits, nr, nz, steps, tmp_path, capsys
    ):
        # the shipped scenario with a 12.8 GB march field, a 0.22 TB
        # trajectory or a grid whose one profile would take 80 TB is
        # refused by the parser before anything of that size is made
        text = SCENARIO_CFG.read_text()
        line = text.splitlines().index("[grid]") + 1
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        args = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        tracemalloc.start()
        try:
            code = self.run_cli(command, "--config", str(cfg), *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 5e6, peak
        field = 8 * 4 * (nr + 1) * (nz + 1)
        trajectory = (steps + 1) * 8 * (1 + 4 * (nz + 3))  # per level as the tracer counts
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [
            f"config error: line {line}: BAD_NUMBER [grid]: a {nr}x{nz} run of {steps} "
            f"steps takes {field} bytes of march field and {trajectory} bytes of "
            f"trajectory, over the {cli_io.BYTE_BUDGET}-byte budget"
        ]
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_convergence_output_is_pinned(self, capsys):
        # levels 3 marches nr = 128 on the station path and nr = 32, 64 on
        # the block path; a march change that drifts the values fails here
        assert self.run_cli("convergence", "--levels", "3") == 0
        got = dict(ln.split("=") for ln in capsys.readouterr().out.splitlines())
        want = dict(ln.split("=") for ln in CONVERGENCE_LEVELS_3.splitlines())
        assert list(got) == list(want)
        for key, value in want.items():
            if key.startswith("ORDER_"):
                assert got[key] == value, key
            else:
                assert float(got[key]) == pytest.approx(float(value), rel=1e-12, abs=0.0), key

    def test_coupled_run_output_is_pinned(self, tmp_path):
        # march, flux, surface step, rates and checkers of the shipped
        # scenario: a change that drifts the coupled path fails here
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SCENARIO_CFG.read_text().replace("t_end = 60\n", "t_end = 0.2\n"))
        out = tmp_path / "out"
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 4
        footer = (out / "report.txt").read_text().split("---\n", 1)[1]
        got = dict(ln.split("=") for ln in footer.splitlines())
        want = dict(ln.split("=") for ln in SCENARIO_10_STEPS_FOOTER.splitlines())
        assert list(got) == list(want)
        for key, value in want.items():
            if key.startswith("OUTLET_") or key == "LAMBDA":
                assert float(got[key]) == pytest.approx(float(value), rel=1e-12, abs=0.0), key
            else:
                assert got[key] == value, key

    def test_check_output_is_pinned(self, capsys):
        # every token of the output, a number that differs to 12 digits
        assert self.run_cli("check", "--config", str(SCENARIO_CFG)) == 4
        got, want = (re.split(r"[\s=]", out) for out in (capsys.readouterr().out, CHECK_SCENARIO))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w or float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0), (g, w)

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_negative_seed_exit_two(self, command, tmp_path, capsys):
        args = ["--config", str(SCENARIO_CFG), "--seed", "-1"]
        if command == "simulate":
            args += ["--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, *args)
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [f"graetzcat {command}: error: --seed -1: must be >= 0"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_probe_every_below_one_exit_two(self, every, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(
                "simulate", "--config", str(SCENARIO_CFG), "--out", str(tmp_path / "o"),
                "--probe-every", every,
            )
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [f"graetzcat simulate: error: --probe-every {every}: must be >= 1"]

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("dt = 0.05", "dt = -1"))
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_bad_time_grid_exit_two(self, tmp_path, capsys):
        # non-finite values, a t_end that is no whole number of steps and
        # sizes too small to hold a profile, each reported at the [grid] line
        for old, new, message in (
            ("t_end = 0.5", "t_end = inf", "grid.dt = 0.05 and grid.t_end = inf must be finite"),
            ("t_end = 0.5", "t_end = nan", "grid.dt = 0.05 and grid.t_end = nan must be finite"),
            ("dt = 0.05", "dt = inf", "grid.dt = inf and grid.t_end = 0.5 must be finite"),
            ("dt = 0.05", "dt = nan", "grid.dt = nan and grid.t_end = 0.5 must be finite"),
            (
                "t_end = 0.5",
                "t_end = 0.525",
                "grid.t_end = 0.525 is not a whole number of steps dt = 0.05",
            ),
            ("nr = 8", "nr = -1", "grid.nr = -1 is too small (need nr >= 4)"),
            ("nz = 8", "nz = -1", "grid.nz = -1 is too small (need nz >= 4)"),
        ):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(MINIMAL.replace(old, new))
            code = self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
            errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
            assert code == 2, new
            assert errors == [f"config error: line 1: BAD_NUMBER [grid]: {message}"], new

    def test_rejected_grid_size_is_reported_once(self, tmp_path, capsys):
        # a rejected size is refused before any profile is sized by it
        for old, new in (("nr = 8", "nr = -100"), ("nz = 8", "nz = -100")):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(MINIMAL.replace(old, new))
            assert self.run_cli("check", "--config", str(cfg)) == 2
            errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
            key = new.partition(" ")[0]
            assert errors == [
                f"config error: line 1: BAD_NUMBER [grid]: grid.{key} = -100 is too small "
                f"(need {key} >= 4)"
            ]

    def test_overflowing_derived_box_exit_two(self, tmp_path, capsys):
        # no box.CO line: twice the sup of CO's data overflows to inf
        text = SCENARIO_CFG.read_text().replace("box.CO = 0, 0.05\n", "")
        text = text.replace("const:0.02", "const:1e308")
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        assert self.run_cli("check", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "[kinetics].box.CO:" in err, err

    def test_overflowing_rates_fail_check_without_warnings(self, tmp_path, capsys):
        # the derived box (1e308) is finite, but the CO rates overflow in it:
        # a non-finite rate fails H1 and a non-finite lambda fails the check
        text = SCENARIO_CFG.read_text().replace("box.CO = 0, 0.05\n", "")
        text = text.replace("const:0.02", "const:5e307")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli("check", "--config", str(cfg)) == 4
        out = capsys.readouterr().out.splitlines()
        assert "H1=FAIL" in out and "H3=FAIL" in out and "LAMBDA=nan" in out
        assert any(ln.startswith("H1_WORST species=0 magnitude=inf ") for ln in out), out
        # only H3's worst point is a pair
        worst = {ln[:2]: " y=(" in ln for ln in out if "_WORST" in ln}
        assert worst == {"H1": False, "H2": False, "H3": True}, out

    @pytest.mark.parametrize(
        "old, new",
        [
            ("relaxation = 1.0", "relaxation = 1.5"),
            ("tol = 1e-10", "tol = -1"),
            ("max_iter = 50", "max_iter = 0"),
            ("flux_form = gradient", "flux_form = sideways"),
        ],
    )
    def test_bad_coupler_value_exit_two(self, tmp_path, capsys, old, new):
        text = SCENARIO_CFG.read_text()
        lineno = text.splitlines().index(old) + 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        assert self.run_cli("check", "--config", str(cfg)) == 2
        key = new.partition(" ")[0]
        err = capsys.readouterr().err.splitlines()
        assert any(
            line.startswith(f"config error: line {lineno}: ") and f" [coupler].{key}: " in line
            for line in err
        ), err

    def test_simulate_prints_each_warning_once(self, tmp_path, capsys, caplog):
        # species a starts off its inlet value at the corner: one warning
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL.replace("wall_init = const:0.5", "wall_init = const:0.4", 1))
        self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        emitted = capsys.readouterr().err + "".join(r.getMessage() for r in caplog.records)
        assert emitted.count("corner compatibility mismatch") == 1

    def test_stability_guard_warns_once_on_stderr(self, tmp_path):
        # lambda = 1.25 * 100, so the guard 0.5 / lambda = 0.004 is below dt
        text = MINIMAL.replace("model = zero", "model = linear_consumption\nrate = 100")
        text = text[: text.index("[species.b]")].replace("t_end = 0.5", "t_end = 0.05")
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(text)
        src = str(Path(graetzcat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "graetzcat.cli_io", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 4, proc.stderr  # the unstable step drives the wall negative
        assert proc.stderr.splitlines() == [
            "WARNING graetzcat: dt = 0.05 exceeds the reaction stability guard "
            "0.5/lambda = 0.004; explicit reaction terms may destabilize the step"
        ]

    def test_missing_config_file_exit_two(self, tmp_path):
        assert (
            self.run_cli(
                "simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")
            )
            == 2
        )

    def test_config_directory_exit_two(self, capsys):
        assert self.run_cli("check", "--config", str(SCENARIO_CFG.parent)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot read "), err

    def test_undecodable_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(MINIMAL.encode() + b"# \xff\xfe\n")
        assert self.run_cli("check", "--config", str(cfg)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot read {cfg}: "), err

    def test_undecodable_profile_file_exit_two(self, tmp_path, capsys):
        (tmp_path / "inlet.txt").write_bytes(b"0.5\n\xff\n" * 4 + b"0.5\n")
        text = MINIMAL.replace("inlet = const:0.5", "inlet = file:inlet.txt", 1)
        lineno = text.splitlines().index("inlet = file:inlet.txt") + 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert self.run_cli("check", "--config", str(cfg)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"config error: line {lineno}: BAD_NUMBER [species.a].inlet: "), err

    def test_out_is_an_existing_file_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        with pytest.raises(SystemExit) as exc:
            self.run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert errors == [
            f"graetzcat simulate: error: --out {out}: "
            "cannot create the output directory (File exists)"
        ]
        assert out.read_text() == "not a directory\n"

    def test_non_converged_exit_three(self, tmp_path):
        text = SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 0.1")
        text = text.replace("max_iter = 50", "max_iter = 2")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_qualcheck_failure_exit_four(self, tmp_path):
        # a produced species started at zero violates its exponential
        # envelope as soon as production begins
        text = SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 0.2")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 4

    def test_check_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL)
        assert self.run_cli("check", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "SATISFIED=true" in out
        assert "H1=PASS" in out

    def test_check_flags_surrogate_monotonicity(self, capsys):
        assert self.run_cli("check", "--config", str(SCENARIO_CFG)) == 4
        out = capsys.readouterr().out
        assert "H3=FAIL" in out

    def test_check_and_convergence_never_import_scipy_stats(self):
        # scipy.stats alone costs most of the start-up time; the Sobol
        # sampler reads its direction numbers without importing it
        src = str(Path(graetzcat.__file__).resolve().parents[1])
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            sys.path.insert(0, {src!r})
            from graetzcat.cli_io import main
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = (main(["check", "--config", {str(SCENARIO_CFG)!r}]),
                         main(["convergence", "--levels", "3"]))
            print(codes, "scipy.stats" in sys.modules)
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stdout.split() == ["(4,", "0)", "False"], proc.stdout + proc.stderr

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINIMAL)
        # the child imports the same graetzcat as this process
        src = str(Path(graetzcat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "graetzcat.cli_io", "check", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "MU=" in proc.stdout


SHORT_SCENARIO = SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 0.04")
KEY_LINES = [
    i for i, line in enumerate(SHORT_SCENARIO.splitlines()) if re.match(r"[\w.]+\s*=", line)
]
NON_FINITE = ("nan", "inf", "-inf", "0, nan", "const:nan")
TOKENS = NON_FINITE + (
    "-1", "0", "1e300", "10000000000000", "", "x", "0,1", "file:missing.txt"
)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(KEY_LINES), st.sampled_from(TOKENS))
def test_check_ends_in_an_exit_code_for_any_value(index, token):
    lines = SHORT_SCENARIO.splitlines()
    lines[index] = lines[index].partition("=")[0] + "= " + token
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", "--config", str(cfg)])
    assert code in (0, 2, 4)
    if token in NON_FINITE:
        assert code == 2


POSITIVE = st.floats(0.1, 10.0)
LEVEL = st.floats(0.0, 10.0)


@st.composite
def valid_configs(draw):
    """A small valid simulate config: 1-3 species, zero or linear kinetics,
    a 4-8 x 4-8 grid and 1-3 steps."""
    dt = draw(st.sampled_from([0.01, 0.05, 0.1, 0.5]))
    lines = [
        "[grid]",
        f"nr = {draw(st.integers(4, 8))}",
        f"nz = {draw(st.integers(4, 8))}",
        f"dt = {dt}",
        f"t_end = {draw(st.integers(1, 3)) * dt!r}",
        "[coupler]",
        f"flux_form = {draw(st.sampled_from(['gradient', 'integral']))}",
        f"relaxation = {draw(st.floats(0.1, 1.0))!r}",
        "[kinetics]",
    ]
    if draw(st.booleans()):
        lines += ["model = zero"]
    else:
        lines += ["model = linear_consumption", f"rate = {draw(st.floats(0.0, 10.0))!r}"]
    for i in range(draw(st.integers(1, 3))):
        lines += [
            f"[species.s{i}]",
            f"beta_f = {draw(POSITIVE)!r}",
            f"gamma_s = {draw(POSITIVE)!r}",
            f"theta_s = {draw(st.one_of(st.just(0.0), POSITIVE))!r}",
            f"delta = {draw(st.sampled_from([-1, 1]))}",
            f"inlet = const:{draw(LEVEL)!r}",
            f"wall_init = const:{draw(LEVEL)!r}",
        ]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, database=None)
@given(valid_configs())
def test_simulate_ends_in_a_run_exit_code_on_any_valid_config(text):
    # a valid config never ends in a config error or a traceback; stderr
    # holds the validation warnings and, for exit 3, the coupler's error
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 3, 4), err.getvalue()
    lines = err.getvalue().splitlines()
    assert all(line.startswith("warning: ") for line in lines[: len(lines) - (code == 3)]), lines
    assert code != 3 or lines[-1].startswith("error: "), lines
