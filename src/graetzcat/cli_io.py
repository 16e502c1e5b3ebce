"""Config ingestion, CSV/report emission and the command-line driver.

The config format is line-oriented sections of key = value pairs, designed
to be hand-editable and diff-friendly:

    [grid]
    nr = 32
    nz = 64
    dt = 0.02
    t_end = 90

    [species.CO]
    beta_f = 1.0
    gamma_s = 1.0
    theta_s = 1.0
    delta = -1
    inlet = const:0.02
    wall_init = const:0.02

Profile values are either ``const:<number>`` or ``file:<path>`` where the
file holds one decimal per line, one line per grid node.  Unknown keys are
errors (typo protection); defaults exist only for the [coupler] section.

Exit codes of the CLI: 0 all checks passed, 2 config error, 3 coupling did
not converge, 4 a quality check failed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .coupler import CouplerSettings, NonConvergedError, RunReport, run_simulation
from .fluid_march import (
    MarchOperator,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from .kinetics import (
    LAWS,
    HypothesisReport,
    KineticsModel,
    box_error,
    constant_error,
    default_box,
    estimate_lipschitz,
    law_error,
    verify_hypotheses,
)
from .model import (
    BYTE_BUDGET,
    ContractionDiagnostics,
    FluidField,
    Grid,
    InitialData,
    ModelConfig,
    SpeciesParams,
    contraction_margin,
    grid_errors,
    march_field_bytes,
    validate_config,
)

GRID_KEYS = ("nr", "nz", "dt", "t_end")
COUPLER_KEYS = ("tol", "max_iter", "flux_form", "relaxation")
SPECIES_KEYS = ("beta_f", "gamma_s", "theta_s", "delta", "inlet", "wall_init")

_Entries = dict[str, tuple[str, int]]  # key -> (raw value, line number)


@dataclass(frozen=True)
class ConfigIssue:
    code: str  # MISSING_KEY | UNKNOWN_KEY | BAD_NUMBER | FILE_NOT_FOUND | LENGTH_MISMATCH
    section: str
    key: str
    line: int
    message: str

    def __str__(self) -> str:
        where = f"[{self.section}]" + (f".{self.key}" if self.key else "")
        return f"line {self.line}: {self.code} {where}: {self.message}"


class ConfigError(Exception):
    def __init__(self, issues: Sequence[ConfigIssue]):
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


def _schema(
    section: str, model: str, species_names: Sequence[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(known keys, required keys) of one section; only [coupler] has defaults."""
    if section == "grid":
        return GRID_KEYS, GRID_KEYS
    if section == "coupler":
        return COUPLER_KEYS, ()
    if section == "kinetics":
        required = ("model",) + LAWS.get(model, (None, ()))[1]
        return required + tuple(f"box.{n}" for n in species_names), required
    return SPECIES_KEYS, SPECIES_KEYS


def _number(section: str, entries: _Entries, key: str, issues: list[ConfigIssue], kind=float):
    value, line = entries[key]
    try:
        return kind(value)
    except ValueError:
        issues.append(
            ConfigIssue("BAD_NUMBER", section, key, line, f"cannot parse {value!r}")
        )
        return None


def _profile(
    section: str,
    entries: _Entries,
    key: str,
    n_nodes: int,
    base_dir: Path,
    issues: list[ConfigIssue],
) -> Optional[np.ndarray]:
    spec, line = entries[key]

    def issue(code: str, message: str) -> None:
        issues.append(ConfigIssue(code, section, key, line, message))

    if spec.startswith("const:"):
        try:
            value = float(spec[len("const:"):])
        except ValueError:
            issue("BAD_NUMBER", f"bad constant {spec!r}")
            return None
        return np.full(n_nodes, value)
    if spec.startswith("file:"):
        path = base_dir / spec[len("file:"):]
        if not path.is_file():
            issue("FILE_NOT_FOUND", str(path))
            return None
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            issue("BAD_NUMBER", f"cannot read {path}: {exc}")
            return None
        values = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            try:
                values.append(float(ln))
            except ValueError:
                issue("BAD_NUMBER", f"bad value {ln!r} in {path}")
                return None
        if len(values) != n_nodes:
            issue(
                "LENGTH_MISMATCH", f"{path} has {len(values)} values, grid needs {n_nodes}"
            )
            return None
        return np.array(values)
    issue("BAD_NUMBER", f"expected const:<x> or file:<path>, got {spec!r}")
    return None


def _build_kinetics(
    entries: _Entries,
    species_names: Sequence[str],
    initial: InitialData,
    issues: list[ConfigIssue],
) -> Optional[KineticsModel]:
    model, model_line = entries["model"]
    build, constant_keys = LAWS[model]

    # evaluation box: explicit per-species entries win over the derived one
    hi = default_box(initial)
    for i, name in enumerate(species_names):
        key = f"box.{name}"
        if key not in entries:
            if box_error(hi[i]):
                message = f"derived upper bound (twice the sup of {name}'s data) overflows"
                issues.append(ConfigIssue("BAD_NUMBER", "kinetics", key, model_line, message))
            continue
        value, line = entries[key]
        try:
            lo_v, hi_v = (float(part) for part in value.split(","))
        except ValueError:
            message = f"expected lo,hi got {value!r}"
        else:
            message = "box lower bound must be 0" if lo_v != 0.0 else box_error(hi_v)
            if message is None:
                hi[i] = hi_v
                continue
        issues.append(ConfigIssue("BAD_NUMBER", "kinetics", key, line, message))

    if message := law_error(model, len(species_names)):
        issues.append(ConfigIssue("UNKNOWN_KEY", "kinetics", "model", model_line, message))
        return None
    constants = []
    for key in constant_keys:
        value = _number("kinetics", entries, key, issues)
        if value is not None and (message := constant_error(value)):
            issues.append(ConfigIssue("BAD_NUMBER", "kinetics", key, entries[key][1], message))
        constants.append(value)
    return None if issues else build(*constants, box_hi=hi)


def parse_config(text: str, base_dir: Path | str = ".") -> tuple[ModelConfig, CouplerSettings]:
    """Config text -> (ModelConfig, CouplerSettings), or ConfigError with every issue.

    The layout (sections, unknown, duplicate and missing keys) is checked
    first, then the values: the grid (its numbers, then ``grid_errors``,
    reported at the [grid] header), then the coupler and species, then the
    kinetics, each stage reporting all of its issues at once.
    """
    issues: list[ConfigIssue] = []
    sections: dict[str, _Entries] = {}
    opened: dict[str, int] = {}  # section -> line of its header
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("grid", "coupler", "kinetics") and not (
                name.startswith("species.") and len(name) > len("species.")
            ):
                issues.append(
                    ConfigIssue("UNKNOWN_KEY", name, "", lineno, "unknown section")
                )
                current = None
            elif name in sections:
                issues.append(
                    ConfigIssue("UNKNOWN_KEY", name, "", lineno, "duplicate section")
                )
                current = name
            else:
                sections[name], opened[name] = {}, lineno
                current = name
            continue
        if "=" not in line:
            issues.append(
                ConfigIssue("UNKNOWN_KEY", current or "", line, lineno, "expected key = value")
            )
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            issues.append(
                ConfigIssue("UNKNOWN_KEY", "", key, lineno, "key outside any section")
            )
        elif key in sections[current]:
            issues.append(ConfigIssue("UNKNOWN_KEY", current, key, lineno, "duplicate key"))
        else:
            sections[current][key] = (value, lineno)

    species = [name for name in sections if name.startswith("species.")]
    species_names = [name.split(".", 1)[1] for name in species]
    for required in ("grid", "kinetics"):
        if required not in sections:
            issues.append(
                ConfigIssue("MISSING_KEY", required, "", 0, "section is required")
            )
    if not species:
        issues.append(
            ConfigIssue("MISSING_KEY", "species.<name>", "", 0, "no species declared")
        )
    model, model_line = sections.get("kinetics", {}).get("model", ("", 0))
    if model_line and model not in LAWS:  # a missing model is a missing key below
        issues.append(
            ConfigIssue(
                "UNKNOWN_KEY",
                "kinetics",
                "model",
                model_line,
                f"unknown model {model!r}; known: {', '.join(LAWS)}",
            )
        )
    for name, entries in sections.items():
        known, required = _schema(name, model, species_names)
        for key, (_, lineno) in entries.items():
            if key not in known:
                issues.append(ConfigIssue("UNKNOWN_KEY", name, key, lineno, "unknown key"))
        for key in required:
            if key not in entries:
                issues.append(
                    ConfigIssue("MISSING_KEY", name, key, opened[name], "key is required")
                )
    if issues:
        raise ConfigError(issues)

    nr, nz = (_number("grid", sections["grid"], k, issues, int) for k in ("nr", "nz"))
    dt, t_end = (_number("grid", sections["grid"], k, issues) for k in ("dt", "t_end"))
    if issues:
        raise ConfigError(issues)
    grid = Grid(nr=nr, nz=nz, dt=dt, t_end=t_end)
    # the grid's rules hold before any profile is sized by the grid
    if errors := grid_errors(grid, len(species)):
        raise ConfigError(
            [ConfigIssue("BAD_NUMBER", "grid", "", opened["grid"], e) for e in errors]
        )

    coupler, defaults = sections.get("coupler", {}), CouplerSettings()
    settings = {}
    for key in COUPLER_KEYS:
        if key not in coupler:
            continue
        kind = type(getattr(defaults, key))
        value = _number("coupler", coupler, key, issues, kind)
        if value is None:
            continue
        # each check of CouplerSettings reads one field, so this names the key
        try:
            CouplerSettings(**{key: value})
        except ValueError as exc:
            code = "UNKNOWN_KEY" if kind is str else "BAD_NUMBER"
            issues.append(ConfigIssue(code, "coupler", key, coupler[key][1], str(exc)))
        else:
            settings[key] = value

    params: list[SpeciesParams] = []
    inlets: list[np.ndarray] = []
    walls: list[np.ndarray] = []
    for name, species_name in zip(species, species_names):
        entries = sections[name]
        numbers = {
            k: _number(name, entries, k, issues, int if k == "delta" else float)
            for k in SPECIES_KEYS[:4]
        }
        inlet = _profile(name, entries, "inlet", grid.nr + 1, Path(base_dir), issues)
        wall = _profile(name, entries, "wall_init", grid.nz + 1, Path(base_dir), issues)
        if None in numbers.values() or inlet is None or wall is None:
            continue
        params.append(SpeciesParams(name=species_name, **numbers))
        inlets.append(inlet)
        walls.append(wall)
    if issues:
        raise ConfigError(issues)

    initial = InitialData(inlet=np.stack(inlets), wall_init=np.stack(walls))
    kinetics = _build_kinetics(sections["kinetics"], species_names, initial, issues)
    if issues:
        raise ConfigError(issues)
    cfg = ModelConfig(species=tuple(params), grid=grid, initial=initial, kinetics=kinetics)
    return cfg, CouplerSettings(**settings)


# ---------------------------------------------------------------------------
# emission


def write_snapshot_csv(field: FluidField, species_names: Sequence[str], path: Path | str) -> None:
    """Gnuplot-friendly dump: header r,z,<species...>, rows in z-major order.

    The nodes r_j = j/nr and z_k = k/nz come from the field's shape.  Every
    value is written as ``%.9g``.  The r column is formatted once, into the
    pieces of a station's template, and each z once per station, joined
    between those pieces; one ``%`` call then formats the species values of
    the whole station.  Stations are written in turn, so the file is never
    held in memory as a whole.
    """
    ns = len(species_names)
    cells = ",%.9g" * ns + "\n"
    # station template = z.join(pieces): "r_0," z cells "r_1," z .. cells
    v = field.values
    r = ["%.9g," % x for x in np.linspace(0.0, 1.0, v.shape[1]).tolist()]
    pieces = [r[0]] + [cells + x for x in r[1:]] + [cells]
    with Path(path).open("w") as f:
        f.write("r,z," + ",".join(species_names) + "\n")
        for k, z in enumerate(np.linspace(0.0, 1.0, v.shape[2]).tolist()):
            f.write(("%.9g" % z).join(pieces) % tuple(v[:ns, :, k].T.ravel().tolist()))


def write_probe_csv(
    times: Sequence[float],
    values: Sequence[Sequence[float]],
    species_names: Sequence[str],
    path: Path | str,
) -> None:
    """Outlet series: header t,<species...>, one row per sampled time, values as ``%.9g``."""
    ns = len(species_names)
    row = "%.9g," * ns + "%.9g\n"
    lines = ["t," + ",".join(species_names) + "\n"]
    for n, t in enumerate(times):
        lines.append(row % (t, *(values[i][n] for i in range(ns))))
    Path(path).write_text("".join(lines))


def _a_priori_lines(diag: ContractionDiagnostics, hypo: HypothesisReport, lam: float) -> list[str]:
    """The KEY=VALUE verdicts known before a run: the contraction diagnostics,
    the sampled lambda and the rate-law hypotheses; the report footer opens
    with them and ``check`` prints them."""
    return [
        f"MU={diag.mu!r}",
        f"THRESHOLD={diag.threshold:.9f}",
        f"SATISFIED={str(diag.satisfied).lower()}",
        f"MARGIN={diag.margin!r}",
        f"LAMBDA={lam!r}",
        f"H1={'PASS' if hypo.h1_pass else 'FAIL'}",
        f"H2={'PASS' if hypo.h2_pass else 'FAIL'}",
        f"H3={'PASS' if hypo.h3_pass else 'FAIL'}",
    ]


def write_report(report: RunReport, path: Path | str) -> None:
    """Human-readable summary with a machine-parsable KEY=VALUE footer."""
    path = Path(path)
    d = report.diagnostics
    h = report.hypothesis_report
    n = report.nonneg
    lines = [
        "simulation report",
        "=================",
        "",
        f"species: {', '.join(report.species)}",
        f"steps taken: {len(report.iterations)}",
        f"fixed-point iterations: max {max(report.iterations) if report.iterations else 0}, "
        f"total {sum(report.iterations)}",
        "",
        "contraction diagnostics",
        f"  mu = {d.mu!r}  (threshold 2/sqrt(e) = {d.threshold:.9f})",
        f"  margin mu*sqrt(e)/2 = {d.margin!r}",
        f"  optimal proof weight alpha = {d.alpha_opt!r}",
        f"  satisfied: {str(d.satisfied).lower()}",
        "",
        "rate-law hypotheses (sampled)",
        f"  H1 nonnegativity: {'PASS' if h.h1_pass else 'FAIL'}",
        f"  H2 absent-reactant cutoff: {'PASS' if h.h2_pass else 'FAIL'}",
        f"  H3 weighted monotonicity: {'PASS' if h.h3_pass else 'FAIL'}",
        f"  samples used: {h.samples_used}",
        f"  lipschitz constants: {', '.join(repr(v) for v in report.lipschitz)}",
        f"  lambda = {report.lam!r}",
        "",
        "quality checks",
        f"  nonnegativity: {'PASS' if n.passed else 'FAIL'} ({n.violation_count} violations)"
        + ("" if n.passed else
           f" (worst {report.species[n.species]} {n.worst!r} at t = {n.t_worst!r})"),
    ]
    for c in report.envelope_checks:
        lines.append(
            f"  envelope {c.species} {c.item}: {'PASS' if c.passed else 'FAIL'}"
            + ("" if c.passed else f" (worst {c.worst!r} at t = {c.t_worst!r})")
        )
    lines += [
        "  energy envelope slopes: "
        + ", ".join(repr(a) for a in report.energy_slopes),
        "",
        f"evolution settled (REACTION_ENDED): {report.reaction_ended!r}",
        "",
        "outlet probe (z = 1), final values",
    ]
    for i, name in enumerate(report.species):
        lines.append(f"  {name}: {report.probe_values[i][-1]!r}")
    lines += ["", "---"]

    footer = _a_priori_lines(d, h, report.lam)
    footer.append(f"NONNEG={'PASS' if n.passed else 'FAIL'}")
    for c in report.envelope_checks:
        footer.append(f"ENVELOPE_{c.species}_{c.item.upper()}={'PASS' if c.passed else 'FAIL'}")
    footer.append(f"REACTION_ENDED={report.reaction_ended!r}")
    footer.append(f"MAX_ITERATIONS={max(report.iterations) if report.iterations else 0}")
    for i, name in enumerate(report.species):
        footer.append(f"OUTLET_{name}={report.probe_values[i][-1]!r}")

    path.write_text("\n".join(lines + footer) + "\n")


# ---------------------------------------------------------------------------
# refinement study


def _graetz_setup(nr: int, nz: int) -> tuple[InitialData, MarchOperator]:
    grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
    params = (SpeciesParams(name="c", beta_f=1.0, gamma_s=1.0, theta_s=1.0, delta=-1),)
    init = InitialData(
        inlet=np.ones((1, nr + 1)), wall_init=np.zeros((1, nz + 1))
    )
    return init, march_operator(params, grid)


def graetz_centerline(nr: int, nz: int) -> float:
    """Outlet centerline value of the unit-inlet, cold-wall marching test."""
    init, op = _graetz_setup(nr, nz)
    field = march_fluid(init.wall_init, init, op)
    return float(field.values[0, 0, -1])


FLUX_WINDOW_Z = 0.25


def flux_identity_gap(nr: int, nz: int, z_min: float = 0.0) -> float:
    """Discrete L2(z) distance between the two flux extractions.

    The norm runs over the interior nodes with z >= z_min.  The end nodes
    sit on the closure of the open surface segment, and the inlet data kink
    at z = 0 makes the true wall gradient singular there: restricting to a
    fixed window away from that corner measures the schemes rather than the
    data.
    """
    init, op = _graetz_setup(nr, nz)
    field = march_fluid(init.wall_init, init, op)
    g = wall_flux_gradient(field)[0]
    q = wall_flux_integral(field, op)[0]
    k0 = max(1, int(math.ceil(z_min * nz)))
    diff = (g - q)[k0:-1]
    return float(np.sqrt((1.0 / nz) * np.sum(diff * diff)))


NR0, NZ0 = 32, 64  # the coarsest grid of the refinement study


def _check_levels(levels: int) -> None:
    """ValueError for too few levels for an order, or for a study whose
    largest field (finest nr, finest nz) would take more than BYTE_BUDGET:
    K = 7 takes 269 MB, K = 8 1.07 GB."""
    if levels < 3:
        raise ValueError("need at least 3 levels for an observed order")
    # that field takes over 2**(14 + 2 K) bytes: past K = the budget's bit
    # length it is refused before any power of 2 is formed
    if levels > BYTE_BUDGET.bit_length():
        raise ValueError(
            f"its largest march field takes more than 2**{14 + 2 * levels} bytes, "
            f"over the {BYTE_BUDGET}-byte budget"
        )
    need = march_field_bytes(1, NR0 * 2 ** (levels - 1), NZ0 * 2 ** (levels + 1))
    if need > BYTE_BUDGET:
        raise ValueError(
            f"its largest march field takes {need} bytes, over the {BYTE_BUDGET}-byte budget"
        )


def convergence_study(levels: int) -> dict:
    """Richardson orders for the marching scheme across doubling grids."""
    _check_levels(levels)
    nz_fine = NZ0 * 2 ** (levels + 1)
    centerline = [graetz_centerline(NR0 * 2**i, nz_fine) for i in range(levels)]
    diffs = [abs(a - b) for a, b in zip(centerline, centerline[1:])]
    orders_r = [math.log2(a / b) for a, b in zip(diffs, diffs[1:]) if b > 0]

    grids = [(NR0 * 2**i, NZ0 * 2**i) for i in range(levels)]
    gaps = [flux_identity_gap(nr, nz) for nr, nz in grids]
    orders_flux = [math.log2(a / b) for a, b in zip(gaps, gaps[1:]) if b > 0]
    win = [flux_identity_gap(nr, nz, FLUX_WINDOW_Z) for nr, nz in grids]
    orders_win = [math.log2(a / b) for a, b in zip(win, win[1:]) if b > 0]

    return {
        "centerline": centerline,
        "richardson_orders": orders_r,
        "flux_gaps": gaps,
        "flux_orders": orders_flux,
        "flux_gaps_windowed": win,
        "flux_orders_windowed": orders_win,
    }


# ---------------------------------------------------------------------------
# CLI


def _load(config_path: str) -> tuple[ModelConfig, CouplerSettings]:
    text = Path(config_path).read_text()
    return parse_config(text, base_dir=Path(config_path).parent)


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    ap = argparse.ArgumentParser(prog="graetzcat")
    sub = ap.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and emit outputs")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--probe-every", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)

    p_chk = sub.add_parser("check", help="validate a config and its rate law")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--seed", type=int, default=0)

    p_cnv = sub.add_parser("convergence", help="grid refinement study")
    p_cnv.add_argument("--levels", type=int, default=3)

    args = ap.parse_args(argv)

    if args.command == "convergence":
        try:
            _check_levels(args.levels)
        except ValueError as exc:
            p_cnv.error(f"--levels {args.levels}: {exc}")
        study = convergence_study(args.levels)
        for i, v in enumerate(study["centerline"]):
            print(f"LEVEL_{i}_CENTERLINE={v!r}")
        for i, v in enumerate(study["richardson_orders"]):
            print(f"ORDER_CENTERLINE_{i}={v:.3f}")
        for i, v in enumerate(study["flux_gaps"]):
            print(f"LEVEL_{i}_FLUX_GAP={v!r}")
        for i, v in enumerate(study["flux_orders"]):
            print(f"ORDER_FLUX_IDENTITY_{i}={v:.3f}")
        for i, v in enumerate(study["flux_gaps_windowed"]):
            print(f"LEVEL_{i}_FLUX_GAP_WINDOWED={v!r}")
        for i, v in enumerate(study["flux_orders_windowed"]):
            print(f"ORDER_FLUX_IDENTITY_WINDOWED_{i}={v:.3f}")
        return 0

    if args.seed < 0:
        (p_sim if args.command == "simulate" else p_chk).error(
            f"--seed {args.seed}: must be >= 0"
        )
    if args.command == "simulate" and args.probe_every < 1:
        p_sim.error(f"--probe-every {args.probe_every}: must be >= 1")
    try:
        cfg, settings = _load(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 2

    report = validate_config(cfg)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        for e in report.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.command == "check":
        hypo = verify_hypotheses(cfg.kinetics, cfg.species, seed=args.seed)
        _, lam = estimate_lipschitz(cfg.kinetics, seed=args.seed)
        for line in _a_priori_lines(contraction_margin(cfg.species), hypo, lam):
            print(line)
        for worst, tag in (
            (hypo.worst_h1, "H1"),
            (hypo.worst_h2, "H2"),
            (hypo.worst_h3, "H3"),
        ):
            if worst is not None:
                pair = "" if worst.y is None else f" y={tuple(round(v, 6) for v in worst.y)}"
                print(
                    f"{tag}_WORST species={worst.species} magnitude={worst.magnitude!r} "
                    f"x={tuple(round(v, 6) for v in worst.x)}{pair}"
                )
        return 0 if hypo.all_pass and math.isfinite(lam) else 4

    # simulate
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        p_sim.error(f"--out {args.out}: cannot create the output directory ({exc.strerror})")
    try:
        run_report, trajectory = run_simulation(
            cfg, settings, seed=args.seed, probe_every=args.probe_every
        )
    except NonConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    final_op = march_operator(cfg.species, cfg.grid)
    final_fluid = march_fluid(trajectory[-1].wall, cfg.initial, final_op)
    write_snapshot_csv(final_fluid, cfg.species_names, out_dir / "snapshot_final.csv")
    write_probe_csv(
        run_report.probe_times, run_report.probe_values, cfg.species_names, out_dir / "probe.csv"
    )
    write_report(run_report, out_dir / "report.txt")

    return 0 if run_report.checks_pass else 4


if __name__ == "__main__":
    sys.exit(main())
