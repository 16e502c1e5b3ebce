"""The benchmark's workloads and the inputs each one generates from its seed.

co_oxidation   ``simulate`` on the shipped demos/co_oxidation.cfg cut to its
               first 100 steps (t_end = 2); the seed goes to ``--seed``.  The
               scenario users run, in its transient phase: march bound, ~9
               Picard iterations per step, a snapshot per step.  The whole
               scenario (3000 steps, 47 s in one solve) cannot be timed
               steadily here: one solve per run is one sample of a host
               whose speed drifts over minutes; 100 steps take ~3 s, so a
               run holds several solves and reports their median.
split_beta     ``simulate`` on a copy of the shipped config with four distinct
               beta_f, distinct theta_s (mu = 1.118 < 2/sqrt(e)), a 64x128
               grid, dt = 0.02, t_end = 0.2 and a seeded smooth perturbation
               of wall_init.  Same coupler, but four factorizations and
               unbatched solves per march, ~8 iterations on every step and
               4x the cells per snapshot: a gain that only holds for a shared
               beta or for settled steps shows here.  Ten steps keep one solve
               near two seconds, so a run holds several and reports their
               median; on a noisy host one long solve per run does not.
graetz_refine  ``convergence --levels 6``: 18 marches on grids up to
               1024x8192, the largest field 67 MB.  The march alone, with
               per-cell work dominant; it bypasses coupler, kinetics,
               wall_evolve and qualcheck, so a coupler change should leave
               it unchanged.

Smoke mode shrinks each workload to a few seconds for the self-test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

NAMES = ("co_oxidation", "split_beta", "graetz_refine")
SHIPPED = Path("demos") / "co_oxidation.cfg"

SPLIT_BETA = {"CO": 0.8, "O2": 1.0, "CO2": 1.25, "T": 2.0}
SPLIT_THETA = {"CO": 1.0, "O2": 1.2, "CO2": 1.0, "T": 1.5}
# Largest share of the shipped wall_init value the perturbation adds.  CO2
# keeps its zero wall_init: the produced species starting absent is the
# by-design exponential-envelope failure, so the exit code stays 4 at every
# seed.
SPLIT_PERTURB = {"CO": 0.1, "O2": 0.1, "T": 0.02}
PERTURB_MODES = 3

CO_OXIDATION_T_END = "2"  # the first 100 of the shipped 3000 steps
REFINE_LEVELS = 6
REFINE_NR0, REFINE_NZ0 = 32, 64  # convergence_study's base grid


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]              # for graetzcat.cli_io.main; "{out}" is the output dir
    setup_argv: Optional[list[str]]  # first unit of work; None means import only
    sizes: dict

    @property
    def simulate(self) -> bool:
        return self.argv[0] == "simulate"


def _scan(text: str):
    """(section, key, value, line) per line; key and value are None off entries."""
    section = None
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1].strip()
        elif "=" in s and not s.startswith("#"):
            key, _, value = s.partition("=")
            yield section, key.strip(), value.strip(), line
            continue
        yield section, None, None, line


def entries(text: str) -> dict[tuple[str, str], str]:
    """Config values addressed by (section, key)."""
    return {(sec, key): value for sec, key, value, _ in _scan(text) if key is not None}


def edit_config(text: str, edits: dict[tuple[str, str], str]) -> str:
    """Replace ``key = value`` lines, addressed by (section, key)."""
    edits = dict(edits)
    out = [f"{key} = {edits.pop((sec, key))}" if (sec, key) in edits else line
           for sec, key, _, line in _scan(text)]
    if edits:
        raise ValueError(f"config has no entries {sorted(edits)}")
    return "\n".join(out) + "\n"


def perturbed_wall(base: float, share: float, nz: int, rng: random.Random) -> list[float]:
    """base + base * sum_m a_m (1 - cos(m pi z)) / 2 with a_m in [0, share/M].

    Nonnegative and smooth, zero with zero slope at z = 0 (so the inlet
    corner stays as compatible as in the shipped config) and zero slope at
    z = 1, matching the surface's zero-flux ends.
    """
    amps = [rng.uniform(0.0, share / PERTURB_MODES) for _ in range(PERTURB_MODES)]
    return [
        base + base * sum(
            a * (1.0 - math.cos((m + 1) * math.pi * k / nz)) / 2.0 for m, a in enumerate(amps)
        )
        for k in range(nz + 1)
    ]


def _simulate_sizes(grid: dict, ns: int) -> dict:
    nr, nz = int(grid["nr"]), int(grid["nz"])
    return {
        "species": ns,
        "nr": nr,
        "nz": nz,
        "dt": grid["dt"],
        "steps": int(round(grid["t_end"] / grid["dt"])),
        "field_bytes": 8 * ns * (nr + 1) * (nz + 1),
        "wall_bytes": 8 * ns * (nz + 1),
    }


def _simulate(name: str, text: str, inputs: Path, seed: int) -> Workload:
    """A simulate workload on config ``text``, written to ``inputs``, plus its
    one-step set-up twin."""
    grid = {k: float(v) for (sec, k), v in entries(text).items() if sec == "grid"}
    full = inputs / f"{name}.cfg"
    full.write_text(text)
    one_step = inputs / f"{name}_setup.cfg"
    one_step.write_text(edit_config(text, {("grid", "t_end"): repr(grid["dt"])}))

    def argv(cfg: Path) -> list[str]:
        return ["simulate", "--config", str(cfg), "--out", "{out}", "--seed", str(seed)]

    return Workload(name, argv(full), argv(one_step), _simulate_sizes(grid, 4))


def make(name: str, seed: int, root: Path, inputs: Path, smoke: bool) -> Workload:
    """Build workload ``name`` for ``seed``, writing its input files to ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    shipped = (root / SHIPPED).read_text()

    if name == "co_oxidation":
        t_end = "0.2" if smoke else CO_OXIDATION_T_END
        return _simulate(name, edit_config(shipped, {("grid", "t_end"): t_end}), inputs, seed)

    if name == "split_beta":
        nr, nz, t_end = (16, 32, 0.1) if smoke else (64, 128, 0.2)
        edits = {("grid", "nr"): str(nr), ("grid", "nz"): str(nz),
                 ("grid", "dt"): "0.02", ("grid", "t_end"): repr(t_end)}
        rng = random.Random(seed)
        shipped_entries = entries(shipped)
        for sp in SPLIT_BETA:
            edits[(f"species.{sp}", "beta_f")] = repr(SPLIT_BETA[sp])
            edits[(f"species.{sp}", "theta_s")] = repr(SPLIT_THETA[sp])
            if sp in SPLIT_PERTURB:
                base = float(shipped_entries[(f"species.{sp}", "wall_init")].removeprefix("const:"))
                wall = perturbed_wall(base, SPLIT_PERTURB[sp], nz, rng)
                (inputs / f"wall_{sp}.txt").write_text("".join(f"{v!r}\n" for v in wall))
                edits[(f"species.{sp}", "wall_init")] = f"file:wall_{sp}.txt"
        return _simulate(name, edit_config(shipped, edits), inputs, seed)

    if name == "graetz_refine":
        levels = 3 if smoke else REFINE_LEVELS
        nz_fine = REFINE_NZ0 * 2 ** (levels + 1)
        grids = [(REFINE_NR0 * 2**i, nz_fine) for i in range(levels)]
        grids += 2 * [(REFINE_NR0 * 2**i, REFINE_NZ0 * 2**i) for i in range(levels)]
        sizes = {
            "levels": levels,
            "marches": len(grids),
            "grids": grids,
            "field_bytes_max": max(8 * (nr + 1) * (nz + 1) for nr, nz in grids),
        }
        return Workload(name, ["convergence", "--levels", str(levels)], None, sizes)

    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
