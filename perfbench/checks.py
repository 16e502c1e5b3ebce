"""Correctness checks on every run the benchmark makes.

A run fails if it raised, if its exit code differs from the reference, if
its verdict keys differ from the reference, or if its values fall outside
tolerance of the reference.  References (references.json) hold the values
at the reference seed; at other seeds only the keys the reference lists as
seed-independent are compared, plus invariants that hold at every seed:
NONNEG=PASS, every consumed species' UPPER_BOUND=PASS and finite outlets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6
ORDER_TOL = 2e-3  # observed orders are printed with three decimals

SIMULATE_FILES = ("report.txt", "probe.csv", "snapshot_final.csv")
CONVERGENCE_FILES = ("stdout.txt",)
REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def key_values(text: str) -> dict[str, str]:
    """KEY=VALUE lines; for a report, only its footer after the last '---'."""
    lines = text.splitlines()
    if "---" in lines:
        lines = lines[len(lines) - lines[::-1].index("---"):]
    return dict(ln.split("=", 1) for ln in lines if "=" in ln)


def output_files(workload) -> tuple[str, ...]:
    return SIMULATE_FILES if workload.simulate else CONVERGENCE_FILES


def verdicts(workload, out: Path) -> dict[str, str]:
    name = "report.txt" if workload.simulate else "stdout.txt"
    return key_values((out / name).read_text())


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(key: str, got: str, want: str) -> bool:
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if a == b:
        return True
    if key.startswith("ORDER_"):
        return abs(a - b) <= ORDER_TOL
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_run(workload, result: dict, out: Path, ref: dict | None, ref_seed: bool,
              full: bool) -> list[str]:
    """Problems with one run; ``full`` is false for the one-step set-up runs.

    ``ref`` is None in smoke mode, where only the invariants apply and the
    exit code must be the by-design 4 for ``simulate`` (CO2's exponential
    envelope) and 0 for ``convergence``.
    """
    if result.get("error"):
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    expected_rc = ref["exit_code"] if ref else (4 if workload.simulate else 0)
    if result["rc"] != expected_rc:
        return [f"exit code {result['rc']}, expected {expected_rc}"]
    missing = [f for f in output_files(workload) if not (out / f).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]

    got = verdicts(workload, out)
    problems = []
    for key, value in got.items():
        if key.startswith(("OUTLET_", "LEVEL_", "ORDER_")) and not math.isfinite(float(value)):
            problems.append(f"{key}={value} is not finite")
    if workload.simulate:
        if got.get("NONNEG") != "PASS":
            problems.append(f"NONNEG={got.get('NONNEG')}")
        uppers = [k for k in got if k.endswith("_UPPER_BOUND")]
        if not uppers:
            problems.append("no consumed-species UPPER_BOUND verdicts")
        problems += [f"{k}={got[k]}" for k in uppers if got[k] != "PASS"]
    if ref is None:
        return problems

    want = ref["values"]
    if set(got) != set(want):
        return problems + [f"verdict keys differ from the reference: {sorted(set(got) ^ set(want))}"]
    if not full:
        return problems
    keys = want if ref_seed else ref["seed_independent"]
    for key in keys:
        if not _close(key, got[key], want[key]):
            problems.append(f"{key}={got[key]}, reference {want[key]}")
    return problems


def same_outputs(workload, a: Path, b: Path) -> list[str]:
    return [
        f"{name} differs between {a.name} and {b.name}"
        for name in output_files(workload)
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


def check_counts(workload, metrics: dict, ref: dict | None, ref_seed: bool) -> list[str]:
    """Counts a traced run must reproduce exactly."""
    if workload.simulate:
        want = {"coupler.steps": workload.sizes["steps"], "cli_io.march_fluid.calls": 1}
    else:
        want = {"fluid_march.march.calls": workload.sizes["marches"], "coupler.steps": 0}
    if ref is not None and (ref_seed or ref.get("counts_seed_independent")):
        want.update(ref["counts"])
    return [
        f"traced {key} = {metrics.get(key)}, expected {value}"
        for key, value in want.items()
        if metrics.get(key) != value
    ]
