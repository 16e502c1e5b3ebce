"""Regenerate references.json from one traced run of each workload at seed 0.

    python3 perfbench/make_references.py

Only for a change that is meant to move the solver's outputs; the new
references then belong in that change's review.  Which keys hold at every
seed is decided here: the hypothesis verdicts, LAMBDA and the exponential
envelopes depend on the sampling seed, and split_beta's wall data depends
on the seed, so at other seeds only its parameter diagnostics compare.
"""

from __future__ import annotations

import json
import shutil

import checks
import run
import workloads

SEED = 0
COUNTS = ("coupler.steps", "coupler.picard_iters", "coupler.march_fluid.calls",
          "cli_io.march_fluid.calls", "fluid_march.march.calls",
          "wall_evolve.step_wall.calls", "kinetics.eval_rates.calls")
PARAMETER_KEYS = ("MU", "THRESHOLD", "SATISFIED", "MARGIN")


def seed_independent(name: str, keys) -> list[str]:
    if name == "graetz_refine":
        return sorted(keys)
    if name == "split_beta":
        return [k for k in keys if k in PARAMETER_KEYS]
    return sorted(k for k in keys if k not in ("LAMBDA", "H1", "H2", "H3")
                  and not k.endswith("_EXP_BOUND"))


def main() -> None:
    refs = {"seed": SEED, "workloads": {}}
    for name in workloads.NAMES:
        work = run.WORK / f"references-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.make(name, SEED, run.ROOT, work / "inputs", smoke=False)
        runner = run.Runner(wl, work, None, True)
        result = runner.run("traced", wl.argv, full=True, trace=True)
        if not runner.clean(result):
            raise SystemExit(f"{name}: {runner.problems}")
        solve = result["solves"][0]
        values = checks.verdicts(wl, solve["out"])
        refs["workloads"][name] = {
            "exit_code": solve["rc"],
            "values": values,
            "seed_independent": seed_independent(name, values),
            "counts": {k: result["trace"][k] for k in COUNTS},
            "counts_seed_independent": name != "split_beta",
        }
        print(f"{name}: exit {solve['rc']}, {len(values)} values")
    checks.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
