"""Benchmark of the graetzcat solver: time to solution, set-up time and memory.

    python3 perfbench/run.py --workload co_oxidation --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload graetz_refine --seconds 1 --smoke

Run it from a checkout: it imports the solver from ``src/`` and reads
``demos/co_oxidation.cfg``; everything it writes goes under
``.bench_build/perfbench/``.  Workloads are described in workloads.py.

The loop is closed: one fresh process at a time, each with BLAS threads
capped at 1.  Timings are calibrated against a fixed reference job
(calibrate.py), because this benchmark's host drifts in speed by up to 2x
over minutes: a calibrated time is the raw time scaled to a CPU that runs
the reference job in ``calibrate.REFERENCE_S`` seconds.  The raw medians
are printed as ``raw ...`` lines and stamped.  With ``--trace 0`` it
reports, per workload:

  calibrated_wall_s  median over runs of the in-process time from the
               ``graetzcat.cli_io.main([...])`` call to its return, output
               files written, each run calibrated by the reference job timed
               just before and just after it.  One process runs the workload
               once to warm up (imports loaded, caches filled), then again
               until ``--seconds`` have passed (at least three timed runs).
  setup_s      median over fresh processes of the time from launching the
               interpreter to the end of the first unit of work: one
               accepted step (t_end = dt) for the coupled workloads, the
               import alone for graetz_refine; calibrated by reference jobs
               the parent times just before the launch and just after the
               exit.  One warm-up process runs first, so compiled bytecode
               is in place.
  peak_rss_mb  peak resident memory of a fresh process after it has run
               the whole workload once (the warm-up run above).

With ``--trace 1`` it runs the workload once untraced and once traced (the
tracer patches every call site, see tracer.py) and reports the per-layer
self times and counts, in raw seconds, the tracing overhead (traced minus
untraced wall time, and the span count times the measured cost of one
wrapped call) and the time no span covers.

Every run is checked (checks.py); ``attempted`` and ``failed`` count runs,
so fail_frac = failed / attempted.  The last line of standard output is the
JSON result; the line before it stamps the commit, the machine and the
library versions.  ``--smoke`` shrinks every workload to seconds and skips
the reference values (invariants and determinism are still checked).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads
from tracer import MODULES as LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORK = ROOT / ".bench_build" / "perfbench"

BUDGET_S = 170.0          # every run ends well inside 180 s
SETUP_REPS = 3            # measured set-up processes, after one warm-up
IMPORT_REPS = 3           # processes timing the kinetics import
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"calibrated_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fluid_march.self_s": "s",
    "fluid_march.march.calls": "count",
    "fluid_march.march.self_s": "s",
    "fluid_march.march.ms_per_call": "ms",
    "fluid_march.march.cells": "count",
    "fluid_march.march.ns_per_cell": "ns",
    "fluid_march.flux.calls": "count",
    "fluid_march.flux.self_s": "s",
    "fluid_march.flux.step_calls": "count",
    "fluid_march.flux.record_calls": "count",
    "fluid_march.flux.record_self_s": "s",
    "coupler.self_s": "s",
    "coupler.steps": "count",
    "coupler.picard_iters": "count",
    "coupler.iters_per_step": "1/step",
    "coupler.marches_per_step": "1/step",
    "coupler.march_fluid.calls": "count",
    "coupler.advance_step.self_s": "s",
    "coupler.run_simulation.self_s": "s",
    "coupler.trajectory_bytes": "bytes",
    "wall_evolve.self_s": "s",
    "wall_evolve.step_wall.calls": "count",
    "wall_evolve.step_wall.self_s": "s",
    "kinetics.self_s": "s",
    "kinetics.eval_rates.calls": "count",
    "kinetics.eval_rates.self_s": "s",
    "kinetics.eval_rates.step_calls": "count",
    "kinetics.eval_rates.record_calls": "count",
    "kinetics.eval_rates.record_self_s": "s",
    "kinetics.sampling_s": "s",
    "kinetics.import_s": "s",
    "qualcheck.self_s": "s",
    "qualcheck.check_nonnegativity.self_s": "s",
    "qualcheck.check_envelopes.self_s": "s",
    "qualcheck.energy_growth_report.self_s": "s",
    "model.self_s": "s",
    "cli_io.self_s": "s",
    "cli_io.parse_config.self_s": "s",
    "cli_io.write.self_s": "s",
    "cli_io.bytes_written": "bytes",
    "cli_io.march_fluid.calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


class Runner:
    """Launches worker processes one at a time and checks what each produced."""

    def __init__(self, workload, work: Path, ref: dict | None, ref_seed: bool):
        self.workload = workload
        self.work = work
        self.ref = ref
        self.ref_seed = ref_seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GC_LOG")}
        self.env.update(BLAS_CAP)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list[dict] = []

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, tag: str, argv, trace: bool = False, python_flags=(),
              repeat_s: float | None = None) -> dict | None:
        """One fresh process; returns its result with launch time, or None."""
        out = self.work / tag
        out.mkdir()
        spec = {
            "root": str(ROOT),
            "argv": argv,
            "out": str(out),
            "trace": trace,
            "repeat_s": repeat_s,
            "spans": str(out / "spans.json"),
            "result": str(out / "result.json"),
        }
        (out / "spec.json").write_text(json.dumps(spec))
        cmd = [sys.executable, *python_flags, str(WORKER), str(out / "spec.json")]
        launched = time.monotonic()
        with open(out / "stderr.txt", "w") as err:
            try:
                proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=err, stderr=err,
                                      timeout=max(self.time_left(), 1.0))
            except subprocess.TimeoutExpired:
                self.problems.append(f"{tag}: timed out after the {BUDGET_S:.0f} s budget")
                return None
        ended = time.monotonic()
        if proc.returncode != 0 or not (out / "result.json").is_file():
            tail = (out / "stderr.txt").read_text().strip().splitlines()[-1:]
            self.problems.append(f"{tag}: worker exited {proc.returncode}: {' '.join(tail)}")
            return None
        result = json.loads((out / "result.json").read_text())
        for s in result["solves"]:
            s["out"] = Path(s["out"])
        result.update(tag=tag, out=out, launched=launched, lifetime=ended - launched)
        self.results.append(result)
        return result

    def run(self, tag: str, argv, full: bool, trace: bool = False,
            repeat_s: float | None = None) -> dict | None:
        """Spawn a process running the workload and check each of its runs.

        Returns the process result, its runs that passed under "passed", or
        None if the process failed.  A process that only imports counts as
        one run.
        """
        result = self.spawn(tag, argv, trace, repeat_s=repeat_s)
        if result is None:
            self.attempted += 1
            self.failed += 1
            return None
        if argv is None:
            self.attempted += 1
            return dict(result, passed=[])
        result["passed"] = []
        for s in result["solves"]:
            self.attempted += 1
            problems = checks.check_run(self.workload, s, s["out"], self.ref, self.ref_seed, full)
            if problems:
                self.failed += 1
                self.problems += [f"{tag}/{s['out'].name}: {p}" for p in problems]
            else:
                result["passed"].append(s)
        return result

    @staticmethod
    def clean(result: dict | None) -> bool:
        return result is not None and len(result["passed"]) == len(result["solves"])

    def same(self, runs: list[dict]) -> None:
        """Outputs of repeated runs must be byte-identical."""
        for other in runs[1:]:
            diff = checks.same_outputs(self.workload, runs[0]["out"], other["out"])
            if diff:
                self.failed += 1
                self.problems += diff


def measure(runner: Runner, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """End-to-end metrics, calibrated (calibrate.py), and the raw times."""
    wl = runner.workload
    warmup, reps = (0, 1) if smoke else (1, SETUP_REPS)
    setup_raw, setup_cal, setup_runs = [], [], []
    for i in range(warmup + reps):
        before = calibrate.reference_job()
        r = runner.run(f"setup-{i}", wl.setup_argv, full=False)
        after = calibrate.reference_job()
        if not runner.clean(r):
            continue
        setup_runs += r["passed"]
        if i >= warmup:
            raw = r["end_monotonic"] - r["launched"]
            setup_raw.append(raw)
            setup_cal.append(calibrate.calibrated(raw, before, after))
    runner.same(setup_runs)

    timed = runner.run("timed", wl.argv, full=True, repeat_s=seconds)
    if not runner.clean(timed) or not setup_cal:
        return {}, {}
    runner.same(timed["passed"])
    solves = timed["solves"][1:]  # the first run warms up
    metrics = {
        "calibrated_wall_s": statistics.median(
            calibrate.calibrated(s["wall_s"], s["cal_before"], s["cal_after"]) for s in solves),
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": timed["maxrss_kb"] / 1024.0,
    }
    raw = {
        "wall_s": statistics.median(s["wall_s"] for s in solves),
        "setup_s": statistics.median(setup_raw),
        "reference_job_s": statistics.median(s["cal_after"] for s in solves),
        "timed_runs": len(solves),
        "setup_runs": len(setup_raw),
    }
    return metrics, raw


def _kinetics_import_s(runner: Runner, reps: int) -> float | None:
    """Cumulative import time of graetzcat.kinetics (with scipy.stats) in a
    fresh interpreter, from ``python -X importtime``; median over reps."""
    times = []
    for i in range(reps):
        r = runner.spawn(f"import-{i}", None, python_flags=("-X", "importtime"))
        if r is None:
            return None
        for line in (r["out"] / "stderr.txt").read_text().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "graetzcat.kinetics":
                times.append(int(fields[1]) * 1e-6)
    if len(times) != reps:
        runner.problems.append("no import time recorded for graetzcat.kinetics")
        return None
    return statistics.median(times)


def trace(runner: Runner, smoke: bool) -> dict:
    wl = runner.workload
    plain = runner.run("untraced", wl.argv, full=True)
    traced = runner.run("traced", wl.argv, full=True, trace=True)
    import_s = _kinetics_import_s(runner, 1 if smoke else IMPORT_REPS)
    if not runner.clean(plain) or not runner.clean(traced) or import_s is None:
        return {}
    runner.same(plain["passed"] + traced["passed"])

    m = dict(traced["trace"])
    m["trace.untraced_wall_s"] = plain["solves"][0]["wall_s"]
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["kinetics.import_s"] = import_s
    m["cli_io.bytes_written"] = sum(
        p.stat().st_size for p in traced["out"].iterdir()
        if p.name not in ("spec.json", "stdout.txt", "stderr.txt", "spans.json", "result.json")
    )
    problems = checks.check_counts(wl, m, runner.ref, runner.ref_seed)
    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    if abs(covered - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
        problems.append(f"layer self times + unattributed = {covered}, traced wall_s = "
                        f"{m['trace.wall_s']}")
    if problems:
        runner.failed += 1
        runner.problems += problems
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def stamp(runner: Runner, wl, args, raw: dict) -> dict:
    versions = runner.results[0] if runner.results else {}
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas_threads": BLAS_CAP,
        "sizes": wl.sizes,
        "patched_sites": next((r["patched_sites"] for r in runner.results if "patched_sites" in r),
                              None),
        "reference_s": calibrate.REFERENCE_S,
        "raw": raw,
        "processes": [
            {"tag": r["tag"], "lifetime": r["lifetime"], "maxrss_kb": r["maxrss_kb"],
             "runs": [{k: s.get(k) for k in ("rc", "wall_s", "cal_before", "cal_after")}
                      for s in r["solves"]]}
            for r in runner.results
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunken workloads, no reference values")
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "graetzcat" / "cli_io.py", ROOT / workloads.SHIPPED]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"not a graetzcat checkout, missing: {', '.join(absent)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, ROOT, work / "inputs", args.smoke)
    refs = checks.load_references()
    ref = None if args.smoke else refs["workloads"].get(args.workload)
    runner = Runner(wl, work, ref, args.seed == refs["seed"])

    if args.trace:
        metrics, units, raw = trace(runner, args.smoke), PER_LAYER, {}
    else:
        (metrics, raw), units = measure(runner, args.seconds, args.smoke), END_TO_END
    missing = [name for name in units if name not in metrics]
    if missing:
        runner.problems.append(f"metrics not measured: {', '.join(missing)}")

    info = stamp(runner, wl, args, raw)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    for name, value in raw.items():
        print(f"raw {name:<36} {value:>16.6g}")
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"fail_frac {frac:.6g} ({runner.failed} failed of {runner.attempted} attempted)")
    for p in runner.problems:
        print(f"FAIL {p}", file=sys.stderr)
    result = {
        "correct": not runner.problems and not missing,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    (work / "result.json").write_text(json.dumps({"stamp": info, "problems": runner.problems,
                                                  **result}, indent=1))
    print("stamp " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
