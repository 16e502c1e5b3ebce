"""The benchmark's span tracer still sees the call structure it pins.

perfbench/tracer.py patches every cross-module call site of the solver and
derives counts from what the calls return (``FluidField.values``,
``CouplingState.iterations_last_step``, the snapshot trajectory).  The
benchmark's references pin those counts.  This test installs the tracer,
unedited, in a fresh interpreter the way perfbench/worker.py does, and
checks the relations behind the pinned counts on two small runs, so a
change that moves one fails here rather than only in the benchmark.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graetzcat

from conftest import REPO_ROOT, SCENARIO_CFG

LEVELS = 3

SCRIPT = """
import contextlib, importlib.util, io, json, sys, time
sys.path.insert(0, {src!r})
import graetzcat
import graetzcat.cli_io  # before install: the tracer patches every module of the package

spec = importlib.util.spec_from_file_location("tracer", {tracer!r})
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install(graetzcat)

summaries = []
for argv in {runs!r}:
    del tracer.spans[:]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = graetzcat.cli_io.main(argv)
        wall_s = time.perf_counter() - start
    summaries.append((code, tracer_mod.summarize(tracer.spans, wall_s)))
print(json.dumps(summaries))
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    cfg = tmp / "short.cfg"
    cfg.write_text(SCENARIO_CFG.read_text().replace("t_end = 60", "t_end = 0.2"))
    out = tmp / "out"
    runs = [
        ["simulate", "--config", str(cfg), "--out", str(out)],
        ["convergence", "--levels", str(LEVELS)],
    ]
    script = SCRIPT.format(
        src=str(Path(graetzcat.__file__).resolve().parents[1]),
        tracer=str(REPO_ROOT / "perfbench" / "tracer.py"),
        runs=runs,
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (sim_code, sim), (study_code, study) = json.loads(proc.stdout)
    assert (sim_code, study_code) == (4, 0)  # the shipped scenario's envelope verdict
    return sim, study, (out / "report.txt").read_text()


def test_coupled_run_counts(traced):
    m, _, report = traced
    steps, iters = m["coupler.steps"], m["coupler.picard_iters"]
    assert steps == 10
    total = int(re.search(r"fixed-point iterations: max \d+, total (\d+)", report).group(1))
    assert iters == total > steps
    # one march per Picard iteration and one per recorded level, the
    # initial one included; simulate re-marches the final wall once
    assert m["coupler.march_fluid.calls"] == iters + steps + 1
    assert m["cli_io.march_fluid.calls"] == 1
    assert m["wall_evolve.step_wall.calls"] == iters
    # the rates at the previous level once per step, and once per recorded level
    assert m["kinetics.eval_rates.calls"] == 2 * steps + 1
    assert m["kinetics.eval_rates.step_calls"] == steps
    assert m["kinetics.eval_rates.record_calls"] == steps + 1


def test_coupled_run_measures(traced):
    m, _, _ = traced
    ns, nr, nz = 4, 32, 64
    assert m["fluid_march.march.cells"] == m["fluid_march.march.calls"] * ns * (nr + 1) * (nz + 1)
    # per snapshot: time, wall, fluid min and max, residuals
    levels = m["coupler.steps"] + 1
    per_level = 8 + 8 * ns * (nz + 1) + 16 * ns
    assert m["coupler.trajectory_bytes"] == levels * per_level + 8 * m["coupler.picard_iters"]


def test_refinement_study_counts(traced):
    _, m, _ = traced
    # a centreline march per level, and one per flux_identity_gap call
    assert m["cli_io.march_fluid.calls"] == m["fluid_march.march.calls"] == 3 * LEVELS
    assert m["coupler.steps"] == m["kinetics.eval_rates.calls"] == 0
