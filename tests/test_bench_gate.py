"""Each benchmark workload passes the benchmark's own checks.

perfbench/run.py rejects a run whose exit code, report footer or stdout
verdicts leave the tolerance of perfbench/references.json, or whose traced
counts (marches per calling module, Picard iterations, step_wall and
eval_rates calls) differ from the pinned ones.  This test builds each
workload at the reference seed, runs it once under the unedited tracer in a
fresh interpreter the way perfbench/worker.py does, and applies
``checks.check_run`` and ``checks.check_counts``, so a change that moves a
pinned count or value fails here rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graetzcat

from conftest import REPO_ROOT

SCRIPT = """
import contextlib, json, sys, time
from pathlib import Path
sys.path[:0] = [{src!r}, {perfbench!r}]
import graetzcat
import graetzcat.cli_io  # before install: the tracer patches every module of the package

import checks, tracer, workloads

refs = checks.load_references()
ref = refs["workloads"][{name!r}]
tmp = Path({tmp!r})
wl = workloads.make({name!r}, refs["seed"], Path({root!r}), tmp / "inputs", smoke=False)
spans = tracer.Tracer()
spans.install(graetzcat)

out = tmp / "out"
out.mkdir()
with open(out / "stdout.txt", "w") as f, contextlib.redirect_stdout(f):
    start = time.perf_counter()
    rc = graetzcat.cli_io.main([a.replace("{{out}}", str(out)) for a in wl.argv])
    wall_s = time.perf_counter() - start
metrics = tracer.summarize(spans.spans, wall_s)
problems = checks.check_run(wl, {{"rc": rc, "error": None}}, out, ref, True, True)
problems += checks.check_counts(wl, metrics, ref, True)
print(json.dumps(problems))
"""

# the workers of perfbench/run.py run with BLAS threads capped at 1
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", ["co_oxidation", "split_beta", "graetz_refine"])
def test_workload_passes_the_benchmark_checks(name, tmp_path):
    script = SCRIPT.format(
        src=str(Path(graetzcat.__file__).resolve().parents[1]),
        perfbench=str(REPO_ROOT / "perfbench"),
        root=str(REPO_ROOT),
        name=name,
        tmp=str(tmp_path),
    )
    # no bytecode: importing perfbench/ leaves nothing behind in it
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_CAP)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
