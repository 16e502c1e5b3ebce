"""The demos run to completion against the current API.

Each demo runs in its own process, from an empty directory that has a
``demos`` folder for the figures a demo saves when matplotlib is present.
demos/03 is left out: it is the full shipped scenario, which the
``scenario_run`` fixture already solves; CI's console-script step runs the
script itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graetzcat

from conftest import REPO_ROOT

DEMOS = ("01_bulk_marching", "02_surface_relaxation", "04_grid_convergence", "05_coupling_diagnostics")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    (tmp_path / "demos").mkdir()
    src = str(Path(graetzcat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
