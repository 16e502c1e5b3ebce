import time
from pathlib import Path

import numpy as np
import pytest

from graetzcat.cli_io import parse_config
from graetzcat.coupler import run_simulation
from graetzcat.kinetics import zero_model
from graetzcat.model import Grid, InitialData, ModelConfig, SpeciesParams

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_CFG = REPO_ROOT / "demos" / "co_oxidation.cfg"


def constant_config(nr=32, nz=64, dt=0.01, t_end=1.0, levels=(0.37, 1.29)):
    """Zero kinetics with per-species constant, corner-compatible data."""
    species = tuple(
        SpeciesParams(f"s{i}", 1.0, 1.0, 1.0, -1 if i % 2 == 0 else 1)
        for i in range(len(levels))
    )
    c = np.asarray(levels, dtype=float)
    init = InitialData(
        inlet=np.tile(c[:, None], (1, nr + 1)),
        wall_init=np.tile(c[:, None], (1, nz + 1)),
    )
    grid = Grid(nr=nr, nz=nz, dt=dt, t_end=t_end)
    kin = zero_model(np.maximum(1.0, 2.0 * c))
    return ModelConfig(species=species, grid=grid, initial=init, kinetics=kin)


def station_major(values):
    """The same (ns, nr + 1, nz + 1) values stored as march_fluid stores a
    field: each station's nodes contiguous."""
    return np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1)


def mirrored_d2(nz):
    """The surface's d2/dz2 on nz + 1 nodes as a dense matrix, its zero-flux
    ends closed by mirrored ghost nodes, built here rather than taken from
    the surface operator."""
    nn = nz + 1
    d2 = (np.eye(nn, k=1) + np.eye(nn, k=-1) - 2.0 * np.eye(nn)) * nz**2
    d2[0, 1] = d2[-1, -2] = 2.0 * nz**2
    return d2


@pytest.fixture(scope="session")
def scenario():
    """Parsed shipped CO oxidation scenario."""
    cfg, settings = parse_config(SCENARIO_CFG.read_text(), SCENARIO_CFG.parent)
    return cfg, settings


@pytest.fixture(scope="session")
def scenario_run(scenario):
    """One full run of the shipped scenario, shared by the acceptance tests."""
    cfg, settings = scenario
    t0 = time.perf_counter()
    report, trajectory = run_simulation(cfg, settings, seed=0)
    elapsed = time.perf_counter() - t0
    return cfg, settings, report, trajectory, elapsed
