"""Span recorder for traced benchmark runs.

The solver's modules bind each other's functions with ``from .x import y``,
so a function is looked up in the namespace of the module that calls it.
``Tracer.install`` therefore patches every call site: each public function
of one graetzcat module that another graetzcat module imports is replaced,
in the importing module, by a wrapper that records a span.  A few stages
that are called inside their own module (``STAGES``) are patched too.

Spans are kept in memory as ``(name, site, parent, start, end, value)``
tuples and written once, when the run ends.  ``name`` is
``<defining module>.<function>``, ``site`` is the module the call came
from, ``parent`` is the index of the enclosing span (-1 at the top) and
``value`` is a count taken from the call's result where one is defined in
``MEASURES`` (cells marched, Picard iterations, trajectory bytes).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli_io", "coupler", "fluid_march", "kinetics", "model", "qualcheck", "wall_evolve")

# Functions called inside their own module that still mark a stage worth
# timing on its own: the CLI's parse/write/study steps and the coupled step.
STAGES = {
    "cli_io": ("parse_config", "write_snapshot_csv", "write_probe_csv", "write_report",
               "convergence_study"),
    "coupler": ("advance_step",),
}

MARCH = "fluid_march.march_fluid"
FLUX = ("fluid_march.wall_flux_gradient", "fluid_march.wall_flux_integral")
RATES = "kinetics.eval_rates"
STEP = "coupler.advance_step"
RUN = "coupler.run_simulation"


def _nbytes(obj) -> int:
    """Bytes held by one snapshot: array buffers plus 8 per scalar."""
    total = 0
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += 8 * len(v)
        else:
            total += 8
    return total


def _trajectory_bytes(result) -> int:
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], list):
        return sum(_nbytes(s) for s in result[1])
    return 0


MEASURES = {
    MARCH: lambda res: int(res.values.size),
    STEP: lambda res: int(res.iterations_last_step),
    RUN: _trajectory_bytes,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, site: str):
        measure = MEASURES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = measure(result) if measure is not None and result is not None else 0
                spans[sid] = (name, site, parent, start, end, value)

        return traced

    def install(self, package) -> list[str]:
        """Patch every call site in the package; returns the patched sites."""
        mods = {m: getattr(package, m) for m in MODULES}
        sites = []
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in mods or (home == site and attr not in STAGES.get(site, ())):
                    continue
                setattr(mod, attr, self.wrap(obj, f"{home}.{obj.__name__}", site))
                sites.append(f"{site}.{attr}")
        return sorted(sites)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "site", "parent", "start", "end", "value"],
            "spans": self.spans,
        }))


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op against a bare one.

    On a noisy host the difference of a traced and an untraced run can be
    dominated by noise; spans times this cost bounds what tracing adds.
    """
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - bare) / calls


def summarize(spans: list, wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced run of ``wall_s`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over the spans of its module.
    """
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    roots = 0.0
    for (_, _, parent, *_), d in zip(spans, dur):
        if parent < 0:
            roots += d
        else:
            child[parent] += d

    calls = defaultdict(int)
    site_calls = defaultdict(int)
    parent_calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    value = defaultdict(int)
    layer_self = defaultdict(float)
    parent_self = defaultdict(float)
    for i, (name, site, parent, _, _, v) in enumerate(spans):
        own = dur[i] - child[i]
        calls[name] += 1
        site_calls[(site, name)] += 1
        self_s[name] += own
        total_s[name] += dur[i]
        value[name] += v
        layer_self[name.partition(".")[0]] += own
        pname = spans[parent][0] if parent >= 0 else None
        parent_calls[(pname, name)] += 1
        parent_self[(pname, name)] += own

    def flux(table, parent=None):
        return sum(table[f] if parent is None else table[(parent, f)] for f in FLUX)

    steps = calls[STEP]
    march_calls = calls[MARCH]
    cells = value[MARCH]
    coupler_marches = site_calls[("coupler", MARCH)]
    m = {
        "fluid_march.march.calls": march_calls,
        "fluid_march.march.self_s": self_s[MARCH],
        "fluid_march.march.ms_per_call": 1e3 * self_s[MARCH] / march_calls if march_calls else 0.0,
        "fluid_march.march.cells": cells,
        "fluid_march.march.ns_per_cell": 1e9 * self_s[MARCH] / cells if cells else 0.0,
        "fluid_march.flux.calls": flux(calls),
        "fluid_march.flux.self_s": flux(self_s),
        "fluid_march.flux.step_calls": flux(parent_calls, STEP),
        "fluid_march.flux.record_calls": flux(parent_calls, RUN),
        "fluid_march.flux.record_self_s": flux(parent_self, RUN),
        "coupler.steps": steps,
        "coupler.picard_iters": value[STEP],
        "coupler.iters_per_step": value[STEP] / steps if steps else 0.0,
        "coupler.marches_per_step": coupler_marches / steps if steps else 0.0,
        "coupler.march_fluid.calls": coupler_marches,
        "coupler.advance_step.self_s": self_s[STEP],
        "coupler.run_simulation.self_s": self_s[RUN],
        "coupler.trajectory_bytes": value[RUN],
        "wall_evolve.step_wall.calls": calls["wall_evolve.step_wall"],
        "wall_evolve.step_wall.self_s": self_s["wall_evolve.step_wall"],
        "kinetics.eval_rates.calls": calls[RATES],
        "kinetics.eval_rates.self_s": self_s[RATES],
        "kinetics.eval_rates.step_calls": parent_calls[(STEP, RATES)],
        "kinetics.eval_rates.record_calls": parent_calls[(RUN, RATES)],
        "kinetics.eval_rates.record_self_s": parent_self[(RUN, RATES)],
        "kinetics.sampling_s": total_s["kinetics.verify_hypotheses"]
        + total_s["kinetics.estimate_lipschitz"],
        "qualcheck.check_nonnegativity.self_s": self_s["qualcheck.check_nonnegativity"],
        "qualcheck.check_envelopes.self_s": self_s["qualcheck.check_envelopes"],
        "qualcheck.energy_growth_report.self_s": self_s["qualcheck.energy_growth_report"],
        "cli_io.parse_config.self_s": self_s["cli_io.parse_config"],
        "cli_io.write.self_s": sum(v for k, v in self_s.items() if k.startswith("cli_io.write_")),
        "cli_io.march_fluid.calls": site_calls[("cli_io", MARCH)],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - roots,
        "trace.spans": n,
    }
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
