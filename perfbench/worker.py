"""One fresh benchmark process: import the solver, run the work, report.

    python3 perfbench/worker.py <spec.json>

The spec names the checkout root, the work (``argv`` for
``graetzcat.cli_io.main``, with ``{out}`` standing for the output
directory, or ``null`` to stop after the import), the output directory,
whether to trace, and where to write the result.  With ``repeat_s`` the
process runs the work once to warm up and then again and again until
``repeat_s`` seconds have passed, each time in its own output directory
``solve-<k>`` and between two runs of the calibration job (calibrate.py).

The result records, per run of the work, its exit code, any traceback and
the in-process time of the ``main`` call; the monotonic clock at the end of
the work (so the parent can time the process from its launch); the peak
resident memory after the first run of the work; and the library versions.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import calibrate  # this script's directory is on sys.path
from tracer import Tracer, summarize, wrapper_cost

MIN_TIMED = 3  # timed runs of the work in a repeat process, however long they take


def solve(main, argv: list[str], out: Path) -> dict:
    """One call of ``main`` writing into ``out``; its stdout goes to out/stdout.txt."""
    out.mkdir(parents=True, exist_ok=True)
    rc, error = None, None
    with open(out / "stdout.txt", "w") as f, contextlib.redirect_stdout(f):
        start = time.perf_counter()
        try:
            rc = main([a.replace("{out}", str(out)) for a in argv])
        except (Exception, SystemExit):  # a failed run is data, reported below
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start
    return {"out": str(out), "rc": rc, "error": error, "wall_s": wall_s}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import graetzcat
    import graetzcat.cli_io

    if Path(graetzcat.__file__).resolve().parent != (src / "graetzcat").resolve():
        raise SystemExit(f"graetzcat imported from {graetzcat.__file__}, not from {src}")

    result = {}
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        result["patched_sites"] = tracer.install(graetzcat)

    argv, out = spec["argv"], Path(spec["out"])
    solves = []
    if argv is not None:
        solves.append(solve(graetzcat.cli_io.main, argv, out))
    end_monotonic = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    repeat_s = spec.get("repeat_s")
    if repeat_s is not None:
        start = time.monotonic()
        before = calibrate.reference_job()
        while len(solves) <= MIN_TIMED or time.monotonic() - start < repeat_s:
            run = solve(graetzcat.cli_io.main, argv, out / f"solve-{len(solves)}")
            after = calibrate.reference_job()
            run.update(cal_before=before, cal_after=after)
            solves.append(run)
            before = after

    result.update(
        solves=solves,
        end_monotonic=end_monotonic,
        maxrss_kb=maxrss_kb,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        result["trace"] = summarize(tracer.spans, solves[0]["wall_s"])
        result["trace"]["trace.wrapper_s"] = len(tracer.spans) * wrapper_cost()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
