"""The full coupled scenario: CO oxidation over a catalytic channel wall.

Gas carrying CO and O2 at a 500-degree inlet meets a slightly colder wall.
The surface reaction consumes CO and O2, produces CO2 and heat, and the
wall both drains and resupplies each species through the radial gradient
of the bulk field.  Outlet values move monotonically until the coupled
system settles; the terminal state echoes the qualitative picture of a
converter lighting off and reaching steady operation.

Runs the shipped demos/co_oxidation.cfg scenario in-process.
"""

from pathlib import Path

import numpy as np

from graetzcat.cli_io import parse_config
from graetzcat.coupler import run_simulation

cfg_path = Path(__file__).parent / "co_oxidation.cfg"
cfg, settings = parse_config(cfg_path.read_text(), cfg_path.parent)

report, trajectory = run_simulation(cfg, settings, seed=0)

names = cfg.species_names
print(f"species: {', '.join(names)}")
d = report.diagnostics
print(f"coupling contraction: mu = {d.mu:.3f} (threshold {d.threshold:.3f}), "
      f"satisfied = {d.satisfied}")
iterations = [len(s.residuals) for s in trajectory[1:]]
print(f"fixed-point iterations per step: worst {max(iterations)}")

print("\noutlet (z = 1) wall values over time:")
times = np.array([s.time for s in trajectory])
outlet = np.array([s.wall[:, -1] for s in trajectory])  # (levels, species)
marks = [0.0, 1.0, 5.0, 15.0, 30.0, times[-1]]
print("  t      " + "".join(f"{n:>12}" for n in names))
for t_mark in marks:
    i = int(np.argmin(np.abs(times - t_mark)))
    row = "".join(f"{v:12.6f}" for v in outlet[i])
    print(f"  {times[i]:6.1f}{row}")

print(f"\nevolution settled (wall rates below 1e-8) at t = {report.reaction_ended:.2f}")
print(f"nonnegativity: {'clean' if report.nonneg.passed else 'violated'}")
print("data-derived envelopes:")
for c in report.envelope_checks:
    print(f"  {c.species:>4} {c.item:<12} {'ok' if c.passed else 'exceeded'}")

co_drop = outlet[0, 0] - outlet[-1, 0]
t_rise = outlet[-1, 3] - outlet[0, 3]
print(f"\nCO converted at the outlet: {co_drop:.6f}")
print(f"wall temperature rise at the outlet: {t_rise:.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 2, figsize=(10, 6), sharex=True)
    for ax, i in zip(axes.flat, range(4)):
        ax.plot(times, outlet[:, i])
        ax.set(title=names[i], xlabel="t")
    fig.suptitle("outlet wall values")
    fig.tight_layout()
    fig.savefig("demos/03_co_oxidation.png", dpi=120)
    print("figure saved to demos/03_co_oxidation.png")
except ImportError:
    pass
