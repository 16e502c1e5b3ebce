"""How the contraction diagnostics relate to observed coupling behavior.

The quantity mu = sup sqrt(gamma/beta) / inf theta controls whether the
per-step fixed-point map provably contracts (mu below 2/sqrt(e)).  Sweeping
the wall coupling strength gamma shows the margin crossing 1, and a short
coupled run shows the Picard residuals shrinking geometrically well inside
the guaranteed regime.
"""

import numpy as np

from graetzcat import (
    CouplerSettings,
    CouplingState,
    Grid,
    InitialData,
    SpeciesParams,
    advance_step,
    contraction_margin,
    march_operator,
    surface_operator,
    zero_model,
)

print("gamma sweep at beta = theta = 1:")
print("  gamma     mu        margin    contraction guaranteed")
for gamma in (0.25, 0.5, 1.0, 1.4, 2.0, 4.0):
    d = contraction_margin([SpeciesParams("s", 1.0, gamma, 1.0, -1)])
    print(f"  {gamma:5.2f}   {d.mu:7.4f}   {d.margin:7.4f}   {d.satisfied}")

# one coupled step on smooth data, watching the residuals
nr, nz = 32, 64
grid = Grid(nr=nr, nz=nz, dt=0.02, t_end=0.02)
species = (SpeciesParams("s", 1.0, 1.0, 1.0, -1),)
r = grid.r
init = InitialData(
    inlet=(1.0 - r * r)[None, :].copy(), wall_init=np.zeros((1, nz + 1))
)
march_op = march_operator(species, grid)
surface_op = surface_operator(species, nz + 1, grid.dt)
state = CouplingState(0.0, init.wall_init, ())

new = advance_step(state, init, CouplerSettings(), march_op, surface_op, zero_model([2.0]))
print("\nPicard residuals for one step (mu = 1, margin 0.824):")
for m, res in enumerate(new.residual_history, start=1):
    print(f"  iteration {m}: {res:.3e}")
ratios = [
    new.residual_history[i] / new.residual_history[i - 1]
    for i in range(1, len(new.residual_history))
    if new.residual_history[i - 1] > 0
]
if ratios:
    print(f"observed contraction factor: {max(ratios):.3f}")
