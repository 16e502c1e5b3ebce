"""Relaxation of a surface profile under axial diffusion alone.

With no bulk flux and no reaction, the surface equation is a heat equation
with insulated ends.  A cosine mode decays at its known exponential rate
while the zero-flux closure conserves the profile's mean exactly, which is
what makes the conservation check in the test suite sharp.
"""

import numpy as np

from graetzcat import SpeciesParams, step_wall, surface_operator, surface_step

nz, dt, t_final = 128, 1e-4, 0.1
steps = round(t_final / dt)
z = np.linspace(0.0, 1.0, nz + 1)
species = (SpeciesParams(name="heat", beta_f=1.0, gamma_s=1.0, theta_s=1.0, delta=1),)
op = surface_operator(species, nz + 1, dt)

wall = np.cos(np.pi * z)[None, :]
quiet = np.zeros((1, nz + 1))

trap = np.full(nz + 1, 1.0 / nz)
trap[0] = trap[-1] = 0.5 / nz
mean0 = float(wall[0] @ trap)

history = [(0.0, float(wall[0, 0]))]
for n in range(1, steps + 1):
    wall = step_wall(surface_step(wall, quiet, op), quiet)
    if n % (steps // 5) == 0:
        history.append((n * dt, float(wall[0, 0])))

print("cos(pi z) amplitude decay (t, computed, exact):")
for t, amp in history:
    print(f"  t = {t:5.3f}   {amp: .6f}   {np.exp(-np.pi**2 * t): .6f}")

drift = abs(float(wall[0] @ trap) - mean0)
print(f"\nmean drift after {steps} steps: {drift:.3e} (zero-flux closure is conservative)")
