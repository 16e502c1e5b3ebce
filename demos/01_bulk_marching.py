"""March the bulk field down the channel against a fixed cold wall.

A unit concentration enters a channel whose wall is held at zero.  Radial
diffusion against the parabolic velocity profile depletes the core as the
gas travels downstream; by the outlet the centerline retains only a tenth
of a percent of the inlet value.  The same marched field feeds both wall
gradient extractions, whose mutual agreement is a consistency check of the
discretization.
"""

import numpy as np

from graetzcat import (
    Grid,
    InitialData,
    SpeciesParams,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)

nr, nz = 128, 256
grid = Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0)
species = (SpeciesParams(name="tracer", beta_f=1.0, gamma_s=1.0, theta_s=1.0, delta=-1),)

inlet = np.ones((1, nr + 1))
wall = np.zeros((1, nz + 1))
op = march_operator(species, grid)
field = march_fluid(wall, InitialData(inlet, wall.copy()), op)

print("centerline decay (z, value):")
for z_probe in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
    k = round(z_probe * nz)
    print(f"  z = {z_probe:4.2f}   C(0, z) = {field.values[0, 0, k]:.6f}")

print("\nradial profile at the outlet (r, value):")
for r_probe in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
    j = round(r_probe * nr)
    print(f"  r = {r_probe:4.2f}   C(r, 1) = {field.values[0, j, -1]:.6f}")

grad = wall_flux_gradient(field)[0]
intg = wall_flux_integral(field, op)[0]
print("\nwall gradient via one-sided stencil vs integral identity:")
for z_probe in (0.1, 0.25, 0.5, 1.0):
    k = round(z_probe * nz)
    print(f"  z = {z_probe:4.2f}   stencil {grad[k]:9.5f}   integral {intg[k]:9.5f}")

interior = slice(nz // 4, -1)
gap = np.sqrt(grid.dz * np.sum((grad - intg)[interior] ** 2))
print(f"\ninterior L2 mismatch of the two extractions (z >= 0.25): {gap:.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    im = ax1.pcolormesh(grid.z, grid.r, field.values[0], shading="auto")
    ax1.set(xlabel="z", ylabel="r", title="bulk concentration")
    fig.colorbar(im, ax=ax1)
    ax2.plot(grid.z, grad, label="one-sided stencil")
    ax2.plot(grid.z, intg, "--", label="integral identity")
    ax2.set(xlabel="z", ylabel="dC/dr at r=1", title="wall gradient, two ways")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demos/01_bulk_marching.png", dpi=120)
    print("figure saved to demos/01_bulk_marching.png")
except ImportError:
    pass
