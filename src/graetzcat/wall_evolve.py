"""One semi-implicit time step of the surface balance.

    dC_is/dt = -gamma_is flux_i + delta_i rate_i + theta_is d2 C_is / dz2

Axial diffusion is backward Euler (tridiagonal solve), flux and reaction
enter explicitly from the caller-supplied vectors; both ends are zero-flux,
closed with mirrored ghost nodes, which keeps the trapezoid mass integral
exact for flux-free, reaction-free steps.  The update is computed in
increment form so fixed points are preserved bitwise.

The tridiagonal LU factor depends only on (nn, dt, theta), so it is built
once per process for each such triple and every step reuses it; each solve
is one direct LAPACK ``dgttrs`` call on that factor.  The -gamma, delta and
theta columns and the runs of consecutive species sharing a theta come from
the cached species plan (``model.species_plan``), derived once per species
tuple; each run is solved in place in its rows of the fresh right-hand side.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .model import SpeciesParams, species_plan


def _mirrored_second_difference(values: np.ndarray, dz: float) -> np.ndarray:
    """d2/dz2 with ghost nodes mirrored across both ends, difference form."""
    d = (values[:, 1:] - values[:, :-1]) / dz**2
    out = np.empty_like(values)
    out[:, 0] = 2.0 * d[:, 0]
    out[:, 1:-1] = d[:, 1:] - d[:, :-1]
    out[:, -1] = -2.0 * d[:, -1]
    return out


def surface_rhs(
    wall: np.ndarray,
    flux: np.ndarray,
    rates: np.ndarray,
    params: Sequence[SpeciesParams],
) -> np.ndarray:
    """Right-hand side -gamma_is flux + delta_i rate + theta_is d2C/dz2 per node.

    wall, flux and rates share the layout (ns, nz+1); the second difference
    uses the mirrored zero-flux ends of the step.
    """
    plan = species_plan(tuple(params))
    dz = 1.0 / (wall.shape[1] - 1)
    return (
        plan.neg_gamma * flux
        + plan.delta * rates
        + plan.theta * _mirrored_second_difference(wall, dz)
    )


@functools.lru_cache(maxsize=32)
def surface_factor(nn: int, dt: float, theta: float) -> tuple[np.ndarray, ...]:
    """LU factor (dl, d, du, du2, ipiv) of I - dt theta D2 on nn nodes, read-only.

    D2 is the mirrored-ghost second difference, so the first superdiagonal
    and the last subdiagonal entries carry the doubled ghost weight.
    """
    a = dt * theta / (1.0 / (nn - 1)) ** 2
    dl, du = np.full((2, nn - 1), -a)
    du[0] = -2.0 * a  # mirrored ghost at z = 0
    dl[-1] = -2.0 * a  # mirrored ghost at z = 1
    *factor, info = dgttrf(dl, np.full(nn, 1.0 + 2.0 * a), du)
    if info:  # cannot happen: the matrix is strictly diagonally dominant
        raise RuntimeError(f"surface diffusion matrix is singular (LAPACK dgttrf info={info})")
    for arr in factor:
        arr.flags.writeable = False
    return tuple(factor)


def step_wall(
    prev: np.ndarray,
    flux: np.ndarray,
    rates: np.ndarray,
    dt: float,
    params: Sequence[SpeciesParams],
) -> np.ndarray:
    """The wall one dt after ``prev``, all of layout (ns, nz+1).

    flux is dC_if/dr(1, z) per node and rates are the channel rates with the
    sign not yet applied, as for ``surface_rhs``.
    """
    ns, nn = prev.shape
    if flux.shape != (ns, nn) or rates.shape != (ns, nn):
        raise ValueError("flux/rates must match the wall layout")
    if not dt > 0.0:
        raise ValueError(f"dt = {dt} must be positive")

    rhs = dt * surface_rhs(prev, flux, rates, params)

    # a run of species sharing one diffusivity shares one matrix (multi-RHS
    # solve).  rhs is fresh and C-ordered, so the transpose of a run of its
    # rows is the Fortran-ordered (nn, g) view dgttrs overwrites with the
    # increment; theta = 0 rows keep rhs as their increment.
    for theta, rows in species_plan(tuple(params)).theta_groups:
        if theta == 0.0:
            continue
        _, info = dgttrs(*surface_factor(nn, dt, theta), rhs[rows].T, overwrite_b=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgttrs")

    return prev + rhs
