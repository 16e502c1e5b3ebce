"""One semi-implicit time step of the surface balance.

    dC_is/dt = -gamma_is flux_i + delta_i rate_i + theta_is d2 C_is / dz2

Axial diffusion is backward Euler (tridiagonal solve), flux and reaction
enter explicitly from the caller-supplied vectors; both ends are zero-flux,
closed with mirrored ghost nodes, which keeps the trapezoid mass integral
exact for flux-free, reaction-free steps.  The update is computed in
increment form so fixed points are preserved bitwise.

``surface_operator`` builds what the steps of a run reuse once, from the
species, the node count and dt: the -gamma, delta and theta columns and
one tridiagonal LU factor of the implicit diffusion of all species.  Each
species' matrix stands in it block-diagonally, zero between species, a
theta = 0 species as identity rows; LAPACK only multiplies the zero
couplings and never pivots across them, so each species is solved bitwise
as it would be alone on finite data.  Each solve is one direct LAPACK
``dgttrs`` call on that factor, in place in the fresh right-hand side.

A time step is split in two.  The rates are lagged to the previous level,
so delta rate and theta d2 C_prev / dz2 are the same for every flux the
coupler tries within one step: ``surface_step`` computes them once per step
(with the layout check), and ``step_wall`` adds only the flux term, solves
and updates, once per flux.  ``surface_rhs`` goes through the same two
pieces, so the right-hand side has one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .model import SpeciesParams, read_only_column, species_errors


def _mirrored_second_difference(values: np.ndarray, dz: float) -> np.ndarray:
    """d2/dz2 with ghost nodes mirrored across both ends, difference form."""
    d = (values[:, 1:] - values[:, :-1]) / dz**2
    out = np.empty_like(values)
    out[:, 0] = 2.0 * d[:, 0]
    out[:, 1:-1] = d[:, 1:] - d[:, :-1]
    out[:, -1] = -2.0 * d[:, -1]
    return out


@dataclass(frozen=True)
class SurfaceOperator:
    """What every surface step of one species tuple on nn nodes at one dt reuses.

    ``neg_gamma``, ``delta`` and ``theta`` are the (ns, 1) columns of
    ``surface_rhs``; ``factor`` is the LU factor of I - dt theta D2 over all
    species (``_diffusion_factor``).  Built by ``surface_operator``, arrays
    read-only.
    """

    nn: int
    dt: float
    neg_gamma: np.ndarray
    delta: np.ndarray
    theta: np.ndarray
    factor: tuple[np.ndarray, ...]


def _diffusion_factor(nn: int, dt: float, thetas: Sequence[float]) -> tuple[np.ndarray, ...]:
    """LU factor (dl, d, du, du2, ipiv) of I - dt theta D2 on nn nodes per
    species, block-diagonal over the species, read-only.

    D2 is the mirrored-ghost second difference, so the first superdiagonal
    and the last subdiagonal entries of a species carry the doubled ghost
    weight; the entries between two species are zero.
    """
    a = dt * np.array(thetas, dtype=float).reshape(-1, 1) / (1.0 / (nn - 1)) ** 2
    # per species row: its sub- and superdiagonal, the last entry coupling
    # it to the next species
    dl, du = np.zeros((2, len(a), nn))
    dl[:, :-1] = du[:, :-1] = -a
    du[:, 0] = -2.0 * a[:, 0]  # mirrored ghost at z = 0
    dl[:, -2] = -2.0 * a[:, 0]  # mirrored ghost at z = 1
    d = np.repeat(1.0 + 2.0 * a, nn, axis=1)
    *factor, info = dgttrf(dl.reshape(-1)[:-1], d.reshape(-1), du.reshape(-1)[:-1])
    if info:  # cannot happen: the matrix is strictly diagonally dominant
        raise RuntimeError(f"surface diffusion matrix is singular (LAPACK dgttrf info={info})")
    for arr in factor:
        arr.flags.writeable = False
    return tuple(factor)


def surface_operator(params: Sequence[SpeciesParams], nn: int, dt: float) -> SurfaceOperator:
    """The surface operator of the species on nn nodes with time step dt; a
    dt that is not finite and > 0 (NaN included) or a constant that
    ``species_errors`` rejects raises ValueError."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt = {dt} must be finite and > 0")
    if errors := species_errors(params):
        raise ValueError(errors[0])
    thetas = [s.theta_s for s in params]
    return SurfaceOperator(
        nn=nn,
        dt=dt,
        neg_gamma=read_only_column([-s.gamma_s for s in params]),
        delta=read_only_column([s.delta for s in params]),
        theta=read_only_column(thetas),
        factor=_diffusion_factor(nn, dt, thetas),
    )


@dataclass(frozen=True)
class SurfaceStep:
    """What every surface step from one previous wall reuses, whatever the flux.

    ``reaction`` is delta rate and ``diffusion`` theta d2 C_prev / dz2, both
    (ns, nn) on the layout of ``op``; built by ``surface_step``.
    """

    prev: np.ndarray
    reaction: np.ndarray
    diffusion: np.ndarray
    op: SurfaceOperator


def surface_step(prev: np.ndarray, rates: np.ndarray, op: SurfaceOperator) -> SurfaceStep:
    """The flux-independent part of a step from ``prev``.

    prev and rates (the channel rates with the sign not yet applied) share
    the layout (ns, nz+1) that ``op`` was built for; the second difference
    uses the mirrored zero-flux ends of the step.
    """
    layout = (len(op.theta), op.nn)
    if not prev.shape == rates.shape == layout:
        raise ValueError(f"wall and rates must have the surface operator's layout {layout}")
    dz = 1.0 / (op.nn - 1)
    return SurfaceStep(
        prev, op.delta * rates, op.theta * _mirrored_second_difference(prev, dz), op
    )


def _rhs(step: SurfaceStep, flux: np.ndarray) -> np.ndarray:
    """-gamma_is flux + delta_i rate + theta_is d2C/dz2, a fresh C-ordered array."""
    if flux.shape != step.prev.shape:
        raise ValueError(f"flux must have the surface operator's layout {step.prev.shape}")
    rhs = np.multiply(step.op.neg_gamma, flux, order="C")
    rhs += step.reaction
    rhs += step.diffusion
    return rhs


def surface_rhs(
    wall: np.ndarray, flux: np.ndarray, rates: np.ndarray, op: SurfaceOperator
) -> np.ndarray:
    """Right-hand side -gamma_is flux + delta_i rate + theta_is d2C/dz2 per node.

    wall, flux and rates share the layout (ns, nz+1) that ``op`` was built
    for; the second difference uses the mirrored zero-flux ends of the step.
    """
    return _rhs(surface_step(wall, rates, op), flux)


def step_wall(step: SurfaceStep, flux: np.ndarray) -> np.ndarray:
    """The wall op.dt after ``step.prev`` under the flux dC_if/dr(1, z) per node.

    flux has the layout of ``step.prev``; the step object is not changed,
    so one serves every flux tried from the same previous wall.
    """
    op = step.op
    rhs = _rhs(step, flux)
    rhs *= op.dt

    # one solve over every species; rhs is fresh and C-ordered, so dgttrs
    # overwrites its flat view with the increment in place
    _, info = dgttrs(*op.factor, rhs.reshape(-1), overwrite_b=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgttrs")

    return step.prev + rhs
