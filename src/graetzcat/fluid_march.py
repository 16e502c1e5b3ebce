"""Implicit z-marching for the in-cylinder convection/diffusion balance.

The bulk equation has no time derivative: at a frozen time the field solves

    (1 - r^2) dC/dz = (beta / r) d/dr (r dC/dr),      0 <= r < 1,

with the inlet profile pinned at z = 0, symmetry at the axis and a Dirichlet
trace equal to the wall field at r = 1.  z therefore plays the role of time
and we march it with backward Euler, one tridiagonal solve per step:

    [(1 - r^2)/dz I - L_r] C^{k+1} = (1 - r^2)/dz C^k,   C^{k+1}(1) = wall_{k+1}.

L_r is the finite-volume radial operator; its axis row collapses to
4 beta (C_1 - C_0)/dr^2 because the flux through the r = 0 face vanishes.
The degenerate weight (1 - r^2) = 0 at r = 1 is harmless since that row is
Dirichlet.  The assembled matrix is an M-matrix, which yields a discrete
maximum principle: the marched field cannot leave the envelope of its inlet
and wall data.

The wall gradient the surface equation consumes is extracted two ways:

 * a one-sided second-order stencil at r = 1 (exact for radial quadratics),
 * the integral identity dC/dr(1,z) = (1/beta) int_0^1 dC/dz r(1-r^2) dr.

Both are kept because their mutual agreement under refinement is one of the
consistency checks of the scheme.

Operators are applied in face-difference form throughout, so constant data
reproduces itself bitwise (exact fixed points, no drift).

The Cholesky factor depends only on (nr, nz, beta), so it is built once per
process for each such triple and every march reuses it; each station is one
direct LAPACK ``dpbtrs`` call on that factor.

On small radial grids the march runs in deviation form instead.  With
D_k = C_k - w_k 1 over the nr interior nodes, the volume-scaled system
S = M + beta K (M the diagonal of cell volumes times (1 - r^2)/dz) reads

    S D_k = M (D_{k-1} + (w_{k-1} - w_k) 1),

linear in the previous deviation and the wall drop, and the same at every
station.  So B = BLOCK stations are one product

    [D_{k+1} .. D_{k+B}] = [D_k | drops into k+1 .. k+B] @ Qt

with the (nr + B) x (B nr) impulse-response block Qt (``impulse_block``),
built once per (nr, nz, beta) by running the station march on nr + B unit
impulses.  This is the discrete Duhamel superposition of Graetz problems
with axially varying wall data (Shah & London, 1978).  S^-1 >= 0 and M >= 0,
so Qt >= 0: the block keeps the maximum principle, and constant data gives
D = 0 exactly.  A block costs O(nr^2) per station against the station
loop's O(nr), so the station loop stays for nr > BLOCK_MAX_NR, where it is
the faster of the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .model import FluidField, Grid, InitialData, SpeciesParams, WallField

# Stations one block product advances, and the largest radial grid that
# marches by blocks; both set from timings of the two paths (CHANGES.md).
BLOCK = 16
BLOCK_MAX_NR = 64


@dataclass(frozen=True)
class RadialOperator:
    """Rows of the marching matrix [(1-r^2)/dz I - L_r] for one diffusivity.

    lower/diag/upper are the tridiagonal coefficients over the nr+1 nodes
    including the symmetry row at the axis and the Dirichlet row at r = 1.
    The factored form (drop the Dirichlet unknown, rescale by cell volumes)
    is symmetric positive definite; march_fluid takes its Cholesky factor
    from ``radial_operator``, which builds it once per (nr, nz, beta).
    lower/diag/upper are not used by the march: they are the M-matrix
    witness (``m_matrix_ok``) behind the discrete maximum principle.

    For nr <= BLOCK_MAX_NR the march uses the factor only through
    ``impulse_block``, which marches unit impulses through it once; the
    march then replays that response on the deviation from the wall (see
    the module docstring).
    """

    beta: float
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    face_r: np.ndarray
    cho_factor: np.ndarray

    @classmethod
    def build(cls, grid: Grid, beta: float) -> "RadialOperator":
        if beta <= 0.0:
            raise ValueError(f"beta = {beta} must be positive")
        nr, dr, dz = grid.nr, grid.dr, grid.dz
        r = grid.r
        conv = (1.0 - r * r) / dz
        face_r = (np.arange(nr) + 0.5) * dr

        lower = np.zeros(nr + 1)
        diag = np.zeros(nr + 1)
        upper = np.zeros(nr + 1)

        # axis row: finite-volume symmetry closure
        diag[0] = conv[0] + 4.0 * beta / dr**2
        upper[0] = -4.0 * beta / dr**2
        # interior rows
        j = np.arange(1, nr)
        lower[j] = -beta * face_r[j - 1] / (r[j] * dr**2)
        upper[j] = -beta * face_r[j] / (r[j] * dr**2)
        diag[j] = conv[j] - lower[j] - upper[j]
        # Dirichlet trace row at r = 1
        diag[nr] = 1.0

        # volume-scaled symmetric reduction over the nr interior unknowns
        vol = np.empty(nr)
        vol[0] = dr * dr / 8.0
        vol[1:] = r[1:nr] * dr
        k_diag = np.empty(nr)
        k_diag[0] = face_r[0] / dr
        k_diag[1:] = (face_r[: nr - 1] + face_r[1:nr]) / dr
        k_sup = -face_r[: nr - 1] / dr
        a_diag = vol * conv[:nr] + beta * k_diag
        a_sup = beta * k_sup

        ab = np.zeros((2, nr))
        ab[1, :] = a_diag
        ab[0, 1:] = a_sup
        try:
            cho = cholesky_banded(ab, lower=False)
        except LinAlgError as exc:  # cannot happen for beta > 0: SPD by design
            raise RuntimeError(
                f"radial marching matrix lost positive definiteness (beta={beta})"
            ) from exc

        return cls(
            beta=beta,
            lower=lower,
            diag=diag,
            upper=upper,
            face_r=face_r,
            cho_factor=cho,
        )

    def m_matrix_ok(self) -> bool:
        """Off-diagonals nonpositive, rows weakly diagonally dominant."""
        offdiag_ok = bool(np.all(self.lower <= 0.0) and np.all(self.upper <= 0.0))
        dom = self.diag - (np.abs(self.lower) + np.abs(self.upper))
        return offdiag_ok and bool(np.all(self.diag > 0.0)) and bool(np.all(dom >= -1e-14))


@functools.lru_cache(maxsize=32)
def radial_operator(nr: int, nz: int, beta: float) -> RadialOperator:
    """The operator for one (nr, nz, beta), built once per process, arrays read-only.

    The operator does not depend on the time grid, so dt and t_end are
    placeholders here.
    """
    op = RadialOperator.build(Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), beta)
    for a in (op.lower, op.diag, op.upper, op.face_r, op.cho_factor):
        a.flags.writeable = False
    return op


@functools.lru_cache(maxsize=32)
def impulse_block(nr: int, nz: int, beta: float) -> np.ndarray:
    """Qt: how BLOCK stations respond to the deviation before them and to
    the wall drops across them, for one (nr, nz, beta); read-only.

    Row i < nr is the response to a unit deviation at node i, row nr + m to
    a unit drop w_m - w_{m+1} into station m + 1; column j * nr + i is node
    i at station j + 1.  It is the station march of those nr + BLOCK
    impulses, run as one batch, so every entry is bitwise what that march
    gives.  Qt >= 0 is the discrete maximum principle; a negative (or NaN)
    entry raises rather than being clipped.
    """
    n = nr + BLOCK
    values = np.zeros((n, nr + 1, BLOCK + 1))
    wall = np.zeros((n, BLOCK + 1))
    values[np.arange(nr), np.arange(nr), 0] = 1.0  # deviation e_i under a zero wall
    # a drop into station m + 1: ones up to station m, zeros after
    values[nr:, :nr, 0] = 1.0
    wall[nr:] = np.arange(BLOCK + 1) <= np.arange(BLOCK)[:, None]
    _march_stations(values, slice(None), wall, radial_operator(nr, nz, beta))
    dev = values[:, :nr, 1:] - wall[:, None, 1:]  # C - w: C itself, or 1 - 1 before the drop
    qt = dev.transpose(0, 2, 1).reshape(n, BLOCK * nr)
    if not np.all(qt >= 0.0):
        raise RuntimeError(
            f"impulse block lost the maximum principle (nr={nr}, nz={nz}, beta={beta})"
        )
    qt.flags.writeable = False
    return qt


def march_fluid(
    wall: WallField,
    init: InitialData,
    params: Sequence[SpeciesParams],
    grid: Grid,
) -> FluidField:
    """March every species down the cylinder against the given wall trace.

    Returns the field at the wall's time level.  The z = 0 column equals the
    inlet samples (except the corner node, which belongs to the trace), and
    the r = 1 row equals the wall vector bitwise.
    """
    ns = len(params)
    nr, nz = grid.nr, grid.nz
    if wall.values.shape != (ns, nz + 1):
        raise ValueError(f"wall shape {wall.values.shape} != {(ns, nz + 1)}")
    if init.inlet.shape != (ns, nr + 1):
        raise ValueError(f"inlet shape {init.inlet.shape} != {(ns, nr + 1)}")

    values = np.empty((ns, nr + 1, nz + 1))
    values[:, :, 0] = init.inlet

    # species with equal diffusivity share one factor (or impulse block) and
    # are marched as one batch
    groups: dict[float, list[int]] = {}
    for i, s in enumerate(params):
        groups.setdefault(s.beta_f, []).append(i)

    for beta, idx in groups.items():
        g = len(idx)
        # a contiguous group is written through a basic slice, not a fancy index
        rows = slice(idx[0], idx[0] + g) if idx[-1] - idx[0] == g - 1 else idx
        if nr <= BLOCK_MAX_NR:
            _march_blocks(values, rows, wall.values[rows], impulse_block(nr, nz, beta))
        else:
            _march_stations(values, rows, wall.values[rows], radial_operator(nr, nz, beta))

    values[:, nr, :] = wall.values  # trace, bitwise (owns the z = 0 corner)
    return FluidField(values=values, time_tag=wall.time_tag)


def _march_stations(values, rows, wvals: np.ndarray, op: RadialOperator) -> None:
    """Backward Euler one station at a time, one ``dpbtrs`` call per station.

    Fills ``values[rows, :nr, 1:]`` from the column ``values[rows, :nr, 0]``
    and the wall trace ``wvals`` (one row per species, one entry per station).
    """
    fr, cho, beta = op.face_r, op.cho_factor, op.beta
    nr = fr.size
    dr = 1.0 / nr
    g, stations = wvals.shape
    # rolling column: station k-1 in [:nr], the wall trace at k in [nr];
    # the views below are taken once, the loop only calls into numpy
    col = np.empty((g, nr + 1))
    inner, c_hi, c_lo = col[:, :nr], col[:, 1:], col[:, :-1]
    inner[...] = values[rows, :nr, 0]
    # face differences in [:, 1:] after a fixed -0.0 column, so one
    # subtraction also gives the axis row: -0.0 - d == -d exactly (numpy
    # 2.4.6 gives wrong values for np.negative into some strided outputs)
    faces = np.empty((g, nr + 1))
    faces[:, 0] = -0.0
    diff, d_lo = faces[:, 1:], faces[:, :-1]
    rhs = np.empty((g, nr))
    rhs_t = rhs.T
    for k in range(1, stations):
        col[:, nr] = wvals[:, k]
        np.subtract(c_hi, c_lo, out=diff)
        np.multiply(fr, diff, out=diff)
        np.subtract(d_lo, diff, out=rhs)
        np.divide(rhs, dr, out=rhs)
        np.multiply(-beta, rhs, out=rhs)
        # unchecked: a blown-up trace shows in the coupler's residual instead
        delta, info = dpbtrs(cho, rhs_t, lower=0, overwrite_b=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
        np.add(inner, delta.T, out=inner)
        values[rows, :nr, k] = inner


def _march_blocks(values, rows, wvals: np.ndarray, qt: np.ndarray) -> None:
    """The same march in deviation form, BLOCK stations per product with ``qt``.

    Fills ``values[rows, :nr, 1:]`` like ``_march_stations``.  Each species
    is its own (1, nr + B) @ (nr + B, B nr) product in a stacked matmul, so a
    batch gives bitwise what each of its species gives alone (a plain
    (g, K) @ (K, N) product runs gemv at g = 1 and gemm otherwise).
    """
    nr = qt.shape[1] // BLOCK
    g, stations = wvals.shape
    # [D_k | wall drops w_{k+m-1} - w_{k+m}, m = 1..B] per species
    x = np.empty((g, 1, nr + BLOCK))
    x[:, 0, :nr] = values[rows, :nr, 0] - wvals[:, :1]
    drops = wvals[:, :-1] - wvals[:, 1:]
    for k in range(0, stations - 1, BLOCK):
        b = min(BLOCK, stations - 1 - k)  # a last, partial block drops causal zeros
        x[:, 0, nr : nr + b] = drops[:, k : k + b]
        dev = np.matmul(x[:, :, : nr + b], qt[: nr + b, : b * nr]).reshape(g, b, nr)
        x[:, 0, :nr] = dev[:, -1]
        values[rows, :nr, k + 1 : k + b + 1] = (dev + wvals[:, k + 1 : k + b + 1, None]).transpose(
            0, 2, 1
        )


def wall_flux_gradient(
    field: FluidField, grid: Grid, params: Sequence[SpeciesParams]
) -> np.ndarray:
    """dC/dr at r = 1 per species and z node, one-sided second order.

    Stencil (3 C_nr - 4 C_{nr-1} + C_{nr-2}) / (2 dr) written in difference
    form so constant fields give exactly zero.
    """
    nr = grid.nr
    if nr < 2:
        raise ValueError("gradient extraction needs nr >= 2")
    v = field.values
    d1 = v[:, nr, :] - v[:, nr - 1, :]
    d2 = v[:, nr - 1, :] - v[:, nr - 2, :]
    return (3.0 * d1 - d2) / (2.0 * grid.dr)


def wall_flux_integral(
    field: FluidField, grid: Grid, params: Sequence[SpeciesParams]
) -> np.ndarray:
    """dC/dr at r = 1 via (1/beta) int_0^1 dC/dz r(1-r^2) dr.

    Centered z-differences inside, one-sided at the ends, trapezoid in r.
    """
    nz = grid.nz
    if nz < 2:
        raise ValueError("integral extraction needs nz >= 2")
    v = field.values
    dz = grid.dz
    dcdz = np.empty_like(v)
    dcdz[:, :, 1:-1] = (v[:, :, 2:] - v[:, :, :-2]) / (2.0 * dz)
    dcdz[:, :, 0] = (v[:, :, 1] - v[:, :, 0]) / dz
    dcdz[:, :, -1] = (v[:, :, -1] - v[:, :, -2]) / dz

    flux = np.einsum("ijk,j->ik", dcdz, grid.radial_quadrature())
    betas = np.array([s.beta_f for s in params])
    return flux / betas[:, None]
