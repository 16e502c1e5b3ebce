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
Dirichlet.  The code holds one matrix per (nr, nz, beta): the Dirichlet
unknown dropped and each row scaled by its cell volume, which makes it
symmetric positive definite and tridiagonal.  It is an M-matrix, which
yields a discrete maximum principle: the marched field cannot leave the
envelope of its inlet and wall data.  The tests assemble the same
finite-volume stencil themselves, check the M-matrix structure on it and
march it as their reference, which the station path matches bitwise.

The wall gradient the surface equation consumes is extracted two ways:

 * a one-sided second-order stencil at r = 1 (exact for radial quadratics),
 * the integral identity dC/dr(1,z) = (1/beta) int_0^1 dC/dz r(1-r^2) dr.

Both are kept because their mutual agreement under refinement is one of the
consistency checks of the scheme.  Both read the grid off the field: on the
unit cylinder its shape (ns, nr + 1, nz + 1) fixes dr = 1/nr and dz = 1/nz.

Operators are applied in face-difference form throughout, so constant data
reproduces itself bitwise (exact fixed points, no drift).

The matrix is symmetric tridiagonal, so its LDL^T factor (LAPACK
``dpttrf``: the diagonal D and the subdiagonal of the unit factor L) depends
only on (nr, nz, beta).  The species' matrices stand block-diagonally in
one matrix, zero between species, whose factor the march operator of a run
holds and every march of the run reuses.  Each station is one direct
LAPACK ``dpttrs`` call on that factor for all species, whose dependency
chain has no division.

On small radial grids the march runs in deviation form instead.  With
D_k = C_k - w_k 1 over the nr interior nodes, the volume-scaled system
S = M + beta K (M the diagonal of cell volumes times (1 - r^2)/dz) reads

    S D_k = M (D_{k-1} + (w_{k-1} - w_k) 1),

linear in the previous deviation and the wall drop, and the same at every
station.  So B stations are one product

    [D_{k+1} .. D_{k+B}] = [D_k | drops into k+1 .. k+B] @ Qt

with the (nr + B) x (B nr) impulse-response block Qt (``impulse_block``),
built by running the station march on nr + B unit impulses.  This is the
discrete Duhamel superposition of Graetz problems with axially varying
wall data (Shah & London, 1978).  S^-1 >= 0 and M >= 0,
so Qt >= 0: the block keeps the maximum principle (``impulse_block``
checks it on every block it builds), and constant data gives D = 0
exactly.  A block costs O(nr^2) per station against the station
loop's O(nr), but the block path is still the faster up to nr of about
256; what keeps the station loop for nr > BLOCK_MAX_NR is rounding.  The
block's sums stray from the station solve as nr and the diffusion number
beta nr^2 / nz grow: up to nr = 64 and a diffusion number of 256 the
field stays within 1e-13 of the largest datum (the tests assert it; the
worst of a sweep over nr <= 64, nz 4-49 and beta up to 20 was 4.7e-14),
past either it does not (CHANGES.md gives the measured errors), so such
marches take the station loop.

Only a block's last station feeds the next block, so the march takes the
carries D_B, D_2B, .. first, each from the one before through the last nr
columns of Qt, and then runs the rows of all blocks through one kernel in
one matrix-matrix product: the kernel is read once per march instead of
once per block.  That product also adds the wall.  Station kB + j has
C = D + w_kB - (the drops into stations kB + 1 .. kB + j), so the row
[D_kB | drops | w_kB] through Qt with the cumulative-drop mask taken off
its drop rows and a row of ones below gives C itself.  This folded kernel
has negative entries by design; Qt >= 0 stays the witness, and constant
data still gives D = 0 and zero drops, so C = w_kB 1 exactly.  All species
are marched in one stacked product, each through its own kernel, so a
march makes one chain of stacked carry products and one stacked product
whatever the betas.  The folded kernel and its carries are what the
process keeps, per (nr, nz, betas): building them is a measurable share
of a short solve with several distinct betas, which later operators on
the same grid and betas skip.  Each Qt is dropped once it is folded.

B is BLOCK = 16 unless the distinct betas' 16-station blocks would take
more than KERNEL_BYTES, and 8 then: a gemm runs at speed while its operand
stays in cache, and halving B halves the blocks' bytes but doubles the
carries.  With four distinct betas and nz = 64-128, a march at B = 8 took
0.57-0.84x as long as at B = 16 for nr = 64 (2.6 MB of blocks) and
1.07-1.31x for nr = 32 (0.8 MB); CHANGES.md gives the whole crossover.

Both paths produce the field a station at a time, so it is stored
station-major: ``march_fluid`` fills one (ns, nz + 1 + pad, nr + 1) buffer,
a station's nr + 1 nodes contiguous, and returns its transposed view, of
the usual (ns, nr + 1, nz + 1) shape.  The block path's product writes the
buffer in place: each block's B stations are one contiguous row of it, so
the folded kernel carries a zero column per station for the wall node
(set from the trace afterwards), and pad rounds the stations up to whole
blocks.  The station loop flushes FLUSH whole stations at a time.

``march_operator`` builds what a run needs once, from its species and
grid: on the block path one ``BlockKernel`` that stacks every species'
carry columns and folded block, on the station path one ``RadialOperator``
over every species, and the beta divisor of the integral form.  Every
march of the run is handed that ``MarchOperator``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import (
    FluidField, Grid, InitialData, SpeciesParams, read_only_column, species_errors
)

# Stations one block product advances, set from timings (CHANGES.md), and
# the largest radial grid and diffusion number beta nr^2 / nz that march by
# blocks, set by the block path's rounding against the station solve (the
# module docstring).
BLOCK = 16
BLOCK_MAX_NR = 64
DIFFUSION_MAX = 256.0
# Bytes the distinct betas' BLOCK-station impulse blocks may take before the
# block shrinks to BLOCK // 2, so the kernel stays in a core's cache
# (crossover measured in CHANGES.md).
KERNEL_BYTES = 1 << 20
# Stations the station loop gathers before it writes them out in one slab.
FLUSH = 64


@dataclass(frozen=True)
class RadialOperator:
    """The marching matrices [(1-r^2)/dz I - L_r] of g rows, one beta each.

    A row's matrix drops the Dirichlet row at r = 1 (the trace is known)
    and scales the rows over the nr interior nodes by their cell volumes:
    a symmetric positive definite M-matrix (see the module docstring).  The
    g matrices stand block-diagonally in one, zero between rows; ``d``,
    ``e`` are its LDL^T factor from one ``dpttrf`` (D's diagonal and L's
    subdiagonal), which LAPACK solves for each row bitwise as alone on
    finite data, and ``face`` (g, nr) is each row's beta r_f / dr.
    ``build`` makes them read-only.

    For nr <= BLOCK_MAX_NR the march uses the factor only through
    ``impulse_block``, which marches unit impulses through it once; the
    march then replays that response on the deviation from the wall (see
    the module docstring).
    """

    face: np.ndarray
    d: np.ndarray
    e: np.ndarray

    @classmethod
    def build(cls, grid: Grid, betas: Sequence[float]) -> "RadialOperator":
        beta = np.array(betas, dtype=float).reshape(-1, 1)
        if not np.all(beta > 0.0):
            raise ValueError(f"betas {beta[:, 0].tolist()} must be positive")
        nr, dr, dz = grid.nr, grid.dr, grid.dz
        r = grid.r
        conv = (1.0 - r * r) / dz
        face_r = (np.arange(nr) + 0.5) * dr

        # cells r dr wide, the axis cell dr^2 / 8 (its symmetry closure)
        vol = np.empty(nr)
        vol[0] = dr * dr / 8.0
        vol[1:] = r[1:nr] * dr
        k_diag = np.empty(nr)
        k_diag[0] = face_r[0] / dr
        k_diag[1:] = (face_r[: nr - 1] + face_r[1:nr]) / dr
        # a row's last sub-diagonal entry couples it to the next row: zero
        sub = np.zeros((len(beta), nr))
        sub[:, :-1] = beta * (-face_r[: nr - 1] / dr)

        diag = vol * conv[:nr] + beta * k_diag
        d, e, info = dpttrf(diag.reshape(-1), sub.reshape(-1)[:-1])
        if info:  # cannot happen for beta > 0: SPD by design
            raise RuntimeError(f"radial marching matrix lost positive definiteness (info={info})")

        face = face_r * (beta / dr)
        for a in (face, d, e):
            a.flags.writeable = False
        return cls(face=face, d=d, e=e)


def impulse_block(nr: int, nz: int, beta: float, block: int) -> np.ndarray:
    """Qt: how ``block`` stations respond to the deviation before them and
    to the wall drops across them, for one (nr, nz, beta); read-only.

    Row i < nr is the response to a unit deviation at node i, row nr + m to
    a unit drop w_m - w_{m+1} into station m + 1; column j * nr + i is node
    i at station j + 1.  It is the station march of those nr + block
    impulses, run as one station-major batch, so every entry is bitwise
    what that march gives and a row is the march's interior nodes read in
    order.  Qt >= 0 is the discrete maximum principle; a negative (or NaN)
    entry raises rather than being clipped.  Built afresh on every call:
    only ``_block_kernel``, which folds it and keeps the kernel, calls it.
    """
    n = nr + block
    values = np.zeros((n, block + 1, nr + 1))
    wall = np.zeros((n, block + 1))
    values[np.arange(nr), 0, np.arange(nr)] = 1.0  # deviation e_i under a zero wall
    # a drop into station m + 1: ones up to station m, zeros after
    values[nr:, 0, :nr] = 1.0
    wall[nr:] = np.arange(block + 1) <= np.arange(block)[:, None]
    # the operator does not depend on the time grid: dt and t_end are placeholders
    op = RadialOperator.build(Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), [beta] * n)
    _march_stations(values, wall, op)
    # C - w: C itself, or 1 - 1 before the drop
    qt = (values[:, 1:, :nr] - wall[:, 1:, None]).reshape(n, block * nr)
    if not np.all(qt >= 0.0):
        raise RuntimeError(
            f"impulse block lost the maximum principle (nr={nr}, nz={nz}, beta={beta})"
        )
    qt.flags.writeable = False
    return qt


@dataclass(frozen=True)
class BlockKernel:
    """The two read-only stacks a block-path march of ns species reads.

    ``carry`` (ns, nr + B, nr) is the last station's columns of each
    species' impulse block Qt, which chain the deviation from block to
    block.  ``out`` (ns, nr + B + 1, B (nr + 1)) is Qt folded with the
    wall: its drop rows less the cumulative-drop mask and a last row of
    ones, so [D_kB | drops | w_kB] @ out is the field C itself (see the
    module docstring).  Column j (nr + 1) + i is node i at station j + 1,
    the block's stations laid out as in the station-major field; the wall
    node's column, i = nr, is zero, and its product is overwritten by the
    trace.
    """

    carry: np.ndarray
    out: np.ndarray

    @property
    def block(self) -> int:
        """B, the stations one row of ``out`` advances."""
        return self.carry.shape[1] - self.carry.shape[2]


# four: a refinement study marches four block-path grids, and a simulate
# run's final snapshot reuses its run's kernel (CHANGES.md gives the bytes)
@functools.lru_cache(maxsize=4)
def _block_kernel(nr: int, nz: int, betas: tuple[float, ...]) -> BlockKernel:
    """The kernel of a block-path march, B stations per block; kept for
    the process per (nr, nz, betas).

    B is BLOCK unless the distinct betas' BLOCK-station blocks would take
    more than KERNEL_BYTES, and half of it then.  One beta gives one folded
    block and one carry copy, broadcast to every species; several give a
    slot of each per species.  Each distinct beta's impulse block is built
    once, folded into every slot of that beta, its last station's columns
    copied into the carries, and dropped before the next is built, so no
    plain block outlives the build.
    """
    distinct = dict.fromkeys(betas)
    block = BLOCK
    if len(distinct) * (nr + BLOCK) * BLOCK * nr * 8 > KERNEL_BYTES:
        block = BLOCK // 2
    slots = betas[:1] if len(distinct) == 1 else betas
    # (slot, row, station, node), the wall node's column left at zero
    out = np.zeros((len(slots), nr + block + 1, block, nr + 1))
    carry = np.empty((len(slots), nr + block, nr))
    for beta in distinct:
        q = impulse_block(nr, nz, beta, block)
        for i, b in enumerate(slots):
            if b == beta:
                out[i, :-1, :, :nr] = q.reshape(nr + block, block, nr)
                carry[i] = q[:, -nr:]
        del q  # freed before the next beta's block is built
    # station j is w_kB less the drops into stations 1 .. j: drop row m
    # loses 1 at the stations from m + 1 on, and w_kB enters them all
    out[:, nr:-1, :, :nr] -= np.triu(np.ones((block, block)))[:, :, None]
    out[:, -1, :, :nr] = 1.0
    out = out.reshape(len(slots), nr + block + 1, block * (nr + 1))
    for a in (carry, out):
        a.flags.writeable = False
    ns = len(betas)
    return BlockKernel(
        np.broadcast_to(carry, (ns,) + carry.shape[1:]),
        np.broadcast_to(out, (ns,) + out.shape[1:]),
    )


@dataclass(frozen=True)
class MarchOperator:
    """What every march of one species tuple on one (nr, nz) grid reuses.

    ``kernel`` marches every species at once: on the block path a
    ``BlockKernel`` that stacks their carry columns and their impulse
    blocks folded with the wall (``_block_kernel``), on the station path
    one ``RadialOperator`` over all of them.  ``beta`` is the (ns, 1)
    divisor of the integral flux form and ``block`` the kernel's B, or 1
    on the station path.  Built by ``march_operator``, arrays read-only.
    """

    nr: int
    nz: int
    kernel: Union[BlockKernel, RadialOperator]
    beta: np.ndarray
    block: int


def march_operator(params: Sequence[SpeciesParams], grid: Grid) -> MarchOperator:
    """The march operator of the species on the grid's (nr, nz); species
    that ``species_errors`` rejects raise ValueError.

    The block path takes nr <= BLOCK_MAX_NR and diffusion numbers up to
    DIFFUSION_MAX, the station path the rest.
    """
    if errors := species_errors(params):
        raise ValueError(errors[0])
    betas = [s.beta_f for s in params]
    nr, nz = grid.nr, grid.nz
    if nr <= BLOCK_MAX_NR and max(betas) * nr * nr / nz <= DIFFUSION_MAX:
        kernel = _block_kernel(nr, nz, tuple(betas))
        return MarchOperator(nr, nz, kernel, read_only_column(betas), kernel.block)
    return MarchOperator(nr, nz, RadialOperator.build(grid, betas), read_only_column(betas), 1)


def march_fluid(wall: np.ndarray, init: InitialData, op: MarchOperator) -> FluidField:
    """March every species down the cylinder against the wall trace (ns, nz+1).

    The z = 0 column of the field equals the inlet samples (except the
    corner node, which belongs to the trace), and the r = 1 row equals the
    wall bitwise.  Wall and inlet must fit the species and grid ``op`` was
    built for.
    """
    ns, nr, nz = len(op.beta), op.nr, op.nz
    if wall.shape != (ns, nz + 1):
        raise ValueError(f"wall shape {wall.shape} != {(ns, nz + 1)}")
    if init.inlet.shape != (ns, nr + 1):
        raise ValueError(f"inlet shape {init.inlet.shape} != {(ns, nr + 1)}")

    # station-major, the block path's stations rounded up to whole blocks
    buf = np.empty((ns, nz + 1 + (-nz % op.block), nr + 1))
    buf[:, 0] = init.inlet
    if isinstance(op.kernel, RadialOperator):
        _march_stations(buf, wall, op.kernel)
    else:
        _march_blocks(buf, wall, op.kernel)

    buf[:, : nz + 1, nr] = wall  # trace, bitwise (owns the z = 0 corner)
    return FluidField(buf[:, : nz + 1].transpose(0, 2, 1))


def _march_stations(values: np.ndarray, wvals: np.ndarray, op: RadialOperator) -> None:
    """Backward Euler one station at a time, one ``dpttrs`` call per station.

    Fills ``values[:, 1:, :nr]`` of a station-major (g, nz + 1, nr + 1)
    field from its station ``values[:, 0, :nr]`` and the wall trace
    ``wvals`` (one row per species, one entry per station); ``op`` has the
    same g rows.
    """
    g, nr = op.face.shape
    stations = wvals.shape[1]
    # Up to FLUSH stations at a time go through buf and then to values as
    # one slab of whole stations per species, so a short march (an impulse
    # block's B stations) takes a slab of its own length.  Row j holds
    # [C | w]: a station's nodes and the wall trace of the station after
    # it, so the differences of row j give the face fluxes into row j + 1;
    # row 0 carries the last station over.  The row views are taken once,
    # and the loop only makes positional calls on local names: per station
    # the interpreter's call handling costs more than the arithmetic.
    flush = min(FLUSH, stations - 1)
    buf = np.empty((flush + 1, g, nr + 1))
    buf[0, :, :nr] = values[:, 0, :nr]
    # per row j: its upper and lower nodes, and its and row j + 1's interior
    rows = [(b[:, 1:], b[:, :-1], b[:, :nr], after[:, :nr]) for b, after in zip(buf, buf[1:])]
    # face fluxes in [:, 1:] after a fixed +0.0 column (the axis face), so
    # one subtraction gives every row of the right-hand side, the axis too
    flux = np.empty((g, nr + 1))
    flux[:, 0] = 0.0
    f_hi, f_lo = flux[:, 1:], flux[:, :-1]
    # the solve runs on rhs's flat view, species after species as in the factor
    rhs = np.empty((g, nr))
    rhs_flat = rhs.reshape(-1)
    face, d, e = op.face, op.d, op.e
    subtract, multiply, add = np.subtract, np.multiply, np.add
    for k0 in range(1, stations, flush):
        n = min(flush, stations - k0)
        buf[:n, :, nr] = wvals[:, k0 : k0 + n].T
        for c_hi, c_lo, now, after in rows[:n]:
            subtract(c_hi, c_lo, f_hi)
            multiply(face, f_hi, f_hi)
            subtract(f_hi, f_lo, rhs)
            # dpttrs overwrites rhs with the increment (1 is overwrite_b,
            # passed by position); unchecked: a blown-up trace shows in the
            # coupler's residual instead
            _, info = dpttrs(d, e, rhs_flat, 1)
            if info:
                raise ValueError(f"illegal value in argument {-info} of LAPACK dpttrs")
            add(now, rhs, after)
        values[:, k0 : k0 + n, :nr] = buf[1 : n + 1, :, :nr].transpose(1, 0, 2)
        buf[0] = buf[n]


def _march_blocks(values: np.ndarray, wvals: np.ndarray, kernel: BlockKernel) -> None:
    """The same march in deviation form, B stations per row of each
    species' folded impulse block ``kernel.out[i]``.

    Fills the stations of ``values`` like ``_march_stations``, in two
    phases; the wall node of each is left for the caller to set.
    The carries come first: block k's starting deviation D_{kB} follows
    from block k - 1's [D | drops] through ``kernel.carry``, the plain
    block's last station, one stacked (1, nr + B) x (nr + B, nr) product
    per block for all species.  Then every row [D_kB | drops | w_kB] of
    every block goes through the folded kernel in one stacked product,
    which gives the field itself, so the kernel is read once per march
    rather than once per block and the wall needs no add of its own; the
    drops past the last station are zeros, so a partial last block needs
    no second shape.  numpy runs a stacked product as one BLAS call per
    species, so each species gives bitwise what it gives alone at the same
    B (a plain (g nb, K) @ (K, N) product runs gemv when g nb = 1 and gemm
    otherwise, and the two round apart); alone, a species whose batch
    halved B marches at BLOCK and may differ in the last bits.  The
    carries come from the plain block and the field from the folded one,
    so a carry and the field at its station may differ in the last bit, as
    two BLAS kernels' sums may.  The product writes ``values`` in place: a
    block's row of ``kernel.out`` is its B stations of nr + 1 nodes, so
    ``values`` must hold whole blocks, the ones past the last station
    included.
    """
    g, stations = wvals.shape
    nr = values.shape[2] - 1
    block = kernel.block
    n = stations - 1
    nb = -(-n // block)
    # row k per species: [D_{kB} | wall drops w_{kB+m-1} - w_{kB+m}, m = 1..B | w_{kB}]
    x = np.empty((g, nb, nr + block + 1))
    drops = np.zeros((g, nb * block))
    np.subtract(wvals[:, :-1], wvals[:, 1:], out=drops[:, :n])
    x[:, :, nr:-1] = drops.reshape(g, nb, block)
    x[:, :, -1] = wvals[:, :n:block]
    np.subtract(values[:, 0, :nr], wvals[:, :1], out=x[:, 0, :nr])
    for k in range(1, nb):
        np.matmul(x[:, k - 1 : k, :-1], kernel.carry, out=x[:, k : k + 1, :nr])
    # C_1 .. C_{nb B}
    np.matmul(x, kernel.out, out=values[:, 1:].reshape(g, nb, block * (nr + 1)))


def wall_flux_gradient(field: FluidField) -> np.ndarray:
    """dC/dr at r = 1 per species and z node, one-sided second order.

    Stencil (3 C_nr - 4 C_{nr-1} + C_{nr-2}) / (2 dr) written in difference
    form so constant fields give exactly zero, with dr = 1/nr from the
    field's shape.
    """
    v = field.values
    nr = v.shape[1] - 1
    if nr < 2:
        raise ValueError("gradient extraction needs nr >= 2")
    d1 = v[:, nr, :] - v[:, nr - 1, :]
    d2 = v[:, nr - 1, :] - v[:, nr - 2, :]
    return (3.0 * d1 - d2) / (2.0 / nr)  # 2 dr


def _radial_quadrature(nr: int) -> np.ndarray:
    """Trapezoid weights on the nodes r_j = j/nr against r (1 - r^2)."""
    r = np.linspace(0.0, 1.0, nr + 1)
    trap = np.full(nr + 1, 1.0 / nr)
    trap[[0, -1]] /= 2.0
    return r * (1.0 - r * r) * trap


def wall_flux_integral(field: FluidField, op: MarchOperator) -> np.ndarray:
    """dC/dr at r = 1 via (1/beta) int_0^1 dC/dz r(1-r^2) dr.

    Trapezoid in r, then centered z-differences inside and one-sided at
    the ends: the r-integral of each station first, so no field-sized
    z-derivative is formed.  The field's shape gives dr = 1/nr and
    dz = 1/nz; ``op`` gives each species' beta and must fit the field.
    """
    v = field.values
    nr, nz = v.shape[1] - 1, v.shape[2] - 1
    if nz < 2:
        raise ValueError("integral extraction needs nz >= 2")
    if v.shape != (len(op.beta), op.nr + 1, op.nz + 1):
        raise ValueError(f"field shape {v.shape} does not fit the march operator")
    moment = np.einsum("ijk,j->ik", v, _radial_quadrature(nr))
    return np.gradient(moment, 1.0 / nz, axis=1) / op.beta
