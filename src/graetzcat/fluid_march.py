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
consistency checks of the scheme.

Operators are applied in face-difference form throughout, so constant data
reproduces itself bitwise (exact fixed points, no drift).

The matrix is symmetric tridiagonal, so its LDL^T factor (LAPACK
``dpttrf``: the diagonal D and the subdiagonal of the unit factor L) depends
only on (nr, nz, beta); the march operator of a run holds it and every
march of the run reuses it.  Each station is one direct LAPACK ``dpttrs``
call on that factor, whose dependency chain has no division.

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
loop's O(nr), so the station loop stays for nr > BLOCK_MAX_NR, where it is
the faster of the two.  Qt is the one operator kept for the process, per
(nr, nz, beta, B): building it is a measurable share of a short solve with
several distinct betas, which later runs on the same grid skip.  The
folded kernel below is built from it per march operator.

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
whatever the betas.

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
carry columns and folded block, past BLOCK_MAX_NR each run of consecutive
species sharing a beta with its factor, and the beta divisor of the
integral form.  Every march of the run is handed that ``MarchOperator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import FluidField, Grid, InitialData, SpeciesParams, consecutive_runs, read_only_column

# Stations one block product advances, and the largest radial grid that
# marches by blocks; both set from timings of the two paths (CHANGES.md).
BLOCK = 16
BLOCK_MAX_NR = 64
# Bytes the distinct betas' BLOCK-station impulse blocks may take before the
# block shrinks to BLOCK // 2, so the kernel stays in a core's cache
# (crossover measured in CHANGES.md).
KERNEL_BYTES = 1 << 20
# Stations the station loop gathers before it writes them out in one slab.
FLUSH = 64


@dataclass(frozen=True)
class RadialOperator:
    """The marching matrix [(1-r^2)/dz I - L_r] for one diffusivity.

    The Dirichlet row at r = 1 is dropped (the trace is known) and the
    rows over the nr interior nodes, the axis row included, are scaled by
    their cell volumes.  That one matrix is a symmetric positive definite
    M-matrix (see the module docstring); ``d``, ``e`` are its LDL^T factor
    from ``dpttrf`` (D's diagonal and L's subdiagonal), and ``build`` makes
    them and ``face_r`` read-only.

    For nr <= BLOCK_MAX_NR the march uses the factor only through
    ``impulse_block``, which marches unit impulses through it once; the
    march then replays that response on the deviation from the wall (see
    the module docstring).
    """

    beta: float
    face_r: np.ndarray
    d: np.ndarray
    e: np.ndarray

    @classmethod
    def build(cls, grid: Grid, beta: float) -> "RadialOperator":
        if not beta > 0.0:
            raise ValueError(f"beta = {beta} must be positive")
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
        k_sup = -face_r[: nr - 1] / dr

        d, e, info = dpttrf(vol * conv[:nr] + beta * k_diag, beta * k_sup)
        if info:  # cannot happen for beta > 0: SPD by design
            raise RuntimeError(
                f"radial marching matrix lost positive definiteness (beta={beta}, info={info})"
            )

        for a in (face_r, d, e):
            a.flags.writeable = False
        return cls(beta=beta, face_r=face_r, d=d, e=e)


@functools.lru_cache(maxsize=32)
def impulse_block(nr: int, nz: int, beta: float, block: int) -> np.ndarray:
    """Qt: how ``block`` stations respond to the deviation before them and
    to the wall drops across them, for one (nr, nz, beta); read-only.

    Row i < nr is the response to a unit deviation at node i, row nr + m to
    a unit drop w_m - w_{m+1} into station m + 1; column j * nr + i is node
    i at station j + 1.  It is the station march of those nr + block
    impulses, run as one station-major batch, so every entry is bitwise
    what that march gives and a row is the march's interior nodes read in
    order.  Qt >= 0 is the discrete maximum principle; a negative (or NaN)
    entry raises rather than being clipped.  Kept for the process per
    (nr, nz, beta, block).
    """
    n = nr + block
    values = np.zeros((n, block + 1, nr + 1))
    wall = np.zeros((n, block + 1))
    values[np.arange(nr), 0, np.arange(nr)] = 1.0  # deviation e_i under a zero wall
    # a drop into station m + 1: ones up to station m, zeros after
    values[nr:, 0, :nr] = 1.0
    wall[nr:] = np.arange(block + 1) <= np.arange(block)[:, None]
    # the operator does not depend on the time grid: dt and t_end are placeholders
    op = RadialOperator.build(Grid(nr=nr, nz=nz, dt=1.0, t_end=1.0), beta)
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


def _block_kernel(nr: int, nz: int, betas: Sequence[float]) -> BlockKernel:
    """The kernel of a block-path march, B stations per block.

    B is BLOCK unless the distinct betas' BLOCK-station blocks would take
    more than KERNEL_BYTES, and half of it then.  One beta gives a
    zero-copy carry view of its kept block and one folded block for every
    species; several give a stack of each species' copies.  The folded
    blocks are built here, per operator; only the plain ones are kept.
    """
    distinct = dict.fromkeys(betas)
    block = BLOCK
    if len(distinct) * (nr + BLOCK) * BLOCK * nr * 8 > KERNEL_BYTES:
        block = BLOCK // 2
    blocks = {b: impulse_block(nr, nz, b, block) for b in distinct}
    kept = [blocks[betas[0]]] if len(blocks) == 1 else [blocks[b] for b in betas]
    # (kernel, row, station, node), the wall node's column left at zero
    out = np.zeros((len(kept), nr + block + 1, block, nr + 1))
    out[:, :-1, :, :nr] = np.reshape(kept, (len(kept), nr + block, block, nr))
    # station j is w_kB less the drops into stations 1 .. j: drop row m
    # loses 1 at the stations from m + 1 on, and w_kB enters them all
    out[:, nr:-1, :, :nr] -= np.triu(np.ones((block, block)))[:, :, None]
    out[:, -1, :, :nr] = 1.0
    out = out.reshape(len(kept), nr + block + 1, block * (nr + 1))
    out.flags.writeable = False
    ns = len(betas)
    if len(blocks) == 1:
        return BlockKernel(
            np.broadcast_to(kept[0][:, -nr:], (ns, nr + block, nr)),
            np.broadcast_to(out[0], (ns,) + out.shape[1:]),
        )
    carry = np.stack([q[:, -nr:] for q in kept])
    carry.flags.writeable = False
    return BlockKernel(carry, out)


@dataclass(frozen=True)
class MarchOperator:
    """What every march of one species tuple on one (nr, nz) grid reuses.

    ``groups`` holds ``(slice, kernel)`` pairs.  For nr <= BLOCK_MAX_NR
    there is one, over every species, whose ``BlockKernel`` stacks their
    carry columns and their impulse blocks folded with the wall
    (``_block_kernel``); past that, each run of consecutive species with
    equal beta_f is one group with its ``RadialOperator``.  ``beta`` is
    the (ns, 1) divisor of the integral flux form.  Built by
    ``march_operator``, arrays read-only.
    """

    nr: int
    nz: int
    groups: tuple[tuple[slice, Union[BlockKernel, RadialOperator]], ...]
    beta: np.ndarray


def march_operator(params: Sequence[SpeciesParams], grid: Grid) -> MarchOperator:
    """The march operator of the species on the grid's (nr, nz); a beta_f
    that is NaN, not positive or infinite raises ValueError."""
    for s in params:
        if not 0.0 < s.beta_f < math.inf:
            raise ValueError(f"species.{s.name}.beta_f = {s.beta_f} must be finite and > 0")
    betas = [s.beta_f for s in params]
    nr, nz = grid.nr, grid.nz
    if nr > BLOCK_MAX_NR:
        groups = tuple((rows, RadialOperator.build(grid, b)) for b, rows in consecutive_runs(betas))
    elif betas:
        groups = ((slice(0, len(betas)), _block_kernel(nr, nz, betas)),)
    else:
        groups = ()
    return MarchOperator(nr, nz, groups, read_only_column(betas))


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
    block = next((k.block for _, k in op.groups if isinstance(k, BlockKernel)), 1)
    buf = np.empty((ns, nz + 1 + (-nz % block), nr + 1))
    buf[:, 0] = init.inlet

    # one stacked block march over every species, or one station march per
    # run of species sharing a factor, in place in its view of buf
    for rows, kernel in op.groups:
        if isinstance(kernel, RadialOperator):
            _march_stations(buf[rows], wall[rows], kernel)
        else:
            _march_blocks(buf[rows], wall[rows], kernel)

    buf[:, : nz + 1, nr] = wall  # trace, bitwise (owns the z = 0 corner)
    return FluidField(buf[:, : nz + 1].transpose(0, 2, 1))


def _march_stations(values: np.ndarray, wvals: np.ndarray, op: RadialOperator) -> None:
    """Backward Euler one station at a time, one ``dpttrs`` call per station.

    Fills ``values[:, 1:, :nr]`` of a station-major (g, nz + 1, nr + 1)
    group from its station ``values[:, 0, :nr]`` and the wall trace
    ``wvals`` (one row per species, one entry per station).
    """
    nr = op.face_r.size
    dr = 1.0 / nr
    # beta r_f (C_{i+1} - C_i) / dr is the flux through face i
    face = op.face_r * (op.beta / dr)
    g, stations = wvals.shape
    # FLUSH stations at a time go through buf and then to values as one
    # slab of whole stations per species.  Row j holds [C | w]: a station's
    # nodes and the wall trace of the station after it, so the differences
    # of row j give the face fluxes into row j + 1; row 0 carries the last
    # station over.  The row views are taken once, the loop only calls
    # into numpy.
    buf = np.empty((FLUSH + 1, g, nr + 1))
    buf[0, :, :nr] = values[:, 0, :nr]
    inner = [b[:, :nr] for b in buf]
    c_hi = [b[:, 1:] for b in buf]
    c_lo = [b[:, :-1] for b in buf]
    # face fluxes in [:, 1:] after a fixed +0.0 column (the axis face), so
    # one subtraction gives every row of the right-hand side, the axis too
    flux = np.empty((g, nr + 1))
    flux[:, 0] = 0.0
    f_hi, f_lo = flux[:, 1:], flux[:, :-1]
    rhs = np.empty((g, nr))
    rhs_t = rhs.T
    for k0 in range(1, stations, FLUSH):
        n = min(FLUSH, stations - k0)
        buf[:n, :, nr] = wvals[:, k0 : k0 + n].T
        for j in range(n):
            np.subtract(c_hi[j], c_lo[j], out=f_hi)
            np.multiply(face, f_hi, out=f_hi)
            np.subtract(f_hi, f_lo, out=rhs)
            # unchecked: a blown-up trace shows in the coupler's residual instead
            delta, info = dpttrs(op.d, op.e, rhs_t, overwrite_b=1)
            if info:
                raise ValueError(f"illegal value in argument {-info} of LAPACK dpttrs")
            np.add(inner[j], delta.T, out=inner[j + 1])
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


def wall_flux_gradient(field: FluidField, grid: Grid) -> np.ndarray:
    """dC/dr at r = 1 per species and z node, one-sided second order.

    Stencil (3 C_nr - 4 C_{nr-1} + C_{nr-2}) / (2 dr) written in difference
    form so constant fields give exactly zero.  The field must fit the grid.
    """
    nr = grid.nr
    if nr < 2:
        raise ValueError("gradient extraction needs nr >= 2")
    if field.values.shape[1:] != (nr + 1, grid.nz + 1):
        raise ValueError(f"field shape {field.values.shape} does not fit the {nr}x{grid.nz} grid")
    v = field.values
    d1 = v[:, nr, :] - v[:, nr - 1, :]
    d2 = v[:, nr - 1, :] - v[:, nr - 2, :]
    return (3.0 * d1 - d2) / (2.0 * grid.dr)


def wall_flux_integral(field: FluidField, grid: Grid, op: MarchOperator) -> np.ndarray:
    """dC/dr at r = 1 via (1/beta) int_0^1 dC/dz r(1-r^2) dr.

    Trapezoid in r, then centered z-differences inside and one-sided at
    the ends: the r-integral of each station first, so no field-sized
    z-derivative is formed.  ``op`` gives each species' beta and must fit
    the field.
    """
    nz = grid.nz
    if nz < 2:
        raise ValueError("integral extraction needs nz >= 2")
    if field.values.shape != (len(op.beta), op.nr + 1, op.nz + 1):
        raise ValueError(f"field shape {field.values.shape} does not fit the march operator")
    moment = np.einsum("ijk,j->ik", field.values, grid.radial_quadrature())
    return np.gradient(moment, grid.dz, axis=1) / op.beta
