"""Pluggable surface reaction rates plus samplers for the rate-law hypotheses.

A kinetics model maps the N wall states at a point to N nonnegative channel
rates; the solver applies the per-species sign delta_i itself.  Rates only
ever see clipped states (negative parts dropped) clamped into a bounded box,
which is what makes a global Lipschitz constant exist for smooth laws.  The
config parser and the builders share the rules of a law, which live here.

The three structural hypotheses are checked by sampling, not symbolically,
because rate functions are opaque user code:

  H1  rates are elementwise finite and nonnegative on the box;
  H2  a channel that consumes an absent species is silent: for consumed
      species i (delta_i = -1), x_i = 0 implies rate_i = 0;
  H3  weighted monotonicity: for all x, y >= 0,
      -sum_i delta_i (beta_if/gamma_is) (r_i(x) - r_i(y)) (x_i - y_i) >= 0.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .model import InitialData, SpeciesParams

HYPOTHESIS_SLACK = 1e-12
HYPOTHESIS_SAMPLES = 1024  # pairs; a pass on fewer than 1000 points means little
LIPSCHITZ_SAFETY = 1.25
SOBOL_BITS = 30
SOBOL_CHUNK = 4096  # points per Sobol chunk, a power of two >= HYPOTHESIS_SAMPLES


@dataclass(frozen=True)
class KineticsModel:
    """Bundle of a vectorized rate function and its evaluation box.

    rate receives an array of shape (..., arity) of clipped, clamped states
    and returns channel rates of the same shape.  The box is [0, box_hi]
    per channel: states lose their negative parts and are capped at box_hi
    before evaluation.  box_hi is kept as a read-only copy held to box_error.
    """

    rate: Callable[[np.ndarray], np.ndarray]
    box_hi: np.ndarray

    def __post_init__(self) -> None:
        hi = np.array(self.box_hi, dtype=float)
        hi.flags.writeable = False
        for i, h in enumerate(hi.tolist()):
            if message := box_error(h):
                raise ValueError(f"channel {i}: {message}")
        object.__setattr__(self, "box_hi", hi)

    @property
    def arity(self) -> int:
        return len(self.box_hi)

    def clamp(self, state: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(state, 0.0), self.box_hi)


def eval_rates(model: KineticsModel, wall_state: np.ndarray) -> np.ndarray:
    """Evaluate channel rates at one state or a batch of states.

    Input of shape (arity,) or (..., arity).  States are clipped to their
    nonnegative part and clamped into the model box first, so
    eval_rates(x) == eval_rates(max(x, 0)) exactly.
    """
    state = np.asarray(wall_state, dtype=float)
    if state.shape[-1] != model.arity:
        raise ValueError(
            f"state has {state.shape[-1]} channels, model arity is {model.arity}"
        )
    bad = ~np.isfinite(state)
    if bad.any():
        idx = int(np.argwhere(bad)[0][-1])
        raise ValueError(f"non-finite wall state for species index {idx}")
    return np.asarray(model.rate(model.clamp(state)), dtype=float)


# ---------------------------------------------------------------------------
# built-in rate laws and their rules


def box_error(hi: float) -> Optional[str]:
    """What one channel's upper bound breaks of the box rule 0 < hi < inf, or None."""
    if not math.isfinite(hi):
        return f"box upper bound {hi} must be finite"
    return None if hi > 0.0 else f"box upper bound {hi} must be > 0"


def constant_error(value: float) -> Optional[str]:
    """What a rate-law constant breaks of the rule that it is finite, or None."""
    return None if math.isfinite(value) else f"{value} is not finite"


def law_error(model: str, ns: int, **constants: float) -> Optional[str]:
    """The first rule that the law named model over ns channels breaks, or
    None: co_oxidation binds exactly 4 channels, and each constant is finite."""
    if model == "co_oxidation" and ns != 4:
        return f"co_oxidation binds to exactly 4 species (CO, O2, CO2, T); got {ns}"
    errors = ((key, constant_error(value)) for key, value in constants.items())
    return next((f"{key}: {message}" for key, message in errors if message), None)


def default_box(initial: InitialData) -> np.ndarray:
    """The box bounds where none is given: twice the sup of each species'
    inlet and initial wall data, at least 1; inf where that overflows."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, 2.0 * initial.sup)


def zero_model(box_hi: Sequence[float]) -> KineticsModel:
    """No surface reaction at all."""

    def rate(x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    return KineticsModel(rate, box_hi)


def linear_consumption(k: float, box_hi: Sequence[float]) -> KineticsModel:
    """r_i(x) = k x_i+, intended for all-consumed channels (delta_i = -1)."""
    if message := law_error("linear_consumption", len(box_hi), rate=k):
        raise ValueError(message)

    def rate(x: np.ndarray) -> np.ndarray:
        return k * x

    return KineticsModel(rate, box_hi)


def co_oxidation(
    prefactor: float,
    activation_temp: float,
    heat_release: float,
    box_hi: Sequence[float],
) -> KineticsModel:
    """Surrogate CO + O2 -> CO2 surface law over channels (CO, O2, CO2, T).

    Mass action in CO and O2 scaled by an Arrhenius factor exp(-E/T):

        rho = prefactor * CO+ * O2+ * exp(-activation_temp / T+)

    feeding the channels (CO: rho, O2: rho, CO2: rho, T: heat_release * rho)
    with signs (-1, -1, +1, +1) supplied by the species table.  The rate
    constants are surrogate choices; only the monotone trends they produce
    are meaningful.
    """
    if message := law_error("co_oxidation", len(box_hi), prefactor=prefactor,
                            activation_temp=activation_temp, heat_release=heat_release):
        raise ValueError(message)

    def rate(x: np.ndarray) -> np.ndarray:
        co, o2, t = x[..., 0], x[..., 1], x[..., 3]
        arrh = np.where(t > 0.0, np.exp(-activation_temp / np.maximum(t, 1e-300)), 0.0)
        rho = prefactor * co * o2 * arrh
        out = np.empty_like(x)
        out[..., 0] = rho
        out[..., 1] = rho
        out[..., 2] = rho
        out[..., 3] = heat_release * rho
        return out

    return KineticsModel(rate, box_hi)


# name -> (builder, the config keys of its constants in the builder's order)
LAWS = {
    "zero": (zero_model, ()),
    "linear_consumption": (linear_consumption, ("rate",)),
    "co_oxidation": (co_oxidation, ("prefactor", "activation_temp", "heat_release")),
}


# ---------------------------------------------------------------------------
# hypothesis sampling


@dataclass(frozen=True)
class Violation:
    species: int
    magnitude: float
    x: tuple[float, ...]
    y: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class HypothesisReport:
    h1_pass: bool
    h2_pass: bool
    h3_pass: bool
    worst_h1: Optional[Violation]
    worst_h2: Optional[Violation]
    worst_h3: Optional[Violation]
    samples_used: int

    @property
    def all_pass(self) -> bool:
        return self.h1_pass and self.h2_pass and self.h3_pass


def _leading_rows(
    table: zipfile.ZipFile, member: str, d: int, columns: Optional[int] = None
) -> np.ndarray:
    """The first d rows of an npz's .npy member, of its last axis only the
    first ``columns`` entries if given; a Fortran-ordered member is streamed
    a column at a time and read no further than the columns it keeps."""
    fmt = np.lib.format
    with table.open(member) as f:
        version = fmt.read_magic(f)
        header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran_order, dtype = header(f)
        kept, step = list(shape[1:]), dtype.itemsize
        if columns is not None:
            kept[-1] = min(kept[-1], columns)
        if not fortran_order:
            rows = np.frombuffer(f.read(d * int(np.prod(shape[1:])) * step), dtype)
            return rows.reshape(d, *shape[1:])[..., :columns]
        # the last axis varies slowest, so its first entries are the first columns
        width = int(np.prod(kept))
        cols = [np.frombuffer(f.read(shape[0] * step)[: d * step], dtype) for _ in range(width)]
        return np.array(cols).T.reshape((d, *kept), order="F")


@functools.lru_cache(maxsize=8)
def _direction_numbers(d: int) -> np.ndarray:
    """Joe-Kuo Sobol direction numbers of the first d dimensions, (d, 30), read-only.

    The primitive polynomials and initial numbers are the first d rows of
    scipy's own table, streamed from the installed package without importing
    scipy.stats, the initial numbers only as far as the polynomials' degree
    needs; column j holds the j-th direction number scaled to 30 bits.
    """
    pkg = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with zipfile.ZipFile(Path(pkg) / "stats" / "_sobol_direction_numbers.npz") as table:
        poly = _leading_rows(table, "poly.npy", d)
        # a degree-m polynomial takes m initial numbers: the first columns only
        degree = max((int(p).bit_length() - 1 for p in poly), default=0)
        vinit = _leading_rows(table, "vinit.npy", d, degree)
    v = [[1] * SOBOL_BITS]
    for j in range(1, d):
        p = int(poly[j])
        m = p.bit_length() - 1
        row = [int(c) for c in vinit[j, :m]]
        for b in range(m, SOBOL_BITS):
            new = row[b - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[b - k - 1] << (k + 1)
            row.append(new)
        v.append(row)
    sv = np.array(v, dtype=np.uint32) << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    sv.flags.writeable = False
    return sv


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each uint32, by folding the halves together."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint32(shift))
    return x & np.uint32(1)


def _sobol(d: int, seed: int, n: int) -> Iterator[np.ndarray]:
    """The first n points of a scrambled Sobol sequence in [0, 1)^d, (m, d) chunks.

    Chunks of SOBOL_CHUNK points (the last one shorter), stacked bitwise equal to scipy's
    ``qmc.Sobol(d, scramble=True, seed=seed).random(n)``: linear matrix
    scrambling plus a digital shift (Matousek 1998), drawn from
    ``default_rng(seed)`` in scipy's order, and points in Gray-code order.
    """
    if n > 2**SOBOL_BITS:
        raise ValueError(f"at most 2**{SOBOL_BITS} = {2**SOBOL_BITS} Sobol points, asked for {n}")
    rng = np.random.default_rng(seed)
    bit = np.arange(SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << bit)
    ltm = np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    ltm[:, bit, bit] = 1
    # row p of a matrix as a mask with column c at bit 29 - c; bit 29 - p of
    # a scrambled direction number is the parity of that row against it
    msb_first = bit[::-1]
    rows = ltm @ (np.uint32(1) << msb_first)
    bits = _parity(rows[:, :, None] & _direction_numbers(d)[:, None, :])
    sv = np.bitwise_or.reduce(bits << msb_first[:, None], axis=1)
    # Gray-code order by reflection, over one chunk: point i is the shift
    # xor-ed with the direction numbers of the set bits of i ^ (i >> 1)
    q = shift[None, :]
    for k in range(max(min(n, SOBOL_CHUNK) - 1, 0).bit_length()):
        q = np.concatenate([q, q[::-1] ^ sv[:, k]])
    # gray(a + j) = gray(a) ^ gray(j) for a chunk starting at a: its points are
    # the first chunk's xor-ed with the direction numbers of gray(a)'s bits
    for a in range(0, n, SOBOL_CHUNK):
        base = np.bitwise_xor.reduce(sv[:, (np.uint32(a ^ (a >> 1)) >> bit & 1) == 1], axis=1)
        yield (q[: min(n - a, SOBOL_CHUNK)] ^ base) * 2.0**-SOBOL_BITS


def _sample_pairs(model: KineticsModel, seed: int,
                  n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """n quasi-random (x, y) box pairs, prefix-stable in seed: per Sobol chunk, its halves scaled."""
    for u in _sobol(2 * model.arity, seed, n):
        u *= np.tile(model.box_hi, 2)  # in place, so x and y are views with the chunk's stride
        yield u[:, : model.arity], u[:, model.arity :]


def _worst(shortfall: np.ndarray) -> Optional[tuple[tuple[int, ...], float]]:
    """Index and size of the largest shortfall, the first of equal ones, or
    None when none exceeds HYPOTHESIS_SLACK.  A non-finite shortfall (an
    overflowed rate, inf - inf in a sum) is the worst violation there is: inf."""
    size = np.where(np.isfinite(shortfall), shortfall, np.inf)
    at = np.unravel_index(np.argmax(size), size.shape)
    if size[at] <= HYPOTHESIS_SLACK:
        return None
    return tuple(int(i) for i in at), float(size[at])


# Rates that overflow are judged (H1, a non-finite lambda), not warned about.
@np.errstate(all="ignore")
def verify_hypotheses(
    model: KineticsModel,
    params: Sequence[SpeciesParams],
    seed: int = 0,
) -> HypothesisReport:
    """Sample the rate law against H1, H2 and H3; violations are data.

    The H3 sweep includes the pairs (x, 0), which covers the derived
    inequality -sum_i delta_i (beta/gamma) r_i(x) x_i >= 0 as a special
    case.  Deterministic for a fixed seed.
    """
    if len(params) != model.arity:
        raise ValueError(
            f"model arity {model.arity} does not match {len(params)} species"
        )
    n = HYPOTHESIS_SAMPLES  # one Sobol chunk
    x, y = next(_sample_pairs(model, seed, n))

    rx = eval_rates(model, x)
    ry = eval_rates(model, y)

    # H1: finite, nonnegative channel rates everywhere in the box.
    allpts = np.concatenate([x, y])
    worst_h1 = None
    if hit := _worst(-np.concatenate([rx, ry])):
        (p, i), size = hit
        worst_h1 = Violation(species=i, magnitude=size, x=tuple(map(float, allpts[p])))

    # H2: consumed channels are silent when their own species is absent.
    # Row (j, k) of the batch is x[k] with consumed species c[j] zeroed; it
    # is evaluated SOBOL_CHUNK rows at a time: all of it at once, with its
    # rates, would take 16 len(c) n arity bytes, 655 MB at 200 species.
    c = np.array([i for i, s in enumerate(params) if s.delta == -1], dtype=np.intp)
    absent = np.empty((len(c), n))  # |rate of channel c[j]| on row (j, k)
    flat = absent.reshape(-1)
    for a in range(0, flat.size, SOBOL_CHUNK):
        j, k = np.divmod(np.arange(a, min(a + SOBOL_CHUNK, flat.size)), n)
        rows = np.arange(len(k))
        xz = x[k]
        xz[rows, c[j]] = 0.0
        flat[a : a + len(k)] = np.abs(eval_rates(model, xz)[rows, c[j]])
    worst_h2 = None
    if c.size and (hit := _worst(absent)):
        (j, k), size = hit
        xz = x[k].copy()
        xz[c[j]] = 0.0
        worst_h2 = Violation(species=int(c[j]), magnitude=size, x=tuple(map(float, xz)))

    # H3: weighted monotonicity over sampled pairs, plus the (x, 0) pairs.
    weights = np.array([s.delta * s.beta_f / s.gamma_s for s in params])
    zeros = np.zeros_like(x)
    xs = np.concatenate([x, x])
    ys = np.concatenate([y, zeros])
    rxs = np.concatenate([rx, rx])
    rys = np.concatenate([ry, eval_rates(model, zeros)])
    s_val = -np.sum(weights * (rxs - rys) * (xs - ys), axis=1)
    worst_h3 = None
    if hit := _worst(-s_val):
        (k,), size = hit
        # species -1: the inequality couples all channels
        worst_h3 = Violation(
            species=-1, magnitude=size, x=tuple(map(float, xs[k])), y=tuple(map(float, ys[k]))
        )

    return HypothesisReport(
        h1_pass=worst_h1 is None,
        h2_pass=worst_h2 is None,
        h3_pass=worst_h3 is None,
        worst_h1=worst_h1,
        worst_h2=worst_h2,
        worst_h3=worst_h3,
        samples_used=2 * n,
    )


@np.errstate(all="ignore")
def estimate_lipschitz(
    model: KineticsModel, seed: int = 0, samples: int = 16384
) -> tuple[np.ndarray, float]:
    """Sampled per-channel Lipschitz constants k_i and lambda = max_i k_i.

    Difference quotients |r_i(x) - r_i(y)| / sum_h |x_h - y_h| are maximized
    over quasi-random box pairs plus short axis-aligned probes (which chase
    the partial derivatives directly), then inflated by a safety factor.
    The estimate is a running maximum over a seed-determined stream, folded
    one Sobol chunk at a time (its memory is one chunk's at any sample
    count), so for a fixed seed more samples never decrease it.

    Every sampled point lies in [0, box_hi] by construction, so the rate
    law sees the points as they are, without eval_rates' checks and clamp
    (which would leave them bitwise unchanged).
    """
    hi = model.box_hi
    n = max(int(samples), 1024)

    best = np.zeros(model.arity)

    def absorb(rx: np.ndarray, b: np.ndarray, denom: np.ndarray) -> None:
        """Fold in the quotients of the pairs (x, b), rates rx at x, at l1 distances denom."""
        q = np.subtract(rx, np.asarray(model.rate(b), dtype=float).T, order="C")
        np.abs(q, out=q)
        ok = denom > 0.0
        if ok.all():
            q /= denom
        elif ok.any():
            q = q[:, ok] / denom[ok]
        else:
            return
        np.maximum(best, q.max(axis=1), out=best)

    for x, y in _sample_pairs(model, seed, n):
        # every pair below starts at x; the quotients are laid out channel by
        # channel, so each channel's max runs over contiguous memory
        rx = np.ascontiguousarray(np.asarray(model.rate(x), dtype=float).T)
        # the l1 distance added column by column: below 8 columns this is
        # np.sum's order, bitwise; from 8 on numpy sums pairwise, so k may
        # move in its last bits there against an np.sum form
        dist = np.zeros(len(x))
        for j in range(model.arity):
            dist += np.abs(x[:, j] - y[:, j])
        absorb(rx, y, dist)
        # Axis probes from the same stream keep the running-max prefix property.
        for j in range(model.arity):
            xp = x.copy()
            xp[:, j] = np.minimum(x[:, j] + 1e-3 * hi[j], hi[j])
            # the other coordinates cancel exactly: the l1 distance is this one's
            absorb(rx, xp, np.abs(x[:, j] - xp[:, j]))

    k = LIPSCHITZ_SAFETY * best
    lam = float(k.max()) if k.size else 0.0
    return k, lam
