"""Pluggable surface reaction rates plus samplers for the rate-law hypotheses.

A kinetics model maps the N wall states at a point to N nonnegative channel
rates; the solver applies the per-species sign delta_i itself.  Rates only
ever see clipped states (negative parts dropped) clamped into a bounded box,
which is what makes a global Lipschitz constant exist for smooth laws.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .model import SpeciesParams

HYPOTHESIS_SLACK = 1e-12
LIPSCHITZ_SAFETY = 1.25
SOBOL_BITS = 30


@dataclass(frozen=True)
class KineticsModel:
    """Bundle of a vectorized rate function and its evaluation box.

    rate receives an array of shape (..., arity) of clipped, clamped states
    and returns channel rates of the same shape.  domain_box is a pair of
    arrays (lo, hi); inputs are clamped into it before evaluation.
    lipschitz_hint optionally carries exact per-channel constants.
    """

    name: str
    arity: int
    rate: Callable[[np.ndarray], np.ndarray]
    domain_box: tuple[np.ndarray, np.ndarray]
    lipschitz_hint: Optional[np.ndarray] = None

    def clamp(self, state: np.ndarray) -> np.ndarray:
        lo, hi = self.domain_box
        return np.clip(np.maximum(state, 0.0), lo, hi)


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
# built-in rate laws


def zero_model(arity: int, box_hi: Optional[Sequence[float]] = None) -> KineticsModel:
    """No surface reaction at all."""
    hi = np.ones(arity) if box_hi is None else np.asarray(box_hi, dtype=float)

    def rate(x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    return KineticsModel(
        name="zero",
        arity=arity,
        rate=rate,
        domain_box=(np.zeros(arity), hi),
        lipschitz_hint=np.zeros(arity),
    )


def linear_consumption(
    arity: int, k: float = 1.0, box_hi: Optional[Sequence[float]] = None
) -> KineticsModel:
    """r_i(x) = k x_i+, intended for all-consumed channels (delta_i = -1)."""
    hi = np.ones(arity) if box_hi is None else np.asarray(box_hi, dtype=float)

    def rate(x: np.ndarray) -> np.ndarray:
        return k * x

    return KineticsModel(
        name="linear_consumption",
        arity=arity,
        rate=rate,
        domain_box=(np.zeros(arity), hi),
        lipschitz_hint=np.full(arity, float(k)),
    )


def co_oxidation(
    prefactor: float,
    activation_temp: float,
    heat_release: float,
    box_hi: Optional[Sequence[float]] = None,
) -> KineticsModel:
    """Surrogate CO + O2 -> CO2 surface law over channels (CO, O2, CO2, T).

    Mass action in CO and O2 scaled by an Arrhenius factor exp(-E/T):

        rho = prefactor * CO+ * O2+ * exp(-activation_temp / T+)

    feeding the channels (CO: rho, O2: rho, CO2: rho, T: heat_release * rho)
    with signs (-1, -1, +1, +1) supplied by the species table.  The rate
    constants are surrogate choices; only the monotone trends they produce
    are meaningful.
    """
    hi = (
        np.array([0.05, 0.1, 0.05, 600.0])
        if box_hi is None
        else np.asarray(box_hi, dtype=float)
    )

    def rate(x: np.ndarray) -> np.ndarray:
        co, o2, t = x[..., 0], x[..., 1], x[..., 3]
        with np.errstate(divide="ignore"):
            arrh = np.where(t > 0.0, np.exp(-activation_temp / np.maximum(t, 1e-300)), 0.0)
        rho = prefactor * co * o2 * arrh
        out = np.empty_like(x)
        out[..., 0] = rho
        out[..., 1] = rho
        out[..., 2] = rho
        out[..., 3] = heat_release * rho
        return out

    return KineticsModel(
        name="co_oxidation",
        arity=4,
        rate=rate,
        domain_box=(np.zeros(4), hi),
    )


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


@functools.lru_cache(maxsize=8)
def _direction_numbers(d: int) -> np.ndarray:
    """Joe-Kuo Sobol direction numbers of the first d dimensions, (d, 30), read-only.

    The primitive polynomials and initial numbers are scipy's own table, read
    from the installed package without importing scipy.stats; column j
    holds the j-th direction number scaled to 30 bits.
    """
    pkg = importlib.util.find_spec("scipy").submodule_search_locations[0]
    with np.load(Path(pkg) / "stats" / "_sobol_direction_numbers.npz") as table:
        poly, vinit = table["poly"], table["vinit"]
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


def _sobol(d: int, seed: int, n: int) -> np.ndarray:
    """The first n points of a scrambled Sobol sequence in [0, 1)^d, shape (n, d).

    Bitwise equal to scipy's ``qmc.Sobol(d, scramble=True, seed=seed).random(n)``:
    linear matrix scrambling plus a digital shift (Matousek 1998), drawn from
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
    # Gray-code order by reflection: point i is the shift xor-ed with the
    # direction numbers of the set bits of i ^ (i >> 1)
    q = shift[None, :]
    for k in range(max(n - 1, 0).bit_length()):
        q = np.concatenate([q, q[::-1] ^ sv[:, k]])
    return q[:n] * 2.0**-SOBOL_BITS


def _sample_pairs(model: KineticsModel, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n quasi-random (x, y) pairs in the model box, prefix-stable in seed."""
    lo, hi = model.domain_box
    u = _sobol(2 * model.arity, seed, n)
    x = lo + u[:, : model.arity] * (hi - lo)
    y = lo + u[:, model.arity :] * (hi - lo)
    return x, y


# Rates that overflow are judged (H1, a non-finite lambda), not warned about.
@np.errstate(all="ignore")
def verify_hypotheses(
    model: KineticsModel,
    params: Sequence[SpeciesParams],
    seed: int = 0,
    samples: int = 1024,
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
    n = max(int(samples), 1024)  # a pass on fewer than 1000 points means little
    x, y = _sample_pairs(model, seed, n)

    rx = eval_rates(model, x)
    ry = eval_rates(model, y)

    # H1: finite, nonnegative channel rates everywhere in the box; a
    # non-finite rate is the worst violation there is.
    allpts = np.concatenate([x, y])
    allrates = np.concatenate([rx, ry])
    worst_h1 = None
    shortfall = np.where(np.isfinite(allrates), -allrates, np.inf)
    flat = np.unravel_index(np.argmax(shortfall), shortfall.shape)
    if shortfall[flat] > HYPOTHESIS_SLACK:
        worst_h1 = Violation(
            species=int(flat[1]),
            magnitude=float(shortfall[flat]),
            x=tuple(float(v) for v in allpts[flat[0]]),
        )

    # H2: consumed channels are silent when their own species is absent.
    worst_h2 = None
    consumed = [i for i, s in enumerate(params) if s.delta == -1]
    for i in consumed:
        xz = x.copy()
        xz[:, i] = 0.0
        ri = eval_rates(model, xz)[:, i]
        size = np.where(np.isfinite(ri), np.abs(ri), np.inf)
        k = int(np.argmax(size))
        if size[k] > HYPOTHESIS_SLACK:
            if worst_h2 is None or size[k] > worst_h2.magnitude:
                worst_h2 = Violation(
                    species=i,
                    magnitude=float(size[k]),
                    x=tuple(float(v) for v in xz[k]),
                )

    # H3: weighted monotonicity over sampled pairs, plus the (x, 0) pairs.
    weights = np.array([s.delta * s.beta_f / s.gamma_s for s in params])
    zeros = np.zeros_like(x)
    xs = np.concatenate([x, x])
    ys = np.concatenate([y, zeros])
    rxs = np.concatenate([rx, rx])
    rys = np.concatenate([ry, eval_rates(model, zeros)])
    s_val = -np.sum(weights * (rxs - rys) * (xs - ys), axis=1)
    # a non-finite sum (inf - inf is nan) is the worst violation, as for H1
    shortfall = np.where(np.isfinite(s_val), -s_val, np.inf)
    worst_h3 = None
    k = int(np.argmax(shortfall))
    if shortfall[k] > HYPOTHESIS_SLACK:
        worst_h3 = Violation(
            species=-1,  # the inequality couples all channels
            magnitude=float(shortfall[k]),
            x=tuple(float(v) for v in xs[k]),
            y=tuple(float(v) for v in ys[k]),
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
    The estimate is a running maximum over a seed-determined stream, so for
    a fixed seed more samples never decrease it.
    """
    n = max(int(samples), 1024)
    lo, hi = model.domain_box
    span = hi - lo
    x, y = _sample_pairs(model, seed, n)

    best = np.zeros(model.arity)

    def absorb(a: np.ndarray, b: np.ndarray) -> None:
        ra = eval_rates(model, a)
        rb = eval_rates(model, b)
        denom = np.sum(np.abs(a - b), axis=1)
        ok = denom > 0.0
        if not ok.any():
            return
        q = np.abs(ra[ok] - rb[ok]) / denom[ok, None]
        np.maximum(best, q.max(axis=0), out=best)

    absorb(x, y)
    # Axis probes from the same stream keep the running-max prefix property.
    for j in range(model.arity):
        h = 1e-3 * span[j]
        if h == 0.0:
            continue
        xp = x.copy()
        xp[:, j] = np.minimum(x[:, j] + h, hi[j])
        absorb(x, xp)

    k = LIPSCHITZ_SAFETY * best
    lam = float(k.max()) if k.size else 0.0
    return k, lam
