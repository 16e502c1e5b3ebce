import dataclasses
import importlib.util
import math
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from graetzcat import kinetics
from graetzcat.kinetics import (
    LIPSCHITZ_SAFETY,
    SOBOL_BITS,
    SOBOL_CHUNK,
    KineticsModel,
    _direction_numbers,
    _leading_rows,
    _sample_pairs,
    _sobol,
    box_error,
    co_oxidation,
    constant_error,
    estimate_lipschitz,
    eval_rates,
    law_error,
    linear_consumption,
    verify_hypotheses,
    zero_model,
)
from graetzcat.model import SpeciesParams

from conftest import raised


# point counts on either side of the chunk and power-of-two boundaries
CHUNK_EDGES = (SOBOL_CHUNK - 1, SOBOL_CHUNK + 1, 3 * SOBOL_CHUNK + 5, 16384)

SOBOL_TABLE = (Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
               / "stats" / "_sobol_direction_numbers.npz")


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sobol_points(d, seed, n):
    """All n points of _sobol stacked, after checking that every chunk but
    the last is SOBOL_CHUNK long."""
    chunks = list(_sobol(d, seed, n))
    assert [len(c) for c in chunks[:-1]] == [SOBOL_CHUNK] * (len(chunks) - 1)
    return np.vstack([np.empty((0, d)), *chunks])


def consuming(n):
    return tuple(SpeciesParams(f"s{i}", 1.0, 1.0, 1.0, -1) for i in range(n))


# the evaluation box these tests were written against, over (CO, O2, CO2, T)
CO_OX_BOX = (0.05, 0.1, 0.05, 600.0)

CO_OX_PARAMS = (
    SpeciesParams("CO", 1.0, 1.0, 1.0, -1),
    SpeciesParams("O2", 1.0, 1.0, 1.0, -1),
    SpeciesParams("CO2", 1.0, 1.0, 1.0, 1),
    SpeciesParams("T", 1.0, 1.0, 1.0, 1),
)


class TestEvalRates:
    def test_zero_model(self):
        m = zero_model(np.ones(3))
        assert np.all(eval_rates(m, np.array([0.1, -0.5, 2.0])) == 0.0)

    def test_mass_action_example(self):
        m = co_oxidation(1.0, 0.0, 7.0, CO_OX_BOX)
        r = eval_rates(m, np.array([0.02, 0.05, 0.0, 500.0]))
        assert r[0] == pytest.approx(0.001, abs=1e-15)
        assert r[1] == pytest.approx(0.001, abs=1e-15)
        assert r[2] == pytest.approx(0.001, abs=1e-15)
        assert r[3] == pytest.approx(0.007, abs=1e-15)

    def test_absent_reactant_silences_consumers(self):
        m = co_oxidation(400.0, 3000.0, 150.0, CO_OX_BOX)
        r = eval_rates(m, np.array([0.0, 0.05, 0.01, 500.0]))
        assert np.all(r == 0.0)

    def test_clipping_idempotence(self):
        m = co_oxidation(2.0, 100.0, 1.0, CO_OX_BOX)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, (200, 4)) * np.array([0.1, 0.1, 0.1, 600.0])
        assert np.array_equal(eval_rates(m, x), eval_rates(m, np.maximum(x, 0.0)))

    def test_non_finite_input_names_the_species(self):
        m = zero_model(np.ones(3))
        with pytest.raises(ValueError, match="species index 1"):
            eval_rates(m, np.array([0.0, np.nan, 1.0]))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_rates(zero_model(np.ones(3)), np.zeros(4))


class TestSobol:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 40])
    def test_bitwise_equal_to_scipy(self, d):
        from scipy.stats import qmc  # the reference; the package never imports it
        for seed in (0, 1, 7, 12345):
            for n in (0, 1, 2, 5, 1000, 1024, 1025, 4096, *CHUNK_EDGES):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # n not a power of two
                    ref = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                got = sobol_points(d, seed, n)
                assert got.dtype == ref.dtype and got.shape == ref.shape, (seed, n)
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (seed, n)

    def test_prefix_stable(self):
        long = sobol_points(8, 3, 16384)
        for n in (1, 2, 3, 1000, 1024, 5000, *CHUNK_EDGES):
            assert np.array_equal(sobol_points(8, 3, n), long[:n]), n

    def test_points_lie_in_the_unit_cube_on_the_30_bit_lattice(self):
        u = sobol_points(4, 0, 4096)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(u * 2.0**SOBOL_BITS, np.floor(u * 2.0**SOBOL_BITS))
        # a scrambled digital net: each of the 2^12 boxes of side 2^-12 in
        # any one coordinate holds exactly one point
        for j in range(4):
            assert np.array_equal(np.sort(np.floor(u[:, j] * 4096)), np.arange(4096.0))

    def test_point_limit(self):
        with pytest.raises(ValueError, match=r"2\*\*30"):
            next(_sobol(2, 0, 2**SOBOL_BITS + 1))

    def test_direction_table_is_cached_read_only(self, monkeypatch):
        with np.load(SOBOL_TABLE) as full:
            whole = {name + ".npy": full[name] for name in ("poly", "vinit")}
        for d in (1, 8, 40):
            table = _direction_numbers(d)
            assert table is _direction_numbers(d)
            assert table.shape == (d, SOBOL_BITS) and not table.flags.writeable
            # the streamed rows are the first d of the whole table, and so is
            # the table built from them
            with zipfile.ZipFile(SOBOL_TABLE) as npz:
                for member, rows in whole.items():
                    assert np.array_equal(_leading_rows(npz, member, d), rows[:d]), (member, d)
                for c in (1, 5, 18, 40):
                    cut = _leading_rows(npz, "vinit.npy", d, c)
                    assert np.array_equal(cut, whole["vinit.npy"][:d, :c]), (d, c)
            # the table built from whole rows, every column of them, is the same
            with monkeypatch.context() as patched:
                patched.setattr(
                    kinetics, "_leading_rows", lambda _, member, d, columns=None: whole[member][:d]
                )
                assert np.array_equal(table, _direction_numbers.__wrapped__(d)), d

    def test_leading_rows_follow_the_stored_order(self, tmp_path):
        a = np.arange(5 * 3 * 2, dtype=np.int64).reshape(5, 3, 2)
        np.savez_compressed(tmp_path / "t.npz", c=a, f=np.asfortranarray(a), v=a[:, 0, 0])
        with zipfile.ZipFile(tmp_path / "t.npz") as npz:
            for d in (0, 1, 4, 5):
                assert np.array_equal(_leading_rows(npz, "c.npy", d), a[:d]), d
                assert np.array_equal(_leading_rows(npz, "f.npy", d), a[:d]), d
                assert np.array_equal(_leading_rows(npz, "v.npy", d), a[:d, 0, 0]), d
                for c in (1, 2, 3):  # the first entries of the last axis
                    assert np.array_equal(_leading_rows(npz, "c.npy", d, c), a[:d, :, :c]), (d, c)
                    assert np.array_equal(_leading_rows(npz, "f.npy", d, c), a[:d, :, :c]), (d, c)

    def test_direction_table_read_stops_at_its_columns(self, monkeypatch):
        # 8 dimensions take polynomials of degree <= 5: 5 of the 18 initial
        # number columns, 0.85 of the 3.05 MB the whole member inflates to
        read = {}

        class Counted(zipfile.ZipFile):
            def open(self, name, *args, **kwargs):
                f = super().open(name, *args, **kwargs)
                real = f.read

                def counted(n=-1):
                    data = real(n)
                    read[name] = read.get(name, 0) + len(data)
                    return data

                f.read = counted
                return f

        with np.load(SOBOL_TABLE) as full:
            rows = len(full["vinit"])
        monkeypatch.setattr(kinetics.zipfile, "ZipFile", Counted)
        _direction_numbers.__wrapped__(8)
        assert 5 * rows * 8 <= read["vinit.npy"] < 5 * rows * 8 + 1024, read

    def test_direction_table_read_keeps_only_its_rows(self):
        # the whole table inflates to 3.2 MB; 8 rows of it are 1.2 kB
        peak = traced_peak(_direction_numbers.__wrapped__, 8)
        assert peak < 1e6, peak


def overflowing(arity):
    """Rates that overflow to inf (and to nan, inf - inf) inside the box."""

    def rate(x):
        return np.exp(1e4 * x) * x

    return KineticsModel(rate, np.ones(arity))


class TestVerifyHypotheses:
    def test_zero_model_passes_everything(self):
        rep = verify_hypotheses(zero_model(np.ones(2)), consuming(2), seed=1)
        assert rep.all_pass
        assert rep.samples_used >= 1000

    def test_linear_consumption_passes(self):
        # H3 sum collapses to sum (x_i - y_i)^2 >= 0 when all species consume
        rep = verify_hypotheses(linear_consumption(1.0, np.ones(3)), consuming(3), seed=2)
        assert rep.all_pass

    def test_broken_model_flagged_with_location(self):
        def rate(x):
            out = np.zeros_like(x)
            out[..., 1] = -1.0
            return out

        bad = KineticsModel(rate, np.ones(2))
        rep = verify_hypotheses(bad, consuming(2), seed=3)
        assert not rep.h1_pass
        assert rep.worst_h1.species == 1
        assert rep.worst_h1.magnitude == pytest.approx(1.0)

    def test_non_finite_rate_is_the_worst_h1_violation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_hypotheses(overflowing(2), consuming(2), seed=0)
        assert not rep.h1_pass and not rep.all_pass
        assert rep.worst_h1.magnitude == np.inf
        with np.errstate(over="ignore"):
            worst = eval_rates(overflowing(2), np.array(rep.worst_h1.x))
        assert not np.isfinite(worst[rep.worst_h1.species])

    def test_non_finite_h2_rate_is_a_violation(self):
        def rate(x):  # 0 * inf = nan with the consumed species absent
            out = np.zeros_like(x)
            out[..., 0] = x[..., 0] * np.exp(1e4 * x[..., 1])
            return out

        m = KineticsModel(rate, np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_hypotheses(m, consuming(2), seed=0)
        assert not rep.h2_pass
        assert rep.worst_h2.species == 0 and rep.worst_h2.magnitude == np.inf
        assert rep.worst_h2.x[0] == 0.0

    def test_non_finite_h3_sum_is_a_violation(self):
        # finite, nonnegative rates whose H3 terms overflow to +inf and -inf:
        # the sum is nan, which must not read as a pass
        def rate(x):
            return 1e290 * x

        params = (
            SpeciesParams("a", 1.0, 1.0, 1.0, -1),
            SpeciesParams("b", 1.0, 1.0, 1.0, 1),
        )
        m = KineticsModel(rate, np.full(2, 1e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_hypotheses(m, params, seed=0)
        assert rep.h1_pass and rep.h2_pass
        assert not rep.h3_pass and rep.worst_h3.magnitude == np.inf

    def test_h2_violation_detected(self):
        # a consumer that keeps reacting with its own species absent
        def rate(x):
            out = np.zeros_like(x)
            out[..., 0] = x[..., 1]
            return out

        m = KineticsModel(rate, np.ones(2))
        rep = verify_hypotheses(m, consuming(2), seed=4)
        assert not rep.h2_pass
        assert rep.worst_h2.species == 0

    # a produced species first, so a consumed species' index is not its batch row
    PRODUCED_THEN_TWO_CONSUMED = tuple(
        SpeciesParams(n, 1.0, 1.0, 1.0, d) for n, d in (("p", 1), ("a", -1), ("b", -1))
    )

    def test_h2_worst_is_the_species_that_breaks_it_most(self):
        def rate(x):  # both consumers react on p alone, b twice as hard
            out = np.zeros_like(x)
            out[..., 1] = x[..., 0]
            out[..., 2] = 2.0 * x[..., 0]
            return out

        rep = verify_hypotheses(KineticsModel(rate, np.ones(3)), self.PRODUCED_THEN_TWO_CONSUMED)
        assert not rep.h2_pass
        w = rep.worst_h2
        assert w.species == 2 and w.x[2] == 0.0 and w.x[1] > 0.0
        assert w.magnitude == 2.0 * w.x[0]

    def test_h2_tie_goes_to_the_first_consumed_species(self):
        def rate(x):
            out = np.zeros_like(x)
            out[..., 1] = x[..., 0]
            out[..., 2] = x[..., 0]
            return out

        rep = verify_hypotheses(KineticsModel(rate, np.ones(3)), self.PRODUCED_THEN_TWO_CONSUMED)
        w = rep.worst_h2
        assert w.species == 1 and w.x[1] == 0.0 and w.x[2] > 0.0
        assert w.magnitude == w.x[0]

    def test_h2_batch_is_evaluated_a_chunk_at_a_time(self):
        # all 64 x 1024 states of the batch at once, with their rates, take
        # 67 MB; a chunk of them takes 4 MB, the whole call about 13 MB
        ns = 64
        peak = traced_peak(verify_hypotheses, linear_consumption(1.0, np.ones(ns)), consuming(ns))
        assert peak < 20e6, peak

    def test_h2_passes_with_no_consumed_species(self):
        # every channel reacts with nothing present: H2 asks nothing of produced ones
        law = KineticsModel(np.ones_like, np.ones(2))
        params = tuple(SpeciesParams(n, 1.0, 1.0, 1.0, 1) for n in ("p", "q"))
        rep = verify_hypotheses(law, params)
        assert rep.h2_pass and rep.worst_h2 is None

    def test_h3_violation_detected_for_antidissipative_law(self):
        def rate(x):  # produced species whose rate grows with other species
            out = np.zeros_like(x)
            out[..., 1] = x[..., 0]
            return out

        params = (
            SpeciesParams("a", 1.0, 1.0, 1.0, -1),
            SpeciesParams("b", 1.0, 1.0, 1.0, 1),
        )
        rep = verify_hypotheses(KineticsModel(rate, np.ones(2)), params, seed=5)
        assert not rep.h3_pass

    def test_shipped_surrogate_h1_h2(self, scenario):
        cfg, _ = scenario
        rep = verify_hypotheses(cfg.kinetics, cfg.species, seed=0)
        assert rep.h1_pass
        assert rep.h2_pass
        # Active production is irreconcilable with the monotonicity
        # hypothesis: any channel with delta = +1 whose rate moves with the
        # state admits pairs driving the weighted sum negative.  The sampler
        # must find and report this rather than hide it.
        assert not rep.h3_pass
        assert rep.worst_h3.magnitude > 1e-6

    def test_determinism(self):
        a = verify_hypotheses(linear_consumption(1.0, np.ones(3)), consuming(3), seed=9)
        b = verify_hypotheses(linear_consumption(1.0, np.ones(3)), consuming(3), seed=9)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_hypotheses(zero_model(np.ones(2)), consuming(3), seed=0)


def neighbour_law(arity):
    """r_i(x) = x_i x_(i-1) on a box of channels of unequal widths."""
    return KineticsModel(lambda x: x * np.roll(x, 1, axis=-1), np.linspace(0.5, 2.5, arity))


def whole_array_k(model, seed, samples):
    """estimate_lipschitz's k from all pairs at once: the rates at x are
    evaluated anew for every pair, and the l1 distances are summed column
    by column, the estimate's order."""
    x, y = (np.concatenate(half) for half in zip(*_sample_pairs(model, seed, samples)))
    hi = model.box_hi
    best = np.zeros(model.arity)
    probes = [y]
    for j in range(model.arity):
        xp = x.copy()
        xp[:, j] = np.minimum(x[:, j] + 1e-3 * hi[j], hi[j])
        probes.append(xp)
    for b in probes:
        denom = sum(np.abs(x - b).T)
        ok = denom > 0.0
        q = np.abs(eval_rates(model, x)[ok] - eval_rates(model, b)[ok]) / denom[ok, None]
        np.maximum(best, q.max(axis=0), out=best)
    return LIPSCHITZ_SAFETY * best


class TestEstimateLipschitz:
    def test_linear_map(self):
        def rate(x):
            out = np.zeros_like(x)
            out[..., 0] = 2.0 * x[..., 0]
            return out

        m = KineticsModel(rate, np.ones(2))
        k, lam = estimate_lipschitz(m, seed=0)
        assert 2.0 <= lam <= 2.5

    def test_overflowing_rates_give_a_non_finite_lambda_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lam = estimate_lipschitz(overflowing(2), seed=0)
        assert not np.isfinite(lam)

    def test_zero_model_is_exactly_zero(self):
        # with no species at all, k is empty
        for arity in (4, 0):
            k, lam = estimate_lipschitz(zero_model(np.ones(arity)), seed=0)
            assert k.shape == (arity,) and lam == 0.0

    def test_rates_at_the_base_points_are_evaluated_once(self):
        # the shipped-like box, and a 9-channel law, whose l1 distance
        # numpy's np.sum would add pairwise
        for inner in (co_oxidation(400.0, 3000.0, 150.0, CO_OX_BOX), neighbour_law(9)):
            hi = inner.box_hi
            for seed in range(4):
                for samples in (2048, 5000, 20000):
                    calls = []

                    def counted(x):
                        calls.append(x.shape)
                        return inner.rate(x)

                    m = dataclasses.replace(inner, rate=counted)
                    k, lam = estimate_lipschitz(m, seed=seed, samples=samples)
                    # x, y and one axis probe per channel, once per Sobol chunk
                    chunks = -(-samples // SOBOL_CHUNK)
                    assert len(calls) == chunks * (1 + 1 + inner.arity)
                    if samples == 2048:
                        assert len(calls) == 1 + 1 + inner.arity
                    ref = whole_array_k(inner, seed, samples)
                    assert np.array_equal(k, ref), (hi, seed, samples)
                    assert lam == float(ref.max())

    @pytest.mark.parametrize("samples", [16384, 65536])
    def test_memory_is_one_chunks_at_any_sample_count(self, scenario, samples):
        # the shipped law; all pairs at once took 3.4 MB at 16384 samples
        # and 13.6 MB at 65536
        cfg, _ = scenario
        peak = traced_peak(estimate_lipschitz, cfg.kinetics, seed=0, samples=samples)
        assert peak < 1.5e6, peak

    def test_monotone_in_sample_count(self):
        m = co_oxidation(400.0, 3000.0, 150.0, CO_OX_BOX)
        k1, _ = estimate_lipschitz(m, seed=5, samples=16384)
        k2, _ = estimate_lipschitz(m, seed=5, samples=32768)
        assert np.all(k2 >= k1)

    def test_against_dense_lattice_sweep(self):
        # brute-force difference quotients along lattice edges
        box_hi = np.array([0.1, 0.1, 0.1, 600.0])
        m = co_oxidation(1.0, 3000.0, 1.0, box_hi=box_hi)
        n = 24
        axes = [np.linspace(0.0, h, n) for h in box_hi]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        rates = m.rate(grid)
        brute = 0.0
        for ax in range(4):
            dx = box_hi[ax] / (n - 1)
            brute = max(brute, float((np.abs(np.diff(rates, axis=ax)) / dx).max()))
        _, lam = estimate_lipschitz(m, seed=0)
        raw = lam / 1.25
        assert abs(raw - brute) / brute < 0.10


class TestLawRules:
    """One rule set for a rate law: KineticsModel holds its box to box_error,
    whoever builds it, and each builder its constants and channel count to
    law_error, with the texts the config parser reports."""

    @pytest.mark.parametrize("bound", [np.inf, np.nan])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(ValueError, match="channel 2: box upper bound .* must be finite"):
            KineticsModel(lambda x: x, [1.0, 1.0, bound, 1.0])

    @pytest.mark.parametrize("bound", [-1.0, 0.0, math.inf, math.nan])
    def test_every_builder_holds_the_box_rule(self, bound):
        # a bound of -1 used to give the rate -1 at a "clamped" state
        box = [0.05, bound, 0.05, 600.0]
        rule = box_error(bound)
        assert rule is not None
        for build in (
            lambda: KineticsModel(lambda x: x, box),
            lambda: zero_model(box),
            lambda: linear_consumption(1.0, box),
            lambda: co_oxidation(400.0, 3000.0, 150.0, box),
        ):
            assert raised(build) == f"channel 1: {rule}"

    def test_box_is_a_read_only_copy(self):
        box = np.array(CO_OX_BOX)
        m = co_oxidation(400.0, 3000.0, 150.0, box)
        box[0] = -1.0
        assert m.box_hi[0] == CO_OX_BOX[0] and not m.box_hi.flags.writeable
        with pytest.raises(ValueError):
            m.box_hi[0] = -1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_builder_holds_its_constants_finite(self, value):
        # a NaN prefactor used to give NaN rates
        for key, build in (
            ("rate", lambda: linear_consumption(value, np.ones(3))),
            ("prefactor", lambda: co_oxidation(value, 3000.0, 150.0, CO_OX_BOX)),
            ("activation_temp", lambda: co_oxidation(400.0, value, 150.0, CO_OX_BOX)),
            ("heat_release", lambda: co_oxidation(400.0, 3000.0, value, CO_OX_BOX)),
        ):
            assert raised(build) == f"{key}: {constant_error(value)}"

    @pytest.mark.parametrize("ns", [1, 3, 5])
    def test_co_oxidation_binds_exactly_four_channels(self, ns):
        # over 3 channels the law used to build, then fail at its first rate
        message = raised(lambda: co_oxidation(400.0, 3000.0, 150.0, np.ones(ns)))
        assert message == law_error("co_oxidation", ns)
        assert message.endswith(f"(CO, O2, CO2, T); got {ns}")
