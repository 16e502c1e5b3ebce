import dataclasses
import warnings

import numpy as np
import pytest

from graetzcat.kinetics import (
    SOBOL_BITS,
    KineticsModel,
    _direction_numbers,
    _sobol,
    co_oxidation,
    estimate_lipschitz,
    eval_rates,
    linear_consumption,
    verify_hypotheses,
    zero_model,
)
from graetzcat.model import SpeciesParams


def consuming(n):
    return tuple(SpeciesParams(f"s{i}", 1.0, 1.0, 1.0, -1) for i in range(n))


CO_OX_PARAMS = (
    SpeciesParams("CO", 1.0, 1.0, 1.0, -1),
    SpeciesParams("O2", 1.0, 1.0, 1.0, -1),
    SpeciesParams("CO2", 1.0, 1.0, 1.0, 1),
    SpeciesParams("T", 1.0, 1.0, 1.0, 1),
)


class TestEvalRates:
    def test_zero_model(self):
        m = zero_model(3)
        assert np.all(eval_rates(m, np.array([0.1, -0.5, 2.0])) == 0.0)

    def test_mass_action_example(self):
        m = co_oxidation(prefactor=1.0, activation_temp=0.0, heat_release=7.0)
        r = eval_rates(m, np.array([0.02, 0.05, 0.0, 500.0]))
        assert r[0] == pytest.approx(0.001, abs=1e-15)
        assert r[1] == pytest.approx(0.001, abs=1e-15)
        assert r[2] == pytest.approx(0.001, abs=1e-15)
        assert r[3] == pytest.approx(0.007, abs=1e-15)

    def test_absent_reactant_silences_consumers(self):
        m = co_oxidation(prefactor=400.0, activation_temp=3000.0, heat_release=150.0)
        r = eval_rates(m, np.array([0.0, 0.05, 0.01, 500.0]))
        assert np.all(r == 0.0)

    def test_clipping_idempotence(self):
        m = co_oxidation(prefactor=2.0, activation_temp=100.0, heat_release=1.0)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, (200, 4)) * np.array([0.1, 0.1, 0.1, 600.0])
        assert np.array_equal(eval_rates(m, x), eval_rates(m, np.maximum(x, 0.0)))

    def test_non_finite_input_names_the_species(self):
        m = zero_model(3)
        with pytest.raises(ValueError, match="species index 1"):
            eval_rates(m, np.array([0.0, np.nan, 1.0]))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_rates(zero_model(3), np.zeros(4))


class TestSobol:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 40])
    def test_bitwise_equal_to_scipy(self, d):
        from scipy.stats import qmc  # the reference; the package never imports it
        for seed in (0, 1, 7, 12345):
            for n in (0, 1, 2, 5, 1000, 1024, 1025, 4096):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # n not a power of two
                    ref = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                got = _sobol(d, seed, n)
                assert got.dtype == ref.dtype and got.shape == ref.shape, (seed, n)
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (seed, n)

    def test_prefix_stable(self):
        long = _sobol(8, 3, 16384)
        for n in (1, 2, 3, 1000, 1024, 5000):
            assert np.array_equal(_sobol(8, 3, n), long[:n]), n

    def test_points_lie_in_the_unit_cube_on_the_30_bit_lattice(self):
        u = _sobol(4, 0, 4096)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(u * 2.0**SOBOL_BITS, np.floor(u * 2.0**SOBOL_BITS))
        # a scrambled digital net: each of the 2^12 boxes of side 2^-12 in
        # any one coordinate holds exactly one point
        for j in range(4):
            assert np.array_equal(np.sort(np.floor(u[:, j] * 4096)), np.arange(4096.0))

    def test_point_limit(self):
        with pytest.raises(ValueError, match=r"2\*\*30"):
            _sobol(2, 0, 2**SOBOL_BITS + 1)

    def test_direction_table_is_cached_read_only(self):
        table = _direction_numbers(6)
        assert table is _direction_numbers(6)
        assert table.shape == (6, SOBOL_BITS) and not table.flags.writeable


def overflowing(arity):
    """Rates that overflow to inf (and to nan, inf - inf) inside the box."""

    def rate(x):
        return np.exp(1e4 * x) * x

    return KineticsModel("overflow", arity, rate, (np.zeros(arity), np.ones(arity)))


class TestVerifyHypotheses:
    def test_zero_model_passes_everything(self):
        rep = verify_hypotheses(zero_model(2), consuming(2), seed=1)
        assert rep.all_pass
        assert rep.samples_used >= 1000

    def test_linear_consumption_passes(self):
        # H3 sum collapses to sum (x_i - y_i)^2 >= 0 when all species consume
        rep = verify_hypotheses(linear_consumption(3), consuming(3), seed=2)
        assert rep.all_pass

    def test_broken_model_flagged_with_location(self):
        def rate(x):
            out = np.zeros_like(x)
            out[..., 1] = -1.0
            return out

        bad = KineticsModel("bad", 2, rate, (np.zeros(2), np.ones(2)))
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

        m = KineticsModel("nan_h2", 2, rate, (np.zeros(2), np.ones(2)))
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
        m = KineticsModel("nan_h3", 2, rate, (np.zeros(2), np.full(2, 1e10)))
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

        m = KineticsModel("sticky", 2, rate, (np.zeros(2), np.ones(2)))
        rep = verify_hypotheses(m, consuming(2), seed=4)
        assert not rep.h2_pass
        assert rep.worst_h2.species == 0

    def test_h3_violation_detected_for_antidissipative_law(self):
        def rate(x):  # produced species whose rate grows with other species
            out = np.zeros_like(x)
            out[..., 1] = x[..., 0]
            return out

        params = (
            SpeciesParams("a", 1.0, 1.0, 1.0, -1),
            SpeciesParams("b", 1.0, 1.0, 1.0, 1),
        )
        rep = verify_hypotheses(KineticsModel("p", 2, rate, (np.zeros(2), np.ones(2))), params, seed=5)
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
        a = verify_hypotheses(linear_consumption(3), consuming(3), seed=9)
        b = verify_hypotheses(linear_consumption(3), consuming(3), seed=9)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_hypotheses(zero_model(2), consuming(3), seed=0)


class TestEstimateLipschitz:
    def test_linear_map(self):
        def rate(x):
            out = np.zeros_like(x)
            out[..., 0] = 2.0 * x[..., 0]
            return out

        m = KineticsModel("lin", 2, rate, (np.zeros(2), np.ones(2)))
        k, lam = estimate_lipschitz(m, seed=0)
        assert 2.0 <= lam <= 2.5

    def test_overflowing_rates_give_a_non_finite_lambda_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lam = estimate_lipschitz(overflowing(2), seed=0)
        assert not np.isfinite(lam)

    def test_zero_model_is_exactly_zero(self):
        _, lam = estimate_lipschitz(zero_model(4), seed=0)
        assert lam == 0.0

    def test_monotone_in_sample_count(self):
        m = co_oxidation(prefactor=400.0, activation_temp=3000.0, heat_release=150.0)
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
