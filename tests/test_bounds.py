import math

import numpy as np
import pytest

from ulln import (
    BoundParams,
    bound_classical,
    bound_extended,
    bound_theorem,
    bounds,
    effective_rank,
    ulln_ratio_table,
)
from ulln.bounds import sweep

SQRT2 = math.sqrt(2.0)


def params(**kw):
    base = dict(n=100, R=1.0, delta=0.05, trace_sigma=10.0, norm_sigma=1.0, K=SQRT2)
    base.update(kw)
    return BoundParams(**base)


class TestEffectiveRank:
    def test_identity_3000(self):
        assert effective_rank(3000.0, 1.0) == 3000.0

    def test_reciprocal_trace(self):
        assert effective_rank(8.5838, 1.0) == 8.5838

    def test_zero_norm(self):
        assert effective_rank(0.0, 0.0) == 0.0


class TestBoundTheorem:
    def test_frozen_example(self):
        report = bound_theorem(params(R=0.0, delta=0.1, trace_sigma=1.0, norm_sigma=1.0))
        # independent hand evaluation of the four closed-form terms
        L = math.log(10.0)
        c = (1.0 + math.sqrt(6.0)) ** 2
        term1 = math.sqrt(27.0 * (L + c * (1.0 / 12.0)) / 100.0)
        term3 = math.sqrt(78.0 * 2.0 * 256.0 / 100.0)
        assert report.terms["pac_bayes"] == pytest.approx(term1, rel=1e-12)
        assert report.terms["pac_bayes"] == pytest.approx(0.9431, abs=5e-5)
        assert report.terms["laplacian_gap_fluctuation"] == pytest.approx(term3, rel=1e-12)
        assert report.terms["laplacian_gap_fluctuation"] == pytest.approx(19.9840, abs=5e-5)
        assert report.terms["laplacian_gap_mean"] == 0.0
        assert report.terms["bernstein_tail"] == 0.0
        assert report.total == pytest.approx(20.9271, abs=5e-5)
        assert report.confidence == pytest.approx(0.4)

    def test_sqrt_terms_halve_when_n_quadruples(self):
        a = bound_theorem(params())
        b = bound_theorem(params(n=400))
        for key in ("pac_bayes", "laplacian_gap_mean", "laplacian_gap_fluctuation"):
            assert b.terms[key] == pytest.approx(a.terms[key] / 2.0, rel=1e-9)
        assert b.terms["bernstein_tail"] == pytest.approx(a.terms["bernstein_tail"] / 4.0, rel=1e-9)
        assert b.total < a.total

    def test_delta_above_one_sixth_raises(self):
        with pytest.raises(ValueError):
            bound_theorem(params(delta=0.2))

    def test_smoothing_time_substitution(self):
        # the closed four-term form is the t-parametric bound at t = 1/(12 log(1/delta)),
        # with the 930/12 and 30/sqrt(12) constants rounded up to 78 and 9
        prm = params(R=0.8, delta=0.02, trace_sigma=25.0, norm_sigma=2.0)
        L = prm.log_inv_delta
        t = 1.0 / (12.0 * L)
        c = (1.0 + math.sqrt(3.0) * prm.K) ** 2
        term1_t = math.sqrt(
            27.0
            * (1.0 + c * (t * prm.trace_sigma + prm.norm_sigma * prm.R**2))
            * (prm.R**2 / (2.0 * t) + L)
            / prm.n
        )
        report = bound_theorem(prm)
        assert report.terms["pac_bayes"] == pytest.approx(term1_t, rel=1e-12)
        term3_t = math.sqrt(930.0 * t * prm.K**2 * (256.0 + prm.R**2 * prm.trace_sigma) * L / prm.n)
        assert report.terms["laplacian_gap_fluctuation"] >= term3_t  # 78 >= 930/12
        assert report.terms["laplacian_gap_fluctuation"] == pytest.approx(term3_t * math.sqrt(78.0 / 77.5), rel=1e-12)

    def test_monotone_in_parameters(self):
        base = params(n=200, R=0.5, delta=0.05, trace_sigma=4.0, norm_sigma=1.0)
        total = bound_theorem(base).total
        assert bound_theorem(params(n=400, R=0.5, delta=0.05, trace_sigma=4.0, norm_sigma=1.0)).total < total
        for kw in (
            dict(R=0.9),
            dict(K=2.5),
            dict(trace_sigma=8.0),
            dict(norm_sigma=2.0),
            dict(delta=0.01),
        ):
            bigger = params(n=200, R=0.5, delta=0.05, trace_sigma=4.0, norm_sigma=1.0)
            merged = {**dict(n=200, R=0.5, delta=0.05, trace_sigma=4.0, norm_sigma=1.0), **kw}
            assert bound_theorem(params(**merged)).total >= total


class TestBoundClassical:
    def test_r_zero_hand_value(self):
        report = bound_classical(params(n=8, R=0.0, delta=math.exp(-1.0), trace_sigma=1.0, norm_sigma=1.0))
        assert report.total == pytest.approx(1.0, rel=1e-12)
        assert report.confidence == pytest.approx(1.0 - math.exp(-1.0))

    def test_frozen_terms(self):
        report = bound_classical(params(n=10_000, R=1.0, delta=0.1, trace_sigma=100.0, norm_sigma=1.0, K=1.0))
        assert report.terms["rademacher"] == pytest.approx(0.2, rel=1e-12)
        expected = math.sqrt(8.0 * 101.0 * math.log(10.0) / 10_000.0)
        assert report.terms["mcdiarmid"] == pytest.approx(expected, rel=1e-12)

    def test_delta_one_total_zero_at_r_zero(self):
        report = bound_classical(params(R=0.0, delta=1.0, trace_sigma=1.0, norm_sigma=1.0))
        assert report.total == 0.0


class TestBoundExtended:
    def test_reduces_to_classical_at_r_zero(self):
        prm = params(R=0.0, delta=0.3)
        assert bound_extended(prm).total == pytest.approx(bound_classical(prm).total, rel=1e-14)
        assert bound_extended(prm).confidence == pytest.approx(1.0 - 3 * 0.3)

    def test_delta_above_one_third_raises(self):
        # the coverage 1 - 3 delta would be negative
        with pytest.raises(ValueError, match="1/3"):
            bound_extended(params(delta=0.34))

    def test_delta_one_third_has_zero_confidence(self):
        assert bound_extended(params(delta=1.0 / 3.0)).confidence == 0.0

    def test_log_n_increment_algebra(self):
        # term2^2 * n picks up exactly 16 R^2 ||S||^2 a^2 K^4 log(1/delta) when n -> e*n
        prm1 = params(n=1000, R=1.3, delta=0.1, trace_sigma=12.0, norm_sigma=1.0, K=1.7)
        n2 = int(round(1000 * math.e))
        prm2 = params(n=n2, R=1.3, delta=0.1, trace_sigma=12.0, norm_sigma=1.0, K=1.7)
        t1 = bound_extended(prm1).terms["subgaussian_envelope"]
        t2 = bound_extended(prm2).terms["subgaussian_envelope"]
        diff = t2**2 * n2 - t1**2 * 1000
        L = math.log(10.0)
        expected = 16.0 * 1.3**2 * 1.0**2 * 1.0 * 1.7**4 * L * (math.log(n2) - math.log(1000))
        assert diff == pytest.approx(expected, rel=1e-9)

    def test_constant_a_quadratic_scaling(self):
        prm1 = params(log_n_constant_a=1.0)
        prm2 = params(log_n_constant_a=2.0)

        def inflation(prm):
            t2 = bound_extended(prm).terms["subgaussian_envelope"]
            r = prm.effective_rank
            return t2**2 * prm.n / (8.0 * prm.log_inv_delta) - 1.0 - 2.0 * prm.R**2 * prm.norm_sigma * r

        assert inflation(prm2) == pytest.approx(4.0 * inflation(prm1), rel=1e-9)


def test_default_concentration_constant_is_sqrt2():
    prm = BoundParams(n=10, R=1.0, delta=0.1, trace_sigma=2.0, norm_sigma=1.0)
    assert prm.K == SQRT2


def test_theorem_scales_like_sqrt_rank_over_n():
    # normalized totals stay bounded along r(n) = n/log n with delta = 1/n^2,
    # while the classical totals do not vanish there
    normalized = []
    classical = []
    for exp in range(3, 13):
        n = 10**exp
        prm = BoundParams(n=n, R=1.0, delta=1.0 / n**2, trace_sigma=n / math.log(n), norm_sigma=1.0)
        r = prm.effective_rank
        normalized.append(bound_theorem(prm).total * math.sqrt(n / r))
        classical.append(bound_classical(prm).total)
    assert max(normalized) < 50.0
    assert min(classical) > 1.0


class TestRatioTable:
    def test_n_over_log_n_spectrum(self):
        spectra = [(n, n / math.log(n), 1.0) for n in (10**2, 10**3, 10**4, 10**5, 10**6)]
        table = ulln_ratio_table(spectra)
        ratios = [row[2] for row in table.rows]
        assert table.r_over_n_decreasing
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        for row in table.rows:
            assert row[3] == pytest.approx(1.0, rel=1e-12)
        assert not table.r_log_n_over_n_decreasing

    def test_constant_spectrum(self):
        table = ulln_ratio_table([(n, 5.0, 1.0) for n in (10, 100, 1000, 10_000)])
        assert table.r_over_n_decreasing
        assert table.r_log_n_over_n_decreasing
        assert table.rows[-1][2] < table.rows[0][2] / 100

    def test_proportional_rank_flagged(self):
        table = ulln_ratio_table([(n, float(n), 1.0) for n in (10, 100, 1000)])
        assert all(row[2] == 1.0 for row in table.rows)
        assert not table.r_over_n_decreasing


class TestValidation:
    def test_norm_cannot_exceed_trace(self):
        with pytest.raises(ValueError):
            BoundParams(n=10, R=1.0, delta=0.1, trace_sigma=1.0, norm_sigma=2.0)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            BoundParams(n=10, R=1.0, delta=0.0, trace_sigma=1.0, norm_sigma=1.0)
        with pytest.raises(ValueError):
            BoundParams(n=10, R=1.0, delta=1.5, trace_sigma=1.0, norm_sigma=1.0)

    @pytest.mark.parametrize("key", ["R", "trace_sigma", "norm_sigma", "K", "log_n_constant_a", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, key, value):
        fields = dict(n=10, R=1.0, delta=0.1, trace_sigma=2.0, norm_sigma=1.0)
        with pytest.raises(ValueError):
            BoundParams(**dict(fields, **{key: value}))

    @pytest.mark.parametrize("bound", [bound_theorem, bound_classical, bound_extended])
    @pytest.mark.parametrize("fields", [
        dict(n=1, R=1e200), dict(n=1, K=1e200), dict(trace_sigma=1e308, norm_sigma=1e308),
    ])
    def test_overflowing_bound_raises(self, bound, fields):
        # a product overflows to inf where `**` raised OverflowError; inf is rejected
        prm = BoundParams(**(dict(n=10, R=1.0, delta=0.05, trace_sigma=1.0, norm_sigma=1.0) | fields))
        with pytest.raises(ValueError, match="not finite"):
            bound(prm)

    def test_overflowing_extended_constant_raises(self):
        prm = BoundParams(n=10, R=1.0, delta=0.05, trace_sigma=1.0, norm_sigma=1.0, log_n_constant_a=1e308)
        with pytest.raises(ValueError, match="not finite"):
            bound_extended(prm)

    def test_terms_nonnegative_and_total_additive(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            prm = params(
                n=int(rng.integers(1, 10_000)),
                R=float(rng.uniform(0, 3)),
                delta=float(rng.uniform(1e-4, 1.0 / 6.0)),
                norm_sigma=float(rng.uniform(0.1, 2.0)),
                trace_sigma=float(rng.uniform(2.0, 50.0)),
                K=float(rng.uniform(0.5, 3.0)),
            )
            for report in (bound_theorem(prm), bound_classical(prm), bound_extended(prm)):
                assert all(v >= 0 for v in report.terms.values())
                assert report.total == pytest.approx(sum(report.terms.values()), rel=1e-15)


@pytest.mark.parametrize("bound,limit", [(bound_theorem, 1.0 / 6.0), (bound_extended, 1.0 / 3.0)])
def test_delta_limit_admits_the_nearest_float_and_nothing_above(bound, limit):
    # the float nearest 1/6 (1/3) lies below it, and the next float lies above it
    bound(params(delta=limit))
    with pytest.raises(ValueError, match="requires delta in"):
        bound(params(delta=float(np.nextafter(limit, 1.0))))


class TestSweep:
    def test_checks_when_called_and_evaluates_as_read(self, monkeypatch):
        with pytest.raises(ValueError, match="trace_rule"):
            sweep(params(), "all", 10, 1000, 3, trace_rule="linear")
        with pytest.raises(ValueError, match="steps <= 1e"):
            sweep(params(), "all", 10, 1000, 10**6 + 1)
        calls = []
        real = bounds.evaluate
        monkeypatch.setattr(bounds, "evaluate", lambda *args: calls.append(args) or real(*args))
        points = sweep(params(), "classical", 10, 1000, 3, delta_rule="inverse_n_squared")
        assert calls == []
        assert [(n, delta) for n, _, delta, _ in points] == [(10, 0.01), (100, 1e-4), (1000, 1e-6)]
        assert len(calls) == 3
