"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria 1-2 share two full-scale replicated studies (100 replications
each, p=3000, n=1000), run jointly on one draw per replicate; this
module is the slow part of the test run;
everything is deterministic through fixed base seeds.
"""
import math

import numpy as np
import pytest

from ulln import (
    BoundParams,
    Dataset,
    GenerativeConfig,
    bound_classical,
    bound_theorem,
    effective_rank,
    empirical_risk,
    fit_constrained,
    generate_dataset,
    make_covariance,
    risk_gradient,
    risk_laplacian,
)
from ulln.datagen import derive_seed, sample_theta_star
from ulln.deviation import sup_deviation_grid, sup_deviation_search
from ulln.experiments import StudyConfig, run_coverage, run_studies
from ulln.theory_checks import format_report, run_suite

BASE_SEED = 20260808
SQRT2 = math.sqrt(2.0)


def announce(criterion: str, passed: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="session")
def studies():
    # one draw per replicate serves both covariance kinds
    return run_studies(StudyConfig(base_seed=BASE_SEED), threads=2)


@pytest.fixture(scope="session")
def study_reciprocal(studies):
    return studies["reciprocal"]


@pytest.fixture(scope="session")
def study_identity(studies):
    return studies["identity"]


class TestCriterion1PredictionTable:
    def test_table1_reproduction(self, study_reciprocal, study_identity):
        ok = True
        try:
            assert all(r.train_precision == 1.0 for r in study_identity.replications)
            assert study_identity.mean("test_precision") == pytest.approx(0.64489, abs=0.02)
            assert study_reciprocal.mean("train_precision") == pytest.approx(0.74707, abs=0.02)
            assert study_reciprocal.mean("test_precision") == pytest.approx(0.71256, abs=0.02)
            assert study_reciprocal.mean("abs_diff") == pytest.approx(0.03619, abs=0.01)
            assert study_identity.mean("abs_diff") == pytest.approx(0.35511, abs=0.02)
        except AssertionError:
            ok = False
            raise
        finally:
            announce("1 (prediction table, 100 replications)", ok)


class TestCriterion2SignRecoveryTable:
    def test_table2_reciprocal(self, study_reciprocal):
        ok = True
        try:
            means = study_reciprocal.means()
            assert means["sign_recovery_10"] == pytest.approx(0.930, abs=0.03)
            assert means["sign_recovery_100"] == pytest.approx(0.8125, abs=0.02)
            assert means["sign_recovery_500"] == pytest.approx(0.6989, abs=0.02)
            assert means["sign_recovery_all"] == pytest.approx(0.59644, abs=0.02)
            assert means["sign_recovery_weighted"] == pytest.approx(0.79131, abs=0.02)
            # observed head ordering holds on the study means
            heads = [means[k] for k in ("sign_recovery_10", "sign_recovery_100",
                                        "sign_recovery_500", "sign_recovery_all")]
            assert all(b <= a for a, b in zip(heads, heads[1:]))
        except AssertionError:
            ok = False
            raise
        finally:
            announce("2a (sign recovery, reciprocal spectrum)", ok)

    def test_table2_identity(self, study_identity):
        ok = True
        try:
            means = study_identity.means()
            for key in ("sign_recovery_10", "sign_recovery_100", "sign_recovery_500",
                        "sign_recovery_all", "sign_recovery_weighted"):
                assert means[key] == pytest.approx(0.645, abs=0.02)
            # uniform weights collapse the weighted score onto the plain one
            assert means["sign_recovery_weighted"] == pytest.approx(means["sign_recovery_all"], abs=1e-12)
        except AssertionError:
            ok = False
            raise
        finally:
            announce("2b (sign recovery, identity)", ok)


class TestCriterion3EffectiveRankConstants:
    def test_constants(self):
        ok = True
        try:
            cov = make_covariance("reciprocal", 3000)
            assert effective_rank(cov.trace, cov.spectral_norm) == pytest.approx(8.5838, abs=5e-4)
            harmonic = np.cumsum(1.0 / np.arange(1, 3001))
            assert harmonic[499] / harmonic[2999] == pytest.approx(0.79136, abs=5e-5)
        except AssertionError:
            ok = False
            raise
        finally:
            announce("3 (effective-rank constants)", ok)


def _scenario_params(n: int) -> BoundParams:
    # r(n) = n / log n with unit spectral norm, K = sqrt(2), R = 1, delta = 1/n^2
    return BoundParams(
        n=n, R=1.0, delta=1.0 / n**2, trace_sigma=n / math.log(n), norm_sigma=1.0, K=SQRT2,
    )


class TestCriterion4BoundAsymptotics:
    grid = [int(n) for n in np.logspace(3, 8, 26)]

    def test_theorem_total_decreases_monotonically(self):
        ok = True
        try:
            totals = [bound_theorem(_scenario_params(n)).total for n in self.grid]
            assert all(b < a for a, b in zip(totals, totals[1:]))
        except AssertionError:
            ok = False
            raise
        finally:
            announce("4a (theorem total monotone along r = n/log n)", ok)

    def test_theorem_total_below_half_by_1e8(self):
        # Stated threshold is not reachable: all four terms scale like
        # sqrt(r/n) = 1/sqrt(log n) with explicit constants around 27*7*11.9/12
        # and 78*K^2, so the total at n = 1e8 evaluates to ~6.6 and first dips
        # below 0.5 only near n ~ exp(3200).  Kept as stated; fails honestly.
        total = bound_theorem(_scenario_params(10**8)).total
        announce(f"4b (theorem total < 0.5 at n=1e8; computed {total:.4f})", total < 0.5)
        assert total < 0.5

    def test_classical_total_stays_above_one(self):
        ok = True
        try:
            for n in self.grid + [10**9, 10**10, 10**12]:
                assert bound_classical(_scenario_params(n)).total > 1.0
        except AssertionError:
            ok = False
            raise
        finally:
            announce("4c (classical total stays above 1 for n >= 1e3)", ok)


class TestCriterion5Coverage:
    def test_deviation_estimates_within_theorem_bound(self):
        ok = True
        try:
            replicates = 200
            # the replicate of `ulln deviation`: each derives its own streams, so the pool returns
            # the serial loop's sups
            total, _, rows = run_coverage(p=5, n=500, cov_kind="reciprocal", beta=1e3, R=1.0, delta=0.05,
                                          replicates=replicates, starts=6, budget=4000, base_seed=BASE_SEED)
            frequency = sum(sup <= total for sup, _ in rows) / replicates
            print(f"\ncoverage: {frequency:.3f} (bound total {total:.3f})")
            assert frequency >= 0.95
        except AssertionError:
            ok = False
            raise
        finally:
            announce("5 (coverage of the theorem bound, 200 replicates)", ok)


class TestCriterion6TheoryChecks:
    def test_all_checks_pass(self):
        reports = run_suite("all")
        failed = [r for r in reports if not r.passed]
        for r in failed:
            print(format_report(r))
        announce(f"6 (identity-check suite, {len(reports)} checks)", not failed)
        assert not failed


def _grid_min_risk_1d(data, radius, resolution=20001):
    thetas = np.linspace(-radius, radius, resolution)[None, :]
    scores = data.inputs @ thetas
    y = data.labels[:, None]
    losses = y * (np.maximum(-scores, 0) + np.log1p(np.exp(-np.abs(scores)))) + (1 - y) * (
        np.maximum(scores, 0) + np.log1p(np.exp(-np.abs(scores)))
    )
    return float(losses.mean(axis=0).min())


def _grid_min_risk_2d(data, radius):
    center, half = np.zeros(2), radius
    best = np.inf
    for _ in range(3):  # coarse-to-fine refinement keeps the oracle tight
        axis = np.linspace(-half, half, 201)
        g1, g2 = np.meshgrid(center[0] + axis, center[1] + axis, indexing="ij")
        thetas = np.stack([g1.ravel(), g2.ravel()], axis=1)
        feasible = np.einsum("ij,ij->i", thetas, thetas) <= radius**2
        thetas = thetas[feasible]
        scores = data.inputs @ thetas.T
        y = data.labels[:, None]
        losses = y * (np.maximum(-scores, 0) + np.log1p(np.exp(-np.abs(scores)))) + (1 - y) * (
            np.maximum(scores, 0) + np.log1p(np.exp(-np.abs(scores)))
        )
        risks = losses.mean(axis=0)
        idx = int(np.argmin(risks))
        best = min(best, float(risks[idx]))
        center = thetas[idx]
        half = 2.0 * (axis[1] - axis[0])
    return best


class TestCriterion7OracleEquivalence:
    def test_deviation_search_matches_grid(self):
        ok = True
        try:
            for trial in range(20):
                cov = make_covariance("identity", 1)
                theta_star = sample_theta_star(1, derive_seed(41, trial, 0))
                gen = GenerativeConfig(p=1, n=20, cov=cov, beta=2.0, theta_star=theta_star,
                                       seed=derive_seed(41, trial, 1))
                data, _ = generate_dataset(gen)
                grid = sup_deviation_grid(data, gen, 1.0, 20_000)
                search = sup_deviation_search(data, gen, 1.0, starts=8, budget=100,
                                              seed=derive_seed(41, trial, 2))
                assert abs(grid.sup_value - search.sup_value) < 1e-3
        except AssertionError:
            ok = False
            raise
        finally:
            announce("7a (deviation search vs grid oracle, 20 instances)", ok)

    def test_solver_risk_matches_grid(self):
        ok = True
        try:
            rng = np.random.default_rng(2718)
            for trial in range(20):
                p = 1 if trial % 2 == 0 else 2
                n = int(rng.integers(8, 25))
                data = Dataset(rng.standard_normal((n, p)) * 1.5, rng.integers(0, 2, n))
                fit = fit_constrained(data, 1.0)
                oracle = _grid_min_risk_1d(data, 1.0) if p == 1 else _grid_min_risk_2d(data, 1.0)
                assert abs(fit.risk - oracle) < 1e-5
        except AssertionError:
            ok = False
            raise
        finally:
            announce("7b (solver risk vs grid oracle, 20 instances)", ok)


class TestCriterion8FiniteDifferences:
    def test_gradient_and_laplacian(self):
        ok = True
        try:
            rng = np.random.default_rng(31415)
            for trial in range(50):
                n = int(rng.integers(2, 21))
                p = int(rng.integers(1, 11))
                data = Dataset(rng.standard_normal((n, p)), rng.integers(0, 2, n))
                theta = rng.standard_normal(p) * 0.8

                grad = risk_gradient(data, theta)
                h = 1e-5
                eye = np.eye(p)
                fd_grad = np.array(
                    [
                        (empirical_risk(data, theta + h * e) - empirical_risk(data, theta - h * e)) / (2 * h)
                        for e in eye
                    ]
                )
                scale = max(np.max(np.abs(fd_grad)), 1e-12)
                assert np.max(np.abs(grad - fd_grad)) / scale < 1e-5

                lap = risk_laplacian(data, theta)
                h2 = 1e-4
                base = empirical_risk(data, theta)
                fd_lap = sum(
                    (empirical_risk(data, theta + h2 * e) - 2 * base + empirical_risk(data, theta - h2 * e)) / h2**2
                    for e in eye
                )
                assert abs(lap - fd_lap) / max(abs(fd_lap), 1e-12) < 1e-3
        except AssertionError:
            ok = False
            raise
        finally:
            announce("8 (finite-difference suite, 50 instances)", ok)
