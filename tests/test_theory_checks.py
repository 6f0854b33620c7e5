import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.hermite_e import hermeval
from scipy import integrate
from scipy.special import eval_hermitenorm

from ulln import Dataset, make_covariance, theory_checks
from ulln.bounds import GAUSSIAN_K
from ulln.datagen import CovarianceSpec, make_rng, map_replicates
from ulln.model import per_example_loss, sigmoid, sigmoid_derivative, softplus
from ulln.quadrature import gauss_hermite, gauss_hermite_tensor, legendre_panels
from ulln.solver import project_to_ball
from ulln.theory_checks import (
    CATALOG,
    EXPSUP_ASCENT_ITERS,
    EXPSUP_POLISH_TOP,
    EXPSUP_PROBES,
    EXPSUP_REF_SAMPLES,
    GAP_HERMITE_NODES,
    GAP_PAIR_LIMIT,
    GAP_PROBE_BLOCK,
    GAP_TIME_NODES,
    HERMITE_NODES,
    LOG2,
    SMOOTHING_TAIL_LENGTH,
    SUITE_NAMES,
    CatalogFunction,
    envelope_moment_check,
    expsup_gap_check,
    gap_centering_check,
    hermite3_abs_moment,
    hermite_identity_residual,
    ito_expansion_residual,
    kl_gaussian_shift,
    laplacian_gap_functional,
    run_suite,
    smoothing_identity_residual,
    _ENVELOPE_BLOCK_ROWS,
    _expsup_replicate,
    _GapSurface,
    _paired_sigma_prime,
)


class TestHermiteIdentities:
    def test_poly2_first_order_is_odd_moment(self):
        report = hermite_identity_residual("poly2", 0)
        assert abs(report.lhs) < 1e-12 and abs(report.rhs) < 1e-12
        assert report.passed

    def test_sigmoid_first_order(self):
        report = hermite_identity_residual("sigmoid", 0)
        assert report.abs_residual <= 1e-10
        assert report.passed

    def test_every_valid_combination(self):
        for name in CATALOG:
            for d in (0, 1, 2):
                assert hermite_identity_residual(name, d).abs_residual <= 1e-10

    def test_node_doubling_self_consistency(self):
        # recompute the sigmoid identity with doubled nodes; both sides move < 1e-10
        z, w = gauss_hermite(256)
        lhs = float(w @ (sigmoid_derivative(z) * 1.0))
        rhs = float(w @ (np.asarray(1 / (1 + np.exp(-np.clip(z, -700, 700)))) * z))
        report = hermite_identity_residual("sigmoid", 0)
        assert abs(report.lhs - lhs) <= 1e-10
        assert abs(report.rhs - rhs) <= 1e-10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hermite_identity_residual("nope", 0)
        with pytest.raises(ValueError):
            hermite_identity_residual("sigmoid", 3)


class TestSmoothingIdentity:
    def test_constant_function_vanishes(self):
        const = CatalogFunction(
            lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        report = smoothing_identity_residual(const, 0.5)
        assert abs(report.lhs) < 1e-12 and abs(report.rhs) < 1e-12

    def test_quadratic_closed_form(self):
        report = smoothing_identity_residual("poly2", 0.7)
        assert report.lhs == pytest.approx(2 * 0.7, abs=1e-10)
        assert report.rhs == pytest.approx(2 * 0.7, abs=1e-12)
        assert report.abs_residual <= 1e-10

    def test_quartic_closed_form(self):
        # int s E[x^6 - x^4] ds = 6 t^2 on both sides
        report = smoothing_identity_residual("poly4", 0.9)
        assert report.rhs == pytest.approx(6 * 0.9**2, rel=1e-12)
        assert report.abs_residual <= 1e-8

    def test_shifted_sigmoid(self):
        shifted = CatalogFunction(
            lambda x: 1.0 / (1.0 + np.exp(-np.clip(0.3 + x, -700, 700))),
            lambda x: sigmoid_derivative(0.3 + x),
        )
        report = smoothing_identity_residual(shifted, 1.0)
        assert report.abs_residual <= 1e-8

    def test_whole_catalog_across_times(self):
        for name in CATALOG:
            for t in (0.1, 0.5, 1.0):
                assert smoothing_identity_residual(name, t).passed

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_tail_rule_is_converged(self, name, t):
        # 8 panels of 12 nodes against 64 of 24: measured worst 2.7e-15; one panel of 24 nodes errs by 1.7e-10
        z, w = gauss_hermite(HERMITE_NODES)
        r0 = math.log(1.0 / math.sqrt(t))
        r_nodes, r_weights = legendre_panels(r0, r0 + SMOOTHING_TAIL_LENGTH, 64, 24)
        inner = np.asarray(CATALOG[name].f(np.exp(-r_nodes)[:, None] * z)) * (z**2 - 1.0) @ w
        assert abs(smoothing_identity_residual(name, t).lhs - 2.0 * float(r_weights @ inner)) <= 1e-13

    def test_time_domain(self):
        with pytest.raises(ValueError):
            smoothing_identity_residual("sigmoid", 0.0)
        with pytest.raises(ValueError):
            smoothing_identity_residual("sigmoid", 1.5)


# the tensor rule the left side used to take: nodes per axis at p = 1, 2 and 3
TENSOR_AXIS_NODES = {1: 160, 2: 80, 3: 44}


def tensor_ito_lhs(f_of, theta, t):
    """E[f(W_t)] for W_t ~ N(theta, t I) on the tensorized Gauss-Hermite rule, summed by fsum."""
    nodes, weights = gauss_hermite_tensor(TENSOR_AXIS_NODES[theta.size], theta.size)
    return math.fsum(weights * f_of(theta + math.sqrt(t) * nodes))


class TestItoExpansion:
    def test_short_time_limit(self):
        row = Dataset(np.array([[1.5]]), np.array([1]))
        report = ito_expansion_residual(np.array([0.2]), 1e-8, row)
        assert report.abs_residual <= 1e-6

    def test_quadratic_payload_exact(self):
        theta = np.array([0.1, -0.3])
        report = ito_expansion_residual(theta, 0.8)
        assert report.rhs == pytest.approx(float(theta @ theta) + 2 * 0.8, rel=1e-14)
        assert report.abs_residual <= 1e-10

    def test_logistic_quadrature(self):
        row = Dataset(np.array([[1.5]]), np.array([1]))
        report = ito_expansion_residual(np.array([0.2]), 0.5, row)
        assert report.abs_residual <= 1e-6

    def test_logistic_monte_carlo_variant(self):
        row = Dataset(np.array([[1.5]]), np.array([1]))
        report = ito_expansion_residual(np.array([0.2]), 0.5, row, mc_samples=100_000, seed=9)
        assert report.passed
        assert report.tolerance >= 1e-6

    @pytest.mark.parametrize("mc_samples", [1, -1, -100_000])
    def test_one_or_negative_mc_samples_is_rejected(self, mc_samples):
        # one draw has no standard error; a negative count is no quadrature request
        row = Dataset(np.array([[1.5]]), np.array([1]))
        with pytest.raises(ValueError, match="mc_samples"):
            ito_expansion_residual(np.array([0.2]), 0.5, row, mc_samples=mc_samples, seed=9)

    def test_zero_mc_samples_is_the_quadrature_check(self):
        row = Dataset(np.array([[1.5]]), np.array([1]))
        report = ito_expansion_residual(np.array([0.2]), 0.5, row, mc_samples=0)
        assert report.name == "ito:logistic:p1:t0.5" and report.tolerance == 1e-6
        assert report == ito_expansion_residual(np.array([0.2]), 0.5, row)

    def test_three_dimensional(self):
        row = Dataset(np.array([[0.9, -0.7, 0.4]]), np.array([1]))
        report = ito_expansion_residual(np.array([0.3, 0.1, -0.2]), 0.3, row)
        assert report.abs_residual <= 1e-6

    # sqrt(t) ||x|| <= 2, the range where the 128-node rule is exact to rounding (at 3.2 it errs by about 1e-11)
    @pytest.mark.parametrize("x_row, theta, t", [
        ([1.5], [0.2], 0.5), ([3.5], [-12 / 7], 0.3), ([2.0, -1.5], [0.5, 0.5], 0.3),
        ([0.9, -0.7, 0.4], [0.3, 0.1, -0.2], 0.3), ([2.0, 2.0, 1.5], [1.0, 1.0, 0.0], 0.3),
    ])
    @pytest.mark.parametrize("logistic", [True, False])
    def test_one_dimensional_lhs_matches_the_tensor_rule(self, x_row, theta, t, logistic):
        x_row, theta = np.array(x_row), np.array(theta)
        if logistic:
            report = ito_expansion_residual(theta, t, Dataset(x_row[None, :], np.array([1])))
            oracle = tensor_ito_lhs(lambda w: per_example_loss(1.0, w @ x_row), theta, t)
        else:
            report = ito_expansion_residual(theta, t)
            oracle = tensor_ito_lhs(lambda w: np.einsum("ij,ij->i", w, w), theta, t)
        assert report.lhs == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mc_samples", [0, 100_000])
    @pytest.mark.parametrize("logistic", [True, False])
    def test_eight_dimensional(self, mc_samples, logistic):
        rng = np.random.default_rng(8)
        theta, x_row = 0.3 * rng.standard_normal(8), 0.4 * rng.standard_normal(8)
        row = Dataset(x_row[None, :], np.array([0])) if logistic else None
        report = ito_expansion_residual(theta, 0.7, row, mc_samples=mc_samples, seed=10)
        assert report.name.endswith(f":p8:t0.7{':mc' if mc_samples else ''}")
        assert report.passed

    @pytest.mark.parametrize("t", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("logistic", [True, False])
    def test_time_must_be_finite_and_positive(self, t, logistic):
        row = Dataset(np.array([[1.5]]), np.array([1])) if logistic else None
        with pytest.raises(ValueError, match="t must be"):
            ito_expansion_residual(np.array([0.2]), t, row)

    @pytest.mark.parametrize("x_row, theta", [
        ([0.0], [0.4]), ([1.5], [0.2]), ([3.5], [-12 / 7]), ([3.5], [12 / 7]),
        ([2.0, -1.5], [0.5, 0.5]), ([0.9, -0.7, 0.4], [0.3, 0.1, -0.2]), ([2.0, 2.0, 1.5], [1.0, 1.0, 0.0]),
    ])
    @pytest.mark.parametrize("t", [1e-8, 0.3, 1.0])
    def test_time_rule_matches_adaptive_quad(self, x_row, theta, t):
        # |mu| <= 6, ||x|| <= 3.5: the fixed Legendre s-rule against adaptive quad
        x_row, theta = np.array(x_row), np.array(theta)
        y = int(x_row.size % 2)
        report = ito_expansion_residual(theta, t, Dataset(x_row[None, :], np.array([y])))
        mu, x_norm = float(x_row @ theta), float(np.linalg.norm(x_row))
        z, w = gauss_hermite(HERMITE_NODES)
        integral, _ = integrate.quad(
            lambda s: x_norm**2 * float(w @ sigmoid_derivative(mu + math.sqrt(s) * x_norm * z)),
            0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert abs(report.rhs - (per_example_loss(y, mu) + 0.5 * integral)) <= 1e-13

    @pytest.mark.parametrize("x_row, theta, t", [([1.5], [0.2], 0.5), ([0.9, -0.7, 0.4], [0.3, 0.1, -0.2], 0.3)])
    def test_wrong_laplacian_fails(self, monkeypatch, x_row, theta, t):
        # a Laplacian 1% off moves only the time integral on the right side
        exact = theory_checks.sigmoid_derivative
        monkeypatch.setattr(theory_checks, "sigmoid_derivative", lambda u: 1.01 * exact(u))
        report = ito_expansion_residual(np.array(theta), t, Dataset(np.array([x_row]), np.array([1])))
        assert not report.passed

    def test_requires_single_row(self):
        data = Dataset(np.ones((2, 1)), np.array([1, 0]))
        with pytest.raises(ValueError):
            ito_expansion_residual(np.zeros(1), 0.5, data)


class TestKlShift:
    def test_zero_center(self):
        report = kl_gaussian_shift(np.zeros(4), 1.0)
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_unit_norm_half_time(self):
        report = kl_gaussian_shift(np.array([0.6, -0.8]), 0.5)
        assert report.rhs == pytest.approx(1.0, rel=1e-15)
        assert report.passed

    def test_random_vector(self):
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(7)
        report = kl_gaussian_shift(theta, 0.3)
        assert report.rhs == pytest.approx(float(theta @ theta) / 0.6, rel=1e-14)
        assert report.abs_residual <= 1e-12

    def test_time_domain(self):
        with pytest.raises(ValueError):
            kl_gaussian_shift(np.ones(2), 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_time_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="t must be"):
            kl_gaussian_shift(np.ones(2), t)

    def test_empty_theta_is_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            kl_gaussian_shift(np.zeros(0), 1.0)

    def test_wrong_log_density_fails(self, monkeypatch):
        # a density whose variance is 1% off changes the log-ratio, not the closed form
        from ulln import theory_checks

        exact = theory_checks._isotropic_logpdf
        monkeypatch.setattr(theory_checks, "_isotropic_logpdf", lambda w, mean, t: exact(w, mean, 1.01 * t))
        report = kl_gaussian_shift(np.array([0.6, -0.8]), 0.5)
        assert not report.passed
        assert report.lhs == pytest.approx(1.0 / 1.01, rel=1e-12)


class TestEnvelopeMoment:
    def test_degenerate_spectrum_has_twofold_slack(self):
        report = envelope_moment_check(np.zeros(3), 0.5, CovarianceSpec(np.zeros(3)), 1.0, mc_samples=5000, seed=1)
        assert report.passed
        assert report.rhs >= 2 * report.lhs  # bound is at least twice the constant envelope

    def test_reciprocal_on_sphere(self):
        center = np.array([0.5, -0.5, 0.5, -0.5])
        report = envelope_moment_check(center, 0.25, make_covariance("reciprocal", 4), 1.0, mc_samples=120_000, seed=2)
        assert report.passed

    def test_center_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            envelope_moment_check(2.0 * np.ones(4) / 2.0, 0.25, make_covariance("reciprocal", 4), 1.0,
                                  mc_samples=100, seed=3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            envelope_moment_check(np.zeros(3), 0.25, make_covariance("reciprocal", 4), 1.0, mc_samples=100, seed=4)

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_time_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="t must be"):
            envelope_moment_check(np.zeros(4), t, make_covariance("reciprocal", 4), 1.0, mc_samples=100, seed=5)

    @pytest.mark.parametrize("radius", [-0.1, math.nan, math.inf])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        with pytest.raises(ValueError, match="radius"):
            envelope_moment_check(np.zeros(4), 0.25, make_covariance("reciprocal", 4), radius, mc_samples=100, seed=6)

    def test_bound_reads_the_gaussian_design_constant(self):
        cov = make_covariance("reciprocal", 4)
        report = envelope_moment_check(np.zeros(4), 0.25, cov, 1.0, mc_samples=100, seed=7)
        c = 1.0 + math.sqrt(3.0) * math.sqrt(2.0)
        assert report.rhs == pytest.approx((144 / math.e) * (1 + c**2 * (0.25 * cov.trace + cov.spectral_norm)),
                                           rel=1e-15)

    @pytest.mark.parametrize("mc_samples", [1000, 2 * _ENVELOPE_BLOCK_ROWS + 5])
    def test_blocks_match_the_whole_draw(self, mc_samples):
        theta, t, cov = np.array([0.5, -0.5, 0.5, -0.5]), 0.25, make_covariance("reciprocal", 4)
        c = 1.0 + math.sqrt(3.0) * GAUSSIAN_K
        draws = theta + math.sqrt(t) * make_rng(8).standard_normal((mc_samples, 4))
        norms = np.linalg.norm(cov.transform(draws), axis=1)
        eta_sq = (72.0 / math.e) * (LOG2 + c * norms) ** 2
        mean_eta, se_eta = np.mean(eta_sq), np.std(eta_sq, ddof=1) / math.sqrt(mc_samples)
        bound = (144.0 / math.e) * (1.0 + c**2 * (t * cov.trace + cov.spectral_norm))
        second, se_second = np.mean(norms**2), np.std(norms**2, ddof=1) / math.sqrt(mc_samples)
        expected_second = t * cov.trace + float(cov.transform(theta) @ cov.transform(theta))
        violation = max(mean_eta + 3.0 * se_eta - bound, abs(second - expected_second) - 3.0 * se_second)
        expected = theory_checks._hinge_report("envelope:p4:t0.25:block", mean_eta, bound, violation)
        assert envelope_moment_check(theta, t, cov, 1.0, mc_samples, seed=8, label="block") == expected

    def test_peak_memory_stays_below_two_copies_of_the_sample(self):
        mc_samples, p = 300_000, 4
        tracemalloc.start()
        try:
            report = envelope_moment_check(np.zeros(p), 0.25, make_covariance("reciprocal", p), 1.0, mc_samples,
                                           seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 * mc_samples * p * 8


class TestHermite3AbsMoment:
    def test_matches_closed_form(self):
        report = hermite3_abs_moment()
        closed = (1 + 4 * math.exp(-1.5)) * math.sqrt(2 / math.pi)
        assert report.rhs == pytest.approx(closed, rel=1e-15)
        assert report.abs_residual <= 1e-10

    def test_strict_inequality_margin(self):
        report = hermite3_abs_moment()
        assert 2 * math.sqrt(2 / math.pi) - report.lhs > 0.08

    def test_node_refinement_agreement(self):
        coarse = hermite3_abs_moment(nodes=64)
        fine = hermite3_abs_moment(nodes=256)
        assert abs(coarse.lhs - fine.lhs) <= 1e-12


class TestLaplacianGap:
    def test_zero_spectrum_is_exactly_zero(self):
        value = laplacian_gap_functional(
            np.ones((4, 3)), np.zeros(3), 0.5, CovarianceSpec(np.zeros(3)), ref_samples=10, seed=0,
        )
        assert value == 0.0

    def test_centering(self):
        report = gap_centering_check(6, 0.5, make_covariance("reciprocal", 2), draws=24, seed=3)
        assert report.passed

    @pytest.mark.parametrize("draws", [0, 1])
    def test_fewer_than_two_draws_is_rejected(self, draws):
        with pytest.raises(ValueError, match="draws"):
            gap_centering_check(6, 0.5, make_covariance("reciprocal", 2), draws=draws, seed=3)

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            gap_centering_check(0, 0.5, make_covariance("reciprocal", 2), draws=4, seed=3)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
    def test_matches_the_quadrature_oracle(self, p, t):
        cov = make_covariance("reciprocal", p)
        rng = make_rng(100 + p)
        z = rng.standard_normal((8, p))
        theta = project_to_ball(rng.standard_normal(p), 1.0)
        ref_rows = make_rng(17).standard_normal((40, p))  # the functional's own reference draw at seed 17
        lambda_sq = _GapSurface(z, ref_rows, t, cov).lambda_sq
        assert math.sqrt(t * lambda_sq.max()) <= 3.6  # where 128 Hermite nodes hold 1e-11
        value = laplacian_gap_functional(z, theta, t, cov, ref_samples=40, seed=17)
        assert abs(value - _oracle_functional(z, ref_rows, t, cov, theta)) <= 1e-11

    def test_against_nested_monte_carlo(self):
        # brute-force oracle: every expectation replaced by Monte Carlo draws
        p, n, t = 2, 3, 0.6
        cov = make_covariance("reciprocal", p)
        rng = make_rng(2024)
        z = rng.standard_normal((n, p))
        theta = np.array([0.4, -0.3])

        value = laplacian_gap_functional(z, theta, t, cov, ref_samples=6000, seed=55)

        m = 400_000
        lam = cov.eigenvalues

        def term_mc(rows, count):
            lam_sq = (rows**2) @ lam
            mu = (rows * np.sqrt(lam)) @ theta
            s = t * rng.random((len(rows), count))
            zeta = rng.standard_normal((len(rows), count))
            vals = sigmoid_derivative(mu[:, None] + np.sqrt(s * lam_sq[:, None]) * zeta)
            per_row = t * vals.mean(axis=1) * lam_sq
            return per_row, t * vals.std(axis=1, ddof=1) / math.sqrt(count) * lam_sq

        first_rows, first_se = term_mc(z, m // n)
        first = 0.5 * first_rows.mean()
        ref_draws = rng.standard_normal((m // 40, p))
        lam_sq_ref = (ref_draws**2) @ lam
        mu_ref = (ref_draws * np.sqrt(lam)) @ theta
        s_ref = t * rng.random(len(ref_draws))
        zeta_ref = rng.standard_normal(len(ref_draws))
        ref_vals = t * lam_sq_ref * sigmoid_derivative(mu_ref + np.sqrt(s_ref * lam_sq_ref) * zeta_ref)
        second = 0.5 * ref_vals.mean()
        second_se = 0.5 * ref_vals.std(ddof=1) / math.sqrt(len(ref_vals))

        oracle = first - second
        # the implementation's own reference sample contributes ~sigma/sqrt(6000)
        impl_se = 0.5 * ref_vals.std(ddof=1) / math.sqrt(6000)
        tol = 3 * math.sqrt((first_se.mean() / (2 * math.sqrt(n))) ** 2 + second_se**2 + impl_se**2)
        assert abs(value - oracle) <= tol

    def test_time_domain(self):
        with pytest.raises(ValueError):
            laplacian_gap_functional(np.ones((2, 2)), np.zeros(2), 1.5, make_covariance("identity", 2), 10, 0)

    def test_functional_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            laplacian_gap_functional(np.empty((0, 2)), np.zeros(2), 0.5, make_covariance("identity", 2), 10, 0)


def _direct_value_many(z_rows, ref_rows, t, cov, thetas, time_panels=1, time_nodes=GAP_TIME_NODES):
    """The gap surface's value rule, one (rows, m, nodes) tensor per s node;
    by default on the surface's own time rule."""
    surface = _GapSurface(z_rows, ref_rows, t, cov)
    coef, directions, lambda_sq = surface.coef, surface.directions, surface.lambda_sq
    s_nodes, s_weights = legendre_panels(0.0, t, time_panels, time_nodes)
    z_nodes, z_weights = gauss_hermite(GAP_HERMITE_NODES)
    mus = directions @ thetas.T
    out = np.zeros(thetas.shape[0])
    for s, weight in zip(s_nodes, s_weights):
        args = mus[:, :, None] + np.sqrt(s * lambda_sq)[:, None, None] * z_nodes[None, None, :]
        out += weight * ((coef * lambda_sq) @ (sigmoid_derivative(args) @ z_weights))
    return out


def _oracle_functional(z_rows, ref_rows, t, cov, theta):
    """The gap functional with no identity: the s-integral of each row's
    E[sigma'(mu + sqrt(s lambda_sq) Z)] on 180 Gauss-Hermite nodes, by quad_vec."""
    surface = _GapSurface(z_rows, ref_rows, t, cov)
    coef, directions, lambda_sq = surface.coef, surface.directions, surface.lambda_sq
    mu = directions @ theta
    z, w = gauss_hermite(180)

    def row_integrands(s):
        return sigmoid_derivative(mu[:, None] + np.sqrt(s * lambda_sq)[:, None] * z) @ w

    integrals, _ = integrate.quad_vec(row_integrands, 0.0, t, epsabs=1e-14, epsrel=1e-13)
    return float(coef @ (lambda_sq * integrals))


def _oracle_gradient(z_rows, ref_rows, t, cov, theta):
    """The gap gradient with no identity: the s-integral of each row's
    E[sigma''(mu + sqrt(s lambda_sq) Z)] on 180 Gauss-Hermite nodes, by quad_vec."""
    surface = _GapSurface(z_rows, ref_rows, t, cov)
    coef, directions, lambda_sq = surface.coef, surface.directions, surface.lambda_sq
    mu = directions @ theta
    z, w = gauss_hermite(180)

    def row_integrands(s):
        args = mu[:, None] + np.sqrt(s * lambda_sq)[:, None] * z
        return (sigmoid_derivative(args) * (1.0 - 2.0 * sigmoid(args))) @ w

    integrals, _ = integrate.quad_vec(row_integrands, 0.0, t, epsabs=1e-14, epsrel=1e-13)
    return directions.T @ (coef * lambda_sq * integrals)


def _gap_case(n, m, p, t, seed=0, kind="reciprocal"):
    rng = make_rng(seed)
    args = (rng.standard_normal((n, p)), rng.standard_normal((m, p)), t, make_covariance(kind, p))
    return _GapSurface(*args), args, rng


class TestGapSurface:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n,m", [(1, 1), (7, 3), (50, 160)])
    @pytest.mark.parametrize("count", [1, 3, GAP_PROBE_BLOCK + 1, 49])
    def test_values_match_the_direct_rule(self, n, m, p, count):
        # the paired closed form rounds differently from the 48 single nodes; measured worst 2.7e-14
        surface, args, rng = _gap_case(n, m, p, 0.7)
        thetas = rng.standard_normal((count, p))
        np.testing.assert_allclose(surface.value_many(thetas), _direct_value_many(*args, thetas), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ["reciprocal", "identity"])
    def test_time_rule_is_converged(self, kind):
        # one GAP_TIME_NODES rule on [0, t] against 16 panels of 24 nodes: measured worst 6.7e-14 at these
        # rows, where a 16-node rule errs by 1.6e-11 or more
        surface, args, rng = _gap_case(50, 160, 3, 1.0, seed=5, kind=kind)
        thetas = rng.standard_normal((8, 3))
        want = _direct_value_many(*args, thetas, time_panels=16, time_nodes=24)
        assert np.max(np.abs(surface.value_many(thetas) - want)) <= 1e-12

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("count", [1, GAP_PROBE_BLOCK - 1, GAP_PROBE_BLOCK, GAP_PROBE_BLOCK + 1, 49])
    def test_probes_are_independent_across_blocks(self, count, p):
        surface, _, rng = _gap_case(50, 160, p, 0.7)
        thetas = rng.standard_normal((count, p))
        alone = [surface.value_many(theta[None])[0] for theta in thetas]
        assert np.array_equal(surface.value_many(thetas), alone)

    def test_pair_identity_up_to_the_guard(self):
        ends = np.geomspace(1e-3, GAP_PAIR_LIMIT, 60)
        grid = np.concatenate([-ends[::-1], [0.0], ends])
        mu, c = np.meshgrid(grid, grid, indexing="ij")
        x, y = 2.0 * np.cosh(mu), 2.0 * np.cosh(c)
        got = _paired_sigma_prime(x, y, np.empty_like(x), np.empty_like(x))
        want = sigmoid_derivative(mu + c) + sigmoid_derivative(mu - c)
        assert np.all(np.isfinite(got))
        # sigma'(mu +/- c) itself carries the rounding of mu +/- c, which grows with the arguments
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(mu) + np.abs(c)) * want)
        assert got[60, 60] == 0.5

    @pytest.mark.parametrize("theta", [400.0, -400.0, math.nan])
    def test_probe_outside_the_guard_raises(self, theta):
        surface = _GapSurface(np.array([[1.0]]), np.array([[0.5]]), 1.0, make_covariance("identity", 1))
        assert np.all(np.isfinite(surface.value_many(np.array([[GAP_PAIR_LIMIT]]))))
        with pytest.raises(ValueError, match="exceeds"):
            surface.value_many(np.array([[theta]]))

    def test_row_outside_the_guard_raises(self):
        # sqrt(t lambda) z_k reaches about 40 * 12 for the largest of the 48 nodes; only the pair rule has the guard
        surface = _GapSurface(np.array([[40.0]]), np.array([[0.5]]), 1.0, make_covariance("identity", 1))
        theta = np.array([[0.3]])
        assert np.all(np.isfinite(surface.identity_values(theta)))
        assert np.all(np.isfinite(surface.gradient(theta)))
        with pytest.raises(ValueError, match="exceeds"):
            surface.value_many(theta)

    def test_expsup_on_a_ball_outside_the_guard_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            expsup_gap_check(50, 1.0, 400.0, make_covariance("reciprocal", 3), replicates=2, seed=9)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n,m,t", [(1, 1, 0.7), (7, 3, 0.3), (50, 160, 1.0)])
    def test_gradient_matches_the_quadrature_oracle(self, n, m, p, t):
        surface, args, rng = _gap_case(n, m, p, t)
        thetas = np.stack([np.zeros(p), project_to_ball(rng.standard_normal(p), 1.0), rng.standard_normal(p)])
        gradients = surface.gradient(thetas)
        assert gradients.shape == thetas.shape
        for theta, gradient in zip(thetas, gradients):
            assert np.array_equal(gradient, surface.gradient(theta[None])[0])
            assert np.max(np.abs(gradient - _oracle_gradient(*args, theta))) <= 1e-10

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n,m,t", [(1, 1, 0.7), (7, 3, 0.3), (50, 160, 1.0)])
    def test_identity_values_match_the_quadrature_oracle(self, n, m, p, t):
        surface, args, rng = _gap_case(n, m, p, t)
        assert math.sqrt(t * surface.lambda_sq.max()) <= 3.6  # where 128 Hermite nodes hold 1e-11
        thetas = np.stack([np.zeros(p), project_to_ball(rng.standard_normal(p), 1.0), rng.standard_normal(p)])
        for theta, value in zip(thetas, surface.identity_values(thetas)):
            assert abs(value - _oracle_functional(*args, theta)) <= 1e-11

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("count", [1, GAP_PROBE_BLOCK - 1, GAP_PROBE_BLOCK, GAP_PROBE_BLOCK + 1, 49])
    def test_identity_values_are_independent_across_blocks(self, count, p):
        surface, _, rng = _gap_case(50, 160, p, 0.7)
        thetas = rng.standard_normal((count, p))
        alone = [surface.identity_values(theta[None])[0] for theta in thetas]
        assert np.array_equal(surface.identity_values(thetas), alone)

    @pytest.mark.parametrize("p", [1, 3])
    def test_functional_is_the_shared_kernel_on_one_probe(self, p):
        rng = make_rng(30 + p)
        cov, z, theta = make_covariance("reciprocal", p), rng.standard_normal((9, p)), rng.standard_normal(p)
        value = laplacian_gap_functional(z, theta, 0.6, cov, ref_samples=40, seed=5)
        ref_rows = make_rng(5).standard_normal((40, p))  # the functional's own reference draw at seed 5
        surface = _GapSurface(z, ref_rows, 0.6, cov)
        # the surface's layout: +1/(2n) on the data rows, -1/(2m) on the reference rows, offsets sqrt(t lambda) z_k
        lambda_sq = (np.vstack([z, ref_rows]) ** 2) @ cov.eigenvalues
        assert np.array_equal(surface.coef, np.concatenate([np.full(9, 0.5 / 9), np.full(40, -0.5 / 40)]))
        assert np.array_equal(surface.t_offsets, np.sqrt(0.6 * lambda_sq)[:, None] * gauss_hermite(HERMITE_NODES)[0])
        assert value == surface.identity_values(theta[None])[0]

    def test_kernel_is_the_per_probe_softplus_gap_bitwise(self):
        # 11 probes go as blocks of 6 and 5; each probe's value is the softplus formula contracted on its own
        surface, _, rng = _gap_case(50, 160, 3, 0.7)
        thetas = rng.standard_normal((11, 3))
        coef2 = 2.0 * surface.coef
        want = [((softplus(mu[:, None] + surface.t_offsets) - softplus(mu)[:, None]) @ surface.h_weights) @ coef2
                for mu in surface._mus(thetas)]
        got = surface.identity_values(thetas)
        assert got.tobytes() == np.array(want).tobytes()

    def test_returned_arrays_survive_later_calls(self):
        surface, _, rng = _gap_case(19, 20, 3, 0.7)
        gradient = surface.gradient(rng.standard_normal((3, 3)))
        values = surface.value_many(rng.standard_normal((4, 3)))
        kept = gradient.copy(), values.copy()
        surface.gradient(rng.standard_normal((3, 3)))
        surface.value_many(rng.standard_normal((5, 3)))
        assert np.array_equal(gradient, kept[0])
        assert np.array_equal(values, kept[1])


@settings(derandomize=True, deadline=None, max_examples=50)
@given(t=arrays(float, st.integers(1, 40), elements=st.floats(-1e300, 1e300, allow_nan=False)))
def test_sigmoid_derivative_is_the_one_exp_form_bitwise(t):
    a = np.exp(-np.abs(t))
    assert sigmoid_derivative(t).tobytes() == (a / (1.0 + a) ** 2).tobytes()
    assert sigmoid_derivative(float(t[0])) == float(a[0] / (1.0 + a[0]) ** 2)


def _exhaustive_replicate(z_rows, ref_rows, probes, t, radius, cov):
    """The expsup replicate with the pair rule on every probe: the best
    probe, or the best point of the paths polished from its top
    EXPSUP_POLISH_TOP probes."""
    surface = _GapSurface(z_rows, ref_rows, t, cov)
    values = surface.value_many(probes)
    best = float(np.max(values))
    if radius > 0:
        polished = probes[np.argsort(values)[-EXPSUP_POLISH_TOP:]]
        for k in range(1, EXPSUP_ASCENT_ITERS + 1):
            polished = project_to_ball(polished + (0.1 / math.sqrt(k)) * surface.gradient(polished), radius)
        best = max(best, float(np.max(surface.value_many(polished))))
    return best


def _expsup_case(seed):
    """One expsup replicate's inputs, its probes laid out as the check lays
    them out; every seventh seed has radius 0, and the kind alternates."""
    rng = make_rng(seed)
    p, n, t = int(rng.integers(1, 6)), int(rng.integers(1, 81)), float(rng.uniform(0.3, 1.0))
    radius = 0.0 if seed % 7 == 0 else float(rng.uniform(0.3, 2.0))
    z_rows, ref_rows = rng.standard_normal((n, p)), rng.standard_normal((EXPSUP_REF_SAMPLES, p))
    probes = [np.zeros(p)]
    if radius > 0:
        g = rng.standard_normal((EXPSUP_PROBES, p))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        half = EXPSUP_PROBES // 2
        radii = radius * np.concatenate([np.ones(half), rng.random(EXPSUP_PROBES - half) ** (1.0 / p)])
        probes.extend(g * radii[:, None])
    cov = make_covariance(("identity", "reciprocal")[seed % 2], p)
    return z_rows, ref_rows, np.asarray(probes), t, radius, cov


class TestExpSup:
    def test_degenerate_radius(self):
        report = expsup_gap_check(10, 1.0, 0.0, make_covariance("reciprocal", 2), replicates=4, seed=8)
        assert report.rhs == 0.0
        assert report.passed

    def test_bound_holds_with_margin(self):
        report = expsup_gap_check(50, 1.0, 1.0, make_covariance("reciprocal", 3), replicates=6, seed=9)
        assert report.passed
        assert report.lhs < report.rhs

    def test_bound_halves_when_n_quadruples(self):
        cov = make_covariance("reciprocal", 2)
        small = expsup_gap_check(20, 0.5, 1.0, cov, replicates=2, seed=10)
        large = expsup_gap_check(80, 0.5, 1.0, cov, replicates=2, seed=10)
        assert large.rhs == pytest.approx(small.rhs / 2.0, rel=1e-12)
        # the 24-node Legendre by 48-node Hermite value (38 nodes above the weight floor) at the points the
        # identity gradient climbs to, pinned bit for bit
        assert small.lhs == 0.006460227303397296

    def test_replicate_matches_the_exhaustive_scan(self):
        # ranking the scan by the identity values picks the polish starts and the best probe that
        # the pair rule on every probe picks, so each replicate is the same to the bit
        seeds = range(42)
        cases = [_expsup_case(seed) for seed in seeds]
        assert {case[-1].p for case in cases} == {1, 2, 3, 4, 5}
        assert {case[-2] == 0 for case in cases} == {True, False}
        got = map_replicates(lambda case: _expsup_replicate(*case), cases)
        want = map_replicates(lambda case: _exhaustive_replicate(*case), cases)
        assert got == want, [seed for seed, a, b in zip(seeds, got, want) if a != b]

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            expsup_gap_check(10, 1.0, 1.0, make_covariance("reciprocal", 6), replicates=2, seed=0)

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            expsup_gap_check(0, 1.0, 1.0, make_covariance("reciprocal", 2), replicates=2, seed=0)

    @pytest.mark.parametrize("radius", [math.nan, -0.5, math.inf])
    def test_nan_negative_or_infinite_radius_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            expsup_gap_check(10, 1.0, radius, make_covariance("reciprocal", 2), replicates=2, seed=0)


@pytest.mark.parametrize("violation, passed", [(-1.0, True), (0.0, True), (1e-12, False), (math.nan, False)])
def test_hinge_report_fails_a_positive_or_nan_violation(violation, passed):
    report = theory_checks._hinge_report("x", 1.0, 0.0, violation)
    assert report.passed is passed
    assert report.abs_residual == max(0.0, violation) or math.isnan(violation) and math.isnan(report.abs_residual)


class TestSuites:
    def test_hermite_suite_has_18_checks(self):
        reports = run_suite("hermite")
        assert len(reports) == 18
        assert all(r.passed for r in reports)

    def test_smoothing_suite_has_18_checks(self):
        reports = run_suite("smoothing")
        assert len(reports) == 18
        assert all(r.passed for r in reports)

    def test_report_invariant(self):
        for name in ("hermite", "smoothing", "ito", "moments"):
            for r in run_suite(name):
                assert r.passed == (r.abs_residual <= r.tolerance)

    def test_all_is_each_suite_in_turn(self):
        assert run_suite("all") == [report for key in SUITE_NAMES[1:] for report in run_suite(key)]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(theory_checks.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ulln.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_and_verify_load_no_scipy_module():
    src = os.path.dirname(os.path.dirname(theory_checks.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "def loaded(): return sorted(k for k in sys.modules if k.startswith('scipy'))\n"
        "from ulln import cli\n"
        "print(loaded(), file=sys.stderr)\n"
        "code = cli.main(['verify', 'hermite'])\n"
        "print(code, loaded(), file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stderr.splitlines() == ["[]", "0 []"]


@pytest.mark.parametrize("d", range(5))
def test_hermeval_unit_coefficients_match_scipy_hermitenorm(d):
    z = np.linspace(-12.0, 12.0, 241)
    np.testing.assert_allclose(hermeval(z, [0] * d + [1]), eval_hermitenorm(d, z), rtol=1e-14, atol=1e-12)
