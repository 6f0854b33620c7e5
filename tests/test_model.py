import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from ulln import (
    Dataset,
    GenerativeConfig,
    LogisticSurface,
    empirical_risk,
    make_covariance,
    per_example_loss,
    population_rows,
    risk_gradient,
    risk_laplacian,
    sigmoid,
    softplus,
)
from ulln.datagen import make_rng
from ulln.model import _sigmoid_into, _softplus_into
from ulln.quadrature import gauss_hermite_tensor

LOG2 = math.log(2.0)
MODEL_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ulln" / "model.py"


def random_dataset(rng, n, p):
    return Dataset(rng.standard_normal((n, p)), rng.integers(0, 2, n))


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_sum_is_one(self):
        assert sigmoid(3.7) + sigmoid(-3.7) == pytest.approx(1.0, abs=1e-16)

    def test_no_overflow_at_500(self):
        with np.errstate(over="raise"):
            value = sigmoid(500.0)
        assert value <= 1.0
        assert 0.0 <= 1.0 - value < 1e-200
        with np.errstate(over="raise"):
            low = sigmoid(-745.0)
        assert 0.0 <= low < 1e-200

    def test_strictly_monotone(self):
        # spacing kept coarse enough that increments stay above double resolution
        t = np.linspace(-30, 30, 201)
        values = sigmoid(t)
        assert np.all(np.diff(values) > 0)

    def test_kernel_matches_scipy_expit(self):
        t = np.linspace(-745.0, 745.0, 2_000_001)
        ours, oracle = _sigmoid_into(t, np.empty_like(t)), expit(t)
        assert np.abs(ours - oracle).max() <= 2.3e-16
        ulps = np.abs(ours - oracle) / np.spacing(np.maximum(oracle, np.finfo(float).tiny))
        assert ulps.max() <= 4.0

    def test_kernel_tails_are_exact_and_silent(self):
        t = np.array([-np.inf, -800.0, 800.0, np.inf])
        with np.errstate(all="raise"):
            assert np.array_equal(_sigmoid_into(t, np.empty_like(t)), [0.0, 0.0, 1.0, 1.0])
            assert sigmoid(-800.0) == 0.0 and sigmoid(800.0) == 1.0

    def test_kernel_propagates_nan(self):
        out = _sigmoid_into(np.array([np.nan, 0.0]), np.empty(2))
        assert np.isnan(out[0]) and out[1] == 0.5

    def test_kernel_may_write_over_its_input(self):
        t = np.linspace(-40.0, 40.0, 101)
        expected = sigmoid(t)
        assert _sigmoid_into(t, t) is t
        assert np.array_equal(t, expected)


class TestPerExampleLoss:
    def test_score_zero(self):
        assert per_example_loss(1, 0.0) == pytest.approx(LOG2, abs=1e-15)
        assert per_example_loss(0, 0.0) == pytest.approx(LOG2, abs=1e-15)

    def test_against_log1p_oracle(self):
        assert per_example_loss(0, 2.0) == pytest.approx(math.log1p(math.exp(2.0)), abs=1e-12)

    def test_extreme_score_is_finite(self):
        value = per_example_loss(1, -800.0)
        assert value == pytest.approx(800.0, abs=1e-9)
        assert np.isfinite(value)

    def test_bounded_by_log2_plus_score(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-200, 200, 500)
        for y in (0, 1):
            losses = per_example_loss(y, scores)
            assert np.all(losses >= 0)
            assert np.all(losses <= LOG2 + np.abs(scores) + 1e-12)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        scores=arrays(float, st.integers(1, 40), elements=st.floats(-1e300, 1e300, allow_nan=False)),
        soft=st.booleans(),
        data=st.data(),
    )
    def test_equals_two_softplus_reference_bitwise(self, scores, soft, data):
        # the shared-tail kernel must reproduce y*softplus(-s) + (1-y)*softplus(s) bit for bit
        targets = st.floats(0.0, 1.0) if soft else st.sampled_from([0.0, 1.0])
        y = data.draw(arrays(float, scores.size, elements=targets))
        reference = y * softplus(-scores) + (1.0 - y) * softplus(scores)
        assert per_example_loss(y, scores).tobytes() == reference.tobytes()
        block = np.stack([scores, -scores])
        assert per_example_loss(y, block).tobytes() == (y * softplus(-block) + (1.0 - y) * softplus(block)).tobytes()

    def test_matches_naive_form_in_safe_range(self):
        # |score| <= 10 keeps the naive oracle itself free of cancellation
        rng = np.random.default_rng(2)
        scores = rng.uniform(-10, 10, 100)
        for y in (0, 1):
            naive = -y * np.log(sigmoid(scores)) - (1 - y) * np.log(1 - sigmoid(scores))
            assert per_example_loss(y, scores) == pytest.approx(naive, rel=1e-9)


class TestEmpiricalRisk:
    def test_zero_theta_gives_log2(self):
        rng = np.random.default_rng(3)
        for n, p in [(1, 1), (7, 3), (20, 5)]:
            data = random_dataset(rng, n, p)
            assert empirical_risk(data, np.zeros(p)) == pytest.approx(LOG2, abs=1e-15)

    def test_single_point_oracle(self):
        data = Dataset(np.array([[2.0]]), np.array([1]))
        assert empirical_risk(data, np.array([1.0])) == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-12)

    def test_duplicated_rows_average_out(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal((1, 4))
        theta = rng.standard_normal(4)
        single = Dataset(row, np.array([1]))
        stacked = Dataset(np.repeat(row, 5, axis=0), np.ones(5, dtype=int))
        assert empirical_risk(stacked, theta) == pytest.approx(empirical_risk(single, theta), rel=1e-14)

    def test_dimension_mismatch(self):
        data = Dataset(np.eye(3), np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            empirical_risk(data, np.zeros(4))

    def test_convex_along_segments(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 12, 4)
        for _ in range(20):
            a, b = rng.standard_normal((2, 4))
            mid = empirical_risk(data, 0.5 * a + 0.5 * b)
            assert mid <= 0.5 * empirical_risk(data, a) + 0.5 * empirical_risk(data, b) + 1e-12


class TestRiskGradient:
    def test_single_row_at_zero(self):
        x = np.array([[1.5, -2.0, 0.5]])
        data = Dataset(x, np.array([1]))
        np.testing.assert_allclose(risk_gradient(data, np.zeros(3)), -x[0] / 2.0, rtol=1e-15)

    def test_label_cancellation(self):
        x = np.array([1.0, 2.0])
        data = Dataset(np.vstack([x, x]), np.array([1, 0]))
        np.testing.assert_allclose(risk_gradient(data, np.zeros(2)), 0.0, atol=1e-16)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 5, 3)
        theta = rng.standard_normal(3) * 0.7
        grad = risk_gradient(data, theta)
        h = 1e-5
        fd = np.array(
            [
                (empirical_risk(data, theta + h * e) - empirical_risk(data, theta - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_dimension_mismatch(self):
        data = Dataset(np.eye(2), np.array([0, 1]))
        with pytest.raises(ValueError):
            risk_gradient(data, np.zeros(3))


class TestRiskLaplacian:
    def test_laplacian_at_the_origin(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 6, 3)
        expected = np.mean(np.sum(data.inputs**2, axis=1)) / 4.0
        assert risk_laplacian(data, np.zeros(3)) == pytest.approx(expected, rel=1e-14)

    def test_zero_inputs(self):
        data = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert risk_laplacian(data, np.ones(2)) == 0.0

    def test_matches_hessian_trace(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 4, 2)
        theta = rng.standard_normal(2) * 0.4
        lap = risk_laplacian(data, theta)
        h = 1e-4
        trace = sum(
            (empirical_risk(data, theta + h * e) - 2 * empirical_risk(data, theta) + empirical_risk(data, theta - h * e))
            / h**2
            for e in np.eye(2)
        )
        assert abs(lap - trace) / abs(trace) < 1e-4
        assert lap >= 0


class TestPopulationRisk:
    def test_zero_theta_is_log2(self):
        gen = GenerativeConfig(
            p=3, n=5, cov=make_covariance("reciprocal", 3), beta=2.0,
            theta_star=np.array([1.0, 0.0, 0.0]), seed=0,
        )
        x, targets, weights = population_rows(gen, budget=500, seed=1)
        surface = LogisticSurface(x, targets, weights)
        assert surface.value(surface.scores(np.zeros(3))) == pytest.approx(LOG2, abs=1e-14)
        # every loss at theta = 0 is log 2, so the Monte Carlo spread vanishes
        assert weights is None and np.std(per_example_loss(targets, np.zeros(500)), ddof=1) <= 1e-15

    def test_quadrature_matches_monte_carlo(self):
        gen = GenerativeConfig(
            p=1, n=5, cov=make_covariance("identity", 1), beta=1.0,
            theta_star=np.array([1.0]), seed=0,
        )
        theta = np.array([1.0])
        x, targets, weights = population_rows(gen, budget=10, seed=0)
        assert weights is not None
        quad = LogisticSurface(x, targets, weights)
        # independent Monte Carlo oracle with the same label mixture
        rng = np.random.default_rng(42)
        x = rng.standard_normal((400_000, 1))
        losses = per_example_loss(sigmoid(1.0 * (x @ np.array([1.0]))), x @ theta)
        mc_mean = losses.mean()
        mc_se = losses.std(ddof=1) / math.sqrt(losses.size)
        assert abs(quad.value(quad.scores(theta)) - mc_mean) <= 3 * mc_se

    def test_std_error_scaling_with_budget(self):
        gen = GenerativeConfig(
            p=3, n=5, cov=make_covariance("reciprocal", 3), beta=1.0,
            theta_star=np.array([0.6, -0.6, 0.5]), seed=0,
        )
        theta = np.array([0.3, 0.2, -0.4])

        def std_error(budget, seed):
            x, targets, _ = population_rows(gen, budget, seed)
            return np.std(per_example_loss(targets, x @ theta), ddof=1) / math.sqrt(budget)

        base, doubled, quadrupled = (std_error(*args) for args in ((20_000, 5), (40_000, 6), (80_000, 7)))
        # sample-std / sqrt(budget): doubling shrinks by ~1/sqrt(2), quadrupling halves
        assert doubled / base == pytest.approx(1 / math.sqrt(2), rel=0.2)
        assert quadrupled / base == pytest.approx(0.5, rel=0.2)

    def test_invalid_budget(self):
        gen = GenerativeConfig(
            p=3, n=5, cov=make_covariance("reciprocal", 3), beta=1.0,
            theta_star=np.array([1.0, 0.0, 0.0]), seed=0,
        )
        with pytest.raises(ValueError):
            population_rows(gen, budget=0, seed=1)


class TestLogisticSurface:
    def test_empirical_surface_matches_direct_formulas(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 40, 6)
        theta = rng.standard_normal(6)
        scores = data.inputs @ theta
        surface = LogisticSurface(data.inputs, data.labels)
        np.testing.assert_array_equal(surface.scores(theta), scores)
        value, grad = surface.value(scores), surface.grad(scores)
        assert value == pytest.approx(np.mean(per_example_loss(data.labels, scores)), rel=1e-12)
        np.testing.assert_allclose(grad, data.inputs.T @ (sigmoid(scores) - data.labels) / data.n, rtol=1e-12)
        assert empirical_risk(data, theta) == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(risk_gradient(data, theta), grad, rtol=1e-12)

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_population_rows_match_direct_formulas(self, p):
        direction = np.linspace(1.0, -0.5, p)
        gen = GenerativeConfig(
            p=p, n=5, cov=make_covariance("reciprocal", p), beta=3.0,
            theta_star=direction / np.linalg.norm(direction), seed=0,
        )
        theta = np.linspace(-0.4, 0.7, p)
        if p <= 2:
            z, weights = gauss_hermite_tensor(128, p)
        else:
            z = make_rng(17).standard_normal((900, p))
            weights = np.full(900, 1.0 / 900)
        x = gen.cov.transform(z)
        losses = per_example_loss(sigmoid(3.0 * (x @ gen.theta_star)), x @ theta)
        rows, targets, rule_weights = population_rows(gen, 900, 17)
        np.testing.assert_array_equal(rows, x)
        surface = LogisticSurface(rows, targets, rule_weights)
        assert surface.value(surface.scores(theta)) == pytest.approx(weights @ losses, rel=1e-12)
        assert (rule_weights is None) == (p > 2)

    def signed_soft_surface(self, rng, rows=30, p=4):
        """Soft targets and weights of both signs, like the gap R_n - Rhat."""
        return LogisticSurface(rng.standard_normal((rows, p)), rng.random(rows), rng.uniform(-0.1, 0.1, rows))

    @staticmethod
    def evaluate(surface, thetas):
        scores = surface.scores(thetas)
        return surface.value(scores), surface.grad(scores)

    def test_batched_rows_equal_single_calls(self):
        rng = np.random.default_rng(10)
        surface = self.signed_soft_surface(rng)
        thetas = rng.standard_normal((7, 4)) * 2.0
        values, grads = self.evaluate(surface, thetas)
        assert values.shape == (7,) and grads.shape == (7, 4)
        for theta, value, grad in zip(thetas, values, grads):
            single_value, single_grad = self.evaluate(surface, theta)
            assert value == pytest.approx(single_value, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(grad, single_grad, rtol=1e-12, atol=1e-15)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        surface = self.signed_soft_surface(rng)
        theta = rng.standard_normal(4) * 0.8
        h = 1e-5

        def f(point):
            return surface.value(surface.scores(point))

        fd = np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h) for e in np.eye(4)])
        _, grad = self.evaluate(surface, theta)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_reused_workspace_matches_fresh_surfaces_bitwise(self):
        rng = np.random.default_rng(12)
        rows, p = 50, 4
        args = (rng.standard_normal((rows, p)), rng.random(rows), rng.uniform(-0.1, 0.1, rows))
        shared = LogisticSurface(*args)
        unweighted = LogisticSurface(*args[:2])
        blocks = [rng.standard_normal((18, p)), rng.standard_normal((1, p)), rng.standard_normal(p),
                  rng.standard_normal((18, p))]
        for block in blocks:
            for surface, make in ((shared, lambda: LogisticSurface(*args)),
                                  (unweighted, lambda: LogisticSurface(*args[:2]))):
                value, grad = self.evaluate(surface, block)
                fresh_value, fresh_grad = self.evaluate(make(), block)
                assert np.shape(value) == block.shape[:-1] and grad.shape == block.shape
                assert np.asarray(value).tobytes() == np.asarray(fresh_value).tobytes()
                assert grad.tobytes() == fresh_grad.tobytes()

    def test_scores_are_overwritten_while_values_and_gradients_survive(self):
        rng = np.random.default_rng(13)
        surface = self.signed_soft_surface(rng)
        scores = surface.scores(rng.standard_normal((6, 4)))
        value, grad = surface.value(scores), surface.grad(scores)
        kept = scores.copy(), value.copy(), grad.copy()
        for _ in range(2):
            later = surface.scores(rng.standard_normal((6, 4)) * 3.0)
            surface.value(later), surface.grad(later)
        # the later scores call wrote into the array the first one returned
        np.testing.assert_array_equal(scores, later)
        assert scores.tobytes() != kept[0].tobytes()
        for before, after in zip(kept[1:], (value, grad)):
            assert before.tobytes() == after.tobytes()

    @staticmethod
    def thetas_up_to(x, thetas, max_scores):
        """Scale each parameter so that its largest |score| on x is the given value."""
        thetas = np.atleast_2d(thetas)
        scale = np.asarray(max_scores, dtype=float) / np.abs(thetas @ x.T).max(axis=-1)
        return thetas * scale[:, None]

    def test_weighted_surface_matches_the_loss_sum(self):
        # soft targets and signed weights; the split form must equal weights @ per_example_loss
        rng = np.random.default_rng(15)
        rows, p = 40, 4
        x, targets, weights = rng.standard_normal((rows, p)), rng.random(rows), rng.uniform(-1.0, 1.0, rows) / rows
        surface = LogisticSurface(x, targets, weights)
        single = self.thetas_up_to(x, rng.standard_normal(p), 40.0)[0]
        block = self.thetas_up_to(x, rng.standard_normal((9, p)), np.linspace(0.5, 40.0, 9))
        for thetas in (single, block):
            scores = thetas @ x.T
            value, grad = self.evaluate(surface, thetas)
            np.testing.assert_allclose(value, per_example_loss(targets, scores) @ weights, rtol=1e-12, atol=1e-13)
            residual = weights * (sigmoid(scores) - targets)
            np.testing.assert_allclose(grad, residual @ x, rtol=1e-12, atol=1e-13)

    def test_unweighted_surface_is_the_mean_loss_bitwise(self):
        # the solver's iteration counts hang on the last ulp of this branch
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 60, 5)
        surface = LogisticSurface(data.inputs, data.labels)
        for thetas in (rng.standard_normal(5) * 3.0, rng.standard_normal((7, 5)) * 3.0):
            scores = surface.scores(thetas).copy()
            value, grad = surface.value(scores), surface.grad(scores)
            expected_value = np.mean(per_example_loss(data.labels, scores), axis=-1)
            assert np.asarray(value).tobytes() == np.asarray(expected_value).tobytes()
            assert grad.tobytes() == ((sigmoid(scores) - data.labels) @ data.inputs / data.n).tobytes()

    def test_extreme_scores_stay_finite(self):
        surface = LogisticSurface(np.array([[1.0], [-1.0]]), np.array([1.0, 0.3]), np.array([0.5, -0.5]))
        value, grad = self.evaluate(surface, np.array([[1e300], [-1e300]]))
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([0, 2]))

    @pytest.mark.parametrize("labels", [[0.7, 1.0], [0.0, 0.5], [np.nan, 1.0], [1.0, -0.0000001]])
    def test_rejects_fractional_labels_before_the_integer_cast(self, labels):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array(labels))

    def test_float_zero_and_one_labels_pass(self):
        data = Dataset(np.eye(2), np.array([0.0, 1.0]))
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [0, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(3), np.array([0, 1]))


def test_softplus_extremes():
    assert softplus(0.0) == pytest.approx(LOG2, abs=1e-16)
    assert softplus(800.0) == 800.0
    assert softplus(-800.0) == 0.0


def _softplus_inputs():
    # scaled normals plus the signed zeros, infinities and largest magnitudes
    edges = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308]
    return np.concatenate([10.0 * make_rng(17).standard_normal(200), edges])


def test_softplus_is_the_two_term_formula_bitwise():
    # every softplus of the package is this formula to the bit; np.logaddexp(0, s) rounds some of these scores
    # differently, so a kernel built on it fails here
    s = _softplus_inputs()
    assert softplus(s).tobytes() == (np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))).tobytes()


def test_softplus_into_may_overwrite_its_input():
    s = _softplus_inputs()
    out = s.copy()
    assert _softplus_into(out, out, np.empty_like(s)) is out
    assert out.tobytes() == softplus(s).tobytes()


def test_model_imports_no_ulln_module():
    # every import at any depth: module level, under `if`, inside functions
    found = []
    for node in ast.walk(ast.parse(MODEL_SOURCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "ulln"):
            found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "ulln"]
    assert found == []
