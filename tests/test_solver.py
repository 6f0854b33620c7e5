import numpy as np
import pytest

from ulln import Dataset, SolverOptions, empirical_risk, fit_constrained, per_example_loss, project_to_ball, sigmoid
from ulln import experiments, solver
from ulln.experiments import StudyConfig, prediction_precision, run_replication


class TestProjectToBall:
    def test_interior_point_unchanged(self):
        v = np.array([0.3, -0.4])
        np.testing.assert_array_equal(project_to_ball(v, 1.0), v)

    def test_radial_scaling(self):
        np.testing.assert_allclose(project_to_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], rtol=1e-15)

    def test_zero_radius(self):
        np.testing.assert_array_equal(project_to_ball(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])

    def test_rows_project_like_single_vectors(self):
        rng = np.random.default_rng(3)
        block = np.vstack([rng.standard_normal((5, 4)) * 2.0, np.zeros(4), [0.1, 0.0, 0.0, 0.0]])
        for radius in (0.0, 0.5, 1.0):
            projected = project_to_ball(block, radius)
            for row, single in zip(block, projected):
                np.testing.assert_array_equal(single, project_to_ball(row, radius))
            assert np.all(np.linalg.norm(projected, axis=1) <= radius + 1e-12)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            project_to_ball(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("radius", [-0.1, np.nan, np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and >= 0"):
            project_to_ball(np.array([1.0, 2.0]), radius)


def grid_min_risk(data, radius, resolution=20001):
    """1-D brute-force oracle: minimum empirical risk over the interval."""
    thetas = np.linspace(-radius, radius, resolution)
    scores = data.inputs @ thetas[None, :]
    y = data.labels[:, None]
    losses = y * (np.maximum(-scores, 0) + np.log1p(np.exp(-np.abs(scores)))) + (1 - y) * (
        np.maximum(scores, 0) + np.log1p(np.exp(-np.abs(scores)))
    )
    risks = losses.mean(axis=0)
    idx = int(np.argmin(risks))
    return thetas[idx], risks[idx]


class TestFitConstrained:
    def test_boundary_solution(self):
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]))
        fit = fit_constrained(data, 1.0)
        assert fit.theta_hat[0] == pytest.approx(1.0, abs=1e-6)
        assert fit.on_boundary
        assert fit.converged
        theta_grid, risk_grid = grid_min_risk(data, 1.0)
        assert theta_grid == pytest.approx(1.0, abs=1e-4)
        assert fit.risk <= risk_grid + 1e-10

    def test_symmetric_solution_at_zero(self):
        data = Dataset(np.array([[1.0], [1.0]]), np.array([1, 0]))
        fit = fit_constrained(data, 1.0)
        assert fit.theta_hat[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.converged

    def test_separable_instance_perfect_training_precision(self):
        rng = np.random.default_rng(11)
        n, p = 20, 50
        x = rng.standard_normal((n, p))
        theta_star = rng.standard_normal(p)
        theta_star /= np.linalg.norm(theta_star)
        from ulln import sigmoid

        probs = sigmoid(1e3 * (x @ theta_star))
        y = (rng.random(n) < probs).astype(int)
        data = Dataset(x, y)

        # perceptron oracle certifies linear separability first
        w = np.zeros(p)
        for _ in range(1000):
            margins = (2 * y - 1) * (x @ w)
            wrong = np.where(margins <= 0)[0]
            if wrong.size == 0:
                break
            i = wrong[0]
            w += (2 * y[i] - 1) * x[i]
        assert np.all((2 * y - 1) * (x @ w) > 0), "oracle says instance is not separable"

        fit = fit_constrained(data, 1.0)
        assert prediction_precision(fit.theta_hat, data) == 1.0

    def test_zero_radius_shortcut(self):
        data = Dataset(np.array([[2.0, 1.0]]), np.array([1]))
        fit = fit_constrained(data, 0.0)
        np.testing.assert_array_equal(fit.theta_hat, [0.0, 0.0])
        assert fit.converged and fit.iterations == 0

    def test_feasible_and_risk_matches_theta(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.standard_normal((30, 6)), rng.integers(0, 2, 30))
        fit = fit_constrained(data, 0.7)
        assert np.linalg.norm(fit.theta_hat) <= 0.7 + 1e-12
        assert fit.risk == pytest.approx(empirical_risk(data, fit.theta_hat), rel=1e-14)

    def test_monotone_descent_along_iteration_budget(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.standard_normal((40, 8)), rng.integers(0, 2, 40))
        risks = []
        for iters in (1, 2, 5, 10, 25, 60, 140):
            fit = fit_constrained(data, 1.0, SolverOptions(max_iters=iters, grad_map_tol=1e-14))
            assert np.linalg.norm(fit.theta_hat) <= 1.0 + 1e-12
            risks.append(fit.risk)
        assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:]))

    def test_grid_oracle_risk_agreement(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            data = Dataset(rng.standard_normal((15, 1)) * 2.0, rng.integers(0, 2, 15))
            fit = fit_constrained(data, 1.0)
            _, risk_grid = grid_min_risk(data, 1.0)
            assert abs(fit.risk - risk_grid) < 1e-5

    @pytest.mark.parametrize("radius", [-0.1, np.nan, np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        with pytest.raises(ValueError):
            fit_constrained(Dataset(np.eye(2), np.array([1, 0])), radius)

    def test_non_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.standard_normal((25, 4)), rng.integers(0, 2, 25))
        fit = fit_constrained(data, 1.0, SolverOptions(max_iters=2, grad_map_tol=1e-14))
        assert not fit.converged
        assert fit.iterations == 2


def per_trial_matvec_fit(data, radius, opts):
    """The solver loop as it was before the linear score updates: every Armijo
    trial reads X for its candidate's scores.  The risk and gradient come
    straight from the loss and link kernels, not from `LogisticSurface`.
    Returns theta, the iteration count and the number of step halvings."""
    x, n, labels = data.inputs, data.n, data.labels

    def risk_of(s):
        return float(np.mean(per_example_loss(labels, s)))

    def grad_of(s):
        return (sigmoid(s) - labels) @ x / n

    theta = np.zeros(data.p)
    risk, grad = risk_of(np.zeros(n)), grad_of(np.zeros(n))
    step = 4.0 * n / float(np.einsum("ij,ij->", x, x))
    iterations = halvings = 0
    for iterations in range(1, opts.max_iters + 1):
        backtracked = False
        for _ in range(solver._MAX_BACKTRACKS):
            candidate = project_to_ball(theta - step * grad, radius)
            direction = candidate - theta
            cand_scores = x @ candidate
            cand_risk = risk_of(cand_scores)
            if cand_risk <= risk + solver._ARMIJO_CONST * float(grad @ direction):
                break
            step *= solver._BACKTRACK_FACTOR
            backtracked = True
            halvings += 1
        else:
            break
        grad_map_norm = float(np.linalg.norm(direction)) / step
        theta, risk = candidate, cand_risk
        grad = grad_of(cand_scores)
        if grad_map_norm <= opts.grad_map_tol:
            break
        if not backtracked:
            step *= solver._STEP_GROWTH
    return theta, iterations, halvings


class TestLinearScoreUpdates:
    @staticmethod
    def problem(seed, n=80, p=12):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p)) / np.sqrt(np.arange(1, p + 1))
        theta_star = rng.standard_normal(p)
        theta_star /= np.linalg.norm(theta_star)
        return Dataset(x, (rng.random(n) < sigmoid(3.0 * (x @ theta_star))).astype(int))

    @pytest.mark.parametrize("seed, radius, on_boundary", [
        (5, 0.5, True), (9, 0.5, True), (0, 50.0, False), (2, 50.0, False),
    ])
    @pytest.mark.parametrize("grad_map_tol", [1e-7, 1e-8])
    def test_matches_the_per_trial_matvec_loop(self, seed, radius, on_boundary, grad_map_tol):
        data = self.problem(seed)
        opts = SolverOptions(max_iters=5000, grad_map_tol=grad_map_tol)
        theta, iterations, halvings = per_trial_matvec_fit(data, radius, opts)
        fit = fit_constrained(data, radius, opts)
        assert halvings > 0
        assert fit.converged and fit.on_boundary == on_boundary
        assert fit.iterations == iterations
        np.testing.assert_allclose(fit.theta_hat, theta, rtol=0, atol=1e-12)

    def test_running_scores_keep_the_risk_of_an_unconverged_fit(self, monkeypatch):
        # replicate 3's reciprocal fit runs all 1500 iterations on scores that
        # are never read back from X, so their rounding could drift
        fits = []
        real_fit = experiments.fit_constrained

        def spy(data, radius, opts):
            fit = real_fit(data, radius, opts)
            fits.append((fit, empirical_risk(data, fit.theta_hat)))
            return fit

        monkeypatch.setattr(experiments, "fit_constrained", spy)
        run_replication(StudyConfig(p=300, n=100, n_test=100, replications=4, base_seed=20260808), 3)
        fit, risk = fits[1]
        assert fit.iterations == 1500 and not fit.converged
        assert fit.risk == pytest.approx(risk, rel=1e-13, abs=0)


class TestSolverOptions:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(grad_map_tol=0.0)
