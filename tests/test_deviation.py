import warnings

import numpy as np
import pytest

import ulln.deviation
from ulln import GenerativeConfig, generate_dataset, make_covariance
from ulln.datagen import derive_seed, make_rng, sample_theta_star
from ulln.deviation import (
    ASCENT_STEP,
    DeviationEstimate,
    _gap_surface,
    _uniform_ball,
    population_rows,
    sup_deviation_grid,
    sup_deviation_search,
)
from ulln.model import LogisticSurface, per_example_loss, sigmoid
from ulln.solver import project_to_ball


def make_instance(p, n, seed, cov_kind="identity", beta=2.0):
    cov = make_covariance(cov_kind, p)
    theta_star = sample_theta_star(p, derive_seed(seed, 0))
    gen = GenerativeConfig(p=p, n=n, cov=cov, beta=beta, theta_star=theta_star, seed=derive_seed(seed, 1))
    data, _ = generate_dataset(gen)
    return data, gen


class LossSumSurface(LogisticSurface):
    """A weighted surface evaluated loss by loss, as weights @ per_example_loss,
    with the gradient weights @ ((sigma(s) - t) x): the oracle of the split form."""

    def value(self, scores):
        if self.weights is None:
            return super().value(scores)
        return per_example_loss(self.targets, scores) @ self.weights

    def grad(self, scores):
        if self.weights is None:
            return super().grad(scores)
        return (self.weights * (sigmoid(scores) - self.targets)) @ self.x


class TestSplitForm:
    """The deviation estimators on the split weighted form agree with the loss-by-loss sum."""

    @pytest.mark.parametrize("rep", range(6))
    def test_search_matches_the_loss_sum(self, rep, monkeypatch):
        # the criterion-5 shape: p = 5, n = 500, reciprocal spectrum, beta = 1e3, 6 starts, budget 4000
        data, gen = make_instance(5, 500, 700 + rep, cov_kind="reciprocal", beta=1e3)
        split = sup_deviation_search(data, gen, 1.0, starts=6, budget=4000, seed=rep)
        monkeypatch.setattr(ulln.deviation, "LogisticSurface", LossSumSurface)
        loss_sum = sup_deviation_search(data, gen, 1.0, starts=6, budget=4000, seed=rep)
        assert abs(split.sup_value - loss_sum.sup_value) < 1e-12

    def test_grid_matches_the_loss_sum(self, monkeypatch):
        data, gen = make_instance(1, 40, 31, cov_kind="reciprocal", beta=3.0)
        split = sup_deviation_grid(data, gen, 1.5, 2000)
        monkeypatch.setattr(ulln.deviation, "LogisticSurface", LossSumSurface)
        loss_sum = sup_deviation_grid(data, gen, 1.5, 2000)
        assert abs(split.sup_value - loss_sum.sup_value) < 1e-12


def _search_with_a_gradient_every_pass(data, gen, radius, starts, budget, seed, ascent_iters):
    """The multistart ascent with value and gradient on every pass, the final scoring pass included."""
    x, targets, weights = population_rows(gen, budget, derive_seed(seed, 0x9E3779B9))
    gap = _gap_surface(data, x, targets, weights)
    anchor = project_to_ball(gen.theta_star, radius)
    ball = _uniform_ball(data.p, radius, starts, make_rng(derive_seed(seed, 0x51ED270)))
    thetas = np.repeat(np.asarray([np.zeros(data.p), anchor, -anchor, *ball]), 2, axis=0)
    signs = np.tile([1.0, -1.0], starts + 3)[:, None]
    best_values, best_thetas = np.full(thetas.shape[0], -np.inf), thetas.copy()
    for k in range(1, ascent_iters + 2):
        s = gap.scores(thetas)
        values, grads = gap.value(s), gap.grad(s)
        better = np.abs(values) > best_values
        best_values[better], best_thetas[better] = np.abs(values[better]), thetas[better]
        if k <= ascent_iters:
            thetas = project_to_ball(thetas + (ASCENT_STEP / np.sqrt(k)) * (signs * grads), radius)
    best = int(np.argmax(best_values))
    if weights is None:
        stderr = float(np.std(per_example_loss(targets, best_thetas[best] @ x.T), ddof=1) / np.sqrt(budget))
    else:
        stderr = 0.0
    return DeviationEstimate(float(best_values[best]), best_thetas[best], "multistart_ascent", starts, stderr)


class TestSearch:
    @pytest.mark.parametrize("p, ascent_iters", [(2, 9), (5, 9), (3, 0)])
    def test_takes_one_gradient_per_ascent_step_and_keeps_its_estimate(self, p, ascent_iters, monkeypatch):
        data, gen = make_instance(p, 40, 20 + p, cov_kind="reciprocal", beta=3.0)
        args = (data, gen, 1.0, 3, 600, 5, ascent_iters)
        want = _search_with_a_gradient_every_pass(*args)
        grad, calls = LogisticSurface.grad, []
        monkeypatch.setattr(LogisticSurface, "grad", lambda surface, scores: calls.append(1) or grad(surface, scores))
        got = sup_deviation_search(*args)
        assert len(calls) == ascent_iters
        assert float.hex(got.sup_value) == float.hex(want.sup_value)
        assert got.arg_theta.tobytes() == want.arg_theta.tobytes()
        assert float.hex(got.pop_risk_stderr) == float.hex(want.pop_risk_stderr)
        assert (got.method, got.starts) == (want.method, want.starts)

    def test_radius_zero_gap_vanishes(self):
        data, gen = make_instance(3, 15, 1)
        est = sup_deviation_search(data, gen, 0.0, starts=1, budget=100, seed=0)
        assert est.sup_value <= 1e-15  # both risks are log 2 up to rounding
        np.testing.assert_array_equal(est.arg_theta, np.zeros(3))

    def test_matches_grid_oracle_1d(self):
        for seed in (3, 4, 5):
            data, gen = make_instance(1, 20, seed)
            grid = sup_deviation_grid(data, gen, 1.0, 10_000)
            search = sup_deviation_search(data, gen, 1.0, starts=8, budget=500, seed=seed)
            assert abs(grid.sup_value - search.sup_value) < 1e-3

    def test_more_starts_never_worse(self):
        data, gen = make_instance(4, 25, 9, cov_kind="reciprocal")
        few = sup_deviation_search(data, gen, 1.0, starts=1, budget=2000, seed=77)
        many = sup_deviation_search(data, gen, 1.0, starts=64, budget=2000, seed=77)
        assert many.sup_value >= few.sup_value - 1e-12

    def test_monotone_in_radius(self):
        data, gen = make_instance(3, 30, 10, cov_kind="reciprocal")
        small = sup_deviation_search(data, gen, 0.5, starts=6, budget=3000, seed=5)
        large = sup_deviation_search(data, gen, 1.5, starts=6, budget=3000, seed=5)
        assert large.sup_value >= small.sup_value - 2 * small.pop_risk_stderr

    def test_lower_bounded_by_origin_gap(self):
        # theta = 0 is always among the start points
        from ulln.model import empirical_risk

        data, gen = make_instance(4, 18, 30, cov_kind="reciprocal")
        est = sup_deviation_search(data, gen, 1.0, starts=2, budget=3000, seed=8)
        pop = LogisticSurface(*population_rows(gen, 3000, 8))
        origin_gap = abs(empirical_risk(data, np.zeros(4)) - pop.value(pop.scores(np.zeros(4))))
        assert est.sup_value >= origin_gap - 2 * est.pop_risk_stderr

    def test_pop_risk_stderr_is_the_sample_standard_error_at_the_arg_sup(self):
        data, gen = make_instance(3, 30, 14, cov_kind="reciprocal")
        est = sup_deviation_search(data, gen, 1.0, starts=3, budget=700, seed=9)
        x, targets, _ = population_rows(gen, 700, derive_seed(9, 0x9E3779B9))
        losses = per_example_loss(targets, est.arg_theta @ x.T)
        assert est.pop_risk_stderr == np.std(losses, ddof=1) / np.sqrt(700)

    @pytest.mark.parametrize("p", (1, 2))
    def test_pop_risk_stderr_of_the_quadrature_rule_is_zero(self, p):
        data, gen = make_instance(p, 20, 15)
        assert sup_deviation_search(data, gen, 1.0, starts=2, budget=300, seed=1).pop_risk_stderr == 0.0

    def test_pop_risk_stderr_of_one_draw_is_infinite(self):
        data, gen = make_instance(3, 20, 16)
        est = sup_deviation_search(data, gen, 1.0, starts=2, budget=1, seed=1)
        assert est.pop_risk_stderr == np.inf and np.isfinite(est.sup_value)

    def test_population_targets_at_the_largest_beta_follow_the_sign_without_a_warning(self):
        _, gen = make_instance(3, 10, 17, beta=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, targets, _ = population_rows(gen, 300, 1)
        np.testing.assert_array_equal(targets, x @ gen.theta_star > 0)

    def test_feasible_argmax(self):
        data, gen = make_instance(3, 20, 11, cov_kind="reciprocal")
        est = sup_deviation_search(data, gen, 0.8, starts=4, budget=1500, seed=2)
        assert np.linalg.norm(est.arg_theta) <= 0.8 + 1e-12
        assert est.method == "multistart_ascent"
        assert est.sup_value >= 0

    def test_dimension_mismatch(self):
        data, _ = make_instance(3, 10, 12)
        _, gen_other = make_instance(2, 10, 13)
        with pytest.raises(ValueError):
            sup_deviation_search(data, gen_other, 1.0, starts=1, budget=100, seed=0)

    @pytest.mark.parametrize("radius", [-0.1, np.nan, np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        data, gen = make_instance(1, 30, 3)
        with pytest.raises(ValueError, match="radius must be finite and >= 0"):
            sup_deviation_search(data, gen, radius, starts=1, budget=100, seed=0)

    def test_ascent_iters_must_be_nonnegative(self):
        data, gen = make_instance(1, 30, 3)
        with pytest.raises(ValueError, match="ascent_iters must be >= 0"):
            sup_deviation_search(data, gen, 1.0, starts=1, budget=100, seed=0, ascent_iters=-1)
        # 0 only scores the starts
        est = sup_deviation_search(data, gen, 1.0, starts=1, budget=100, seed=0, ascent_iters=0)
        assert 0 <= est.sup_value < np.inf

    def test_shrinks_with_sample_size(self):
        # deviation estimates fall as n grows at fixed dimension
        cov_kind = "reciprocal"
        sups = {}
        for n in (250, 4000):
            values = []
            for rep in range(50):
                data, gen = make_instance(5, n, 1000 * n + rep, cov_kind=cov_kind, beta=1e3)
                est = sup_deviation_search(
                    data, gen, 1.0, starts=3, budget=2000, seed=rep, ascent_iters=60
                )
                values.append(est.sup_value)
            sups[n] = float(np.median(values))
        assert sups[4000] < sups[250]


class TestGrid:
    def test_radius_zero(self):
        data, gen = make_instance(2, 10, 20)
        est = sup_deviation_grid(data, gen, 0.0, 100)
        assert est.sup_value <= 1e-15  # both risks are log 2 up to rounding

    def test_self_refinement_1d(self):
        data, gen = make_instance(1, 20, 21)
        coarse = sup_deviation_grid(data, gen, 1.0, 10_000)
        fine = sup_deviation_grid(data, gen, 1.0, 100_000)
        assert abs(coarse.sup_value - fine.sup_value) < 1e-4

    def test_nondecreasing_in_radius(self):
        data, gen = make_instance(2, 15, 22)
        values = [sup_deviation_grid(data, gen, r, 80).sup_value for r in (0.25, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_counts_feasible_points_only(self):
        data, gen = make_instance(2, 10, 23)
        est = sup_deviation_grid(data, gen, 1.0, 51)
        assert est.starts < 51**2  # corners of the box are infeasible
        assert est.method == "grid"
        assert est.pop_risk_stderr == 0.0

    def test_rejects_high_dimension(self):
        data, gen = make_instance(3, 10, 24)
        with pytest.raises(ValueError):
            sup_deviation_grid(data, gen, 1.0, 10)

    @pytest.mark.parametrize("radius", [-0.1, np.nan, np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        data, gen = make_instance(1, 30, 3)
        with pytest.raises(ValueError, match="radius must be finite and >= 0"):
            sup_deviation_grid(data, gen, radius, 50)
