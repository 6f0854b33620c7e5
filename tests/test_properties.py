"""Property tests of the invariants the package claims: finite losses on
any score, feasible and idempotent projection, a solver that never ends
above its starting risk and never raises it from one iterate to the next,
and a bit-exact dataset format."""
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ulln import (
    Dataset,
    LogisticSurface,
    SolverOptions,
    empirical_risk,
    fit_constrained,
    per_example_loss,
    project_to_ball,
    read_dataset,
    write_dataset,
)

LOG2 = math.log(2.0)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
shapes = st.tuples(st.integers(1, 6), st.integers(1, 5))


@PROPERTY_SETTINGS
@given(scores=arrays(float, st.integers(1, 20), elements=finite), data=st.data())
def test_loss_and_gradient_are_finite_for_any_score(scores, data):
    rows = scores.size
    targets = data.draw(arrays(float, rows, elements=st.floats(0.0, 1.0)))
    x = data.draw(arrays(float, (rows, 3), elements=st.floats(-1e3, 1e3)))
    assert np.all(np.isfinite(per_example_loss(targets, scores)))
    surface = LogisticSurface(x, targets)
    assert np.isfinite(surface.value(scores))
    assert np.all(np.isfinite(surface.grad(scores)))


@PROPERTY_SETTINGS
@given(v=arrays(float, shapes, elements=st.floats(-1e6, 1e6)), scale=st.floats(0.0, 1.0))
def test_projection_is_feasible_and_idempotent_row_wise(v, scale):
    # radii up to the largest row norm put rows on both sides of the sphere
    radius = scale * float(np.max(np.linalg.norm(v, axis=-1)))
    projected = project_to_ball(v, radius)
    assert np.all(np.linalg.norm(projected, axis=-1) <= radius * (1 + 1e-15))
    np.testing.assert_allclose(project_to_ball(projected, radius), projected, rtol=1e-15, atol=0.0)
    for row, projected_row in zip(v, projected):
        np.testing.assert_array_equal(project_to_ball(row, radius), projected_row)


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 30),
    p=st.integers(1, 5),
    radius=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_feasible_and_never_above_the_origin_risk(n, p, radius, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.standard_normal((n, p)), rng.integers(0, 2, n))
    fit = fit_constrained(data, radius, SolverOptions(max_iters=500))
    origin_risk = empirical_risk(data, np.zeros(p))
    # a mean of n copies of log 2, exact up to summation rounding
    assert math.isclose(origin_risk, LOG2, rel_tol=1e-15)
    assert np.linalg.norm(fit.theta_hat) <= radius * (1 + 1e-15)
    assert fit.risk <= origin_risk
    assert math.isclose(fit.risk, empirical_risk(data, fit.theta_hat), rel_tol=1e-12)


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 30),
    p=st.integers(1, 5),
    radius=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_iterate_is_feasible_and_risk_never_increases(n, p, radius, seed):
    # the solver is deterministic, so a budget of k iterations stops at the k-th iterate
    rng = np.random.default_rng(seed)
    data = Dataset(rng.standard_normal((n, p)), rng.integers(0, 2, n))
    risks = []
    for k in range(1, 13):
        fit = fit_constrained(data, radius, SolverOptions(max_iters=k))
        assert np.linalg.norm(fit.theta_hat) <= radius * (1 + 1e-15)
        assert fit.iterations <= k
        risks.append(fit.risk)
    assert all(later <= earlier for earlier, later in zip(risks, risks[1:]))


@PROPERTY_SETTINGS
@given(shape=shapes, data=st.data())
def test_dataset_io_round_trips_bit_exactly(shape, data):
    n, p = shape
    any_finite = st.floats(allow_nan=False, allow_infinity=False)
    x = data.draw(arrays(float, (n, p), elements=any_finite))
    y = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    theta_star = data.draw(arrays(float, p, elements=st.floats(allow_nan=True, allow_infinity=True)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.ulln")
        write_dataset(path, Dataset(x, y), theta_star)
        back, back_theta = read_dataset(path)
    assert back.inputs.tobytes() == x.tobytes()
    assert back.labels.tobytes() == y.tobytes()
    assert back_theta.tobytes() == theta_star.tobytes()
