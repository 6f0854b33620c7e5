"""Lower-bound estimation of sup over the ball of |R_n(theta) - R(theta)|.

The sup is estimated from below by multistart projected ascent on both
signed gaps +/-(R_n - Rhat), where Rhat sums the loss over the frozen
`population_rows`; for p <= 2 an exhaustive grid oracle on their
quadrature rule is available for cross-checks.  Both estimators build
one surface, the gap: a weighted `LogisticSurface` over the data and
population rows stacked, so each value and gradient takes the surface's
split weighted form: one softplus tail and one sigmoid pass over the
scores, the rest matrix products.  On a Monte Carlo sample the search
reports the standard error of Rhat at its arg-sup.  No exactness is
claimed for p > 2 — a lower bound is what is needed to sanity-check the
upper bounds.

Both estimators read only their arguments, and the search draws only
from streams derived from its `seed`.  So `ulln deviation` runs its
replicates on as many threads as the process has CPUs, and its output is
identical for any CPU or BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import GenerativeConfig, derive_seed, label_probabilities, make_rng
from .model import Dataset, LogisticSurface, per_example_loss
from .quadrature import gauss_hermite_tensor
from .solver import project_to_ball

ASCENT_ITERS = 120
ASCENT_STEP = 0.1  # step at iteration k is ASCENT_STEP / sqrt(k)
QUADRATURE_NODES_PER_AXIS = 128


@dataclass(frozen=True)
class DeviationEstimate:
    sup_value: float
    arg_theta: np.ndarray
    method: str  # "multistart_ascent" | "grid"
    starts: int
    pop_risk_stderr: float


def population_rows(gen: GenerativeConfig, budget: int, seed: int):
    """The rows (x, targets, weights) of the population risk R(theta) = E[loss] under `gen`.

    The rows are x = Lambda^{1/2} z.  For p <= 2 the z are the nodes of a
    tensorized 128-node-per-axis Gauss-Hermite rule with its weights,
    giving a deterministic risk; pruned at the `quadrature` weight floor,
    the rule has 66 rows at p = 1 and 3260 at p = 2.  Otherwise they are
    `budget` standard normal draws from the `make_rng(seed)` stream with
    weights None, each row weighing 1/budget, drawn once so that every
    evaluation sees the same sample.  The targets are the exact label
    probabilities sigma(beta <x, theta*>), so the label is integrated out
    as a Bernoulli mixture.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if gen.p <= 2:
        z, weights = gauss_hermite_tensor(QUADRATURE_NODES_PER_AXIS, gen.p)
    else:
        z, weights = make_rng(seed).standard_normal((budget, gen.p)), None
    x = gen.cov.transform(z)
    return x, label_probabilities(x, gen.theta_star, gen.beta), weights


def _gap_surface(data: Dataset, x: np.ndarray, targets: np.ndarray, weights: np.ndarray | None) -> LogisticSurface:
    """R_n - Rhat as one surface: data rows weighted +1/n, population rows -w (-1/rows when w is None)."""
    pop_weights = np.full(x.shape[0], 1.0 / x.shape[0]) if weights is None else weights
    return LogisticSurface(
        np.vstack([data.inputs, x]),
        np.concatenate([data.labels, targets]),
        np.concatenate([np.full(data.n, 1.0 / data.n), -pop_weights]),
    )


def _uniform_ball(p: int, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((count, p))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / p)
    return g * radii[:, None]


def sup_deviation_search(
    data: Dataset,
    gen: GenerativeConfig,
    radius: float,
    starts: int,
    budget: int,
    seed: int,
    ascent_iters: int = ASCENT_ITERS,
) -> DeviationEstimate:
    """Multistart projected ascent on +/-(R_n - Rhat) over the ball.

    Start points are `starts` uniform draws from the ball plus the origin
    and +/-theta_star (projected to the ball).  The best absolute gap
    over every iterate visited is returned; it lower-bounds the true sup
    up to the Monte Carlo error of Rhat, whose standard error at the
    arg-sup is `pop_risk_stderr` (0 for the quadrature rule, inf for a
    budget of 1).
    """
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    if starts < 1:
        raise ValueError("starts must be a positive integer")
    if ascent_iters < 0:
        raise ValueError("ascent_iters must be >= 0")
    if gen.p != data.p:
        raise ValueError("generative config dimension does not match data")

    x, targets, weights = population_rows(gen, budget, derive_seed(seed, 0x9E3779B9))
    gap = _gap_surface(data, x, targets, weights)

    rng = make_rng(derive_seed(seed, 0x51ED270))
    anchor = project_to_ball(gen.theta_star, radius)
    start_points = [np.zeros(data.p), anchor, -anchor, *_uniform_ball(data.p, radius, starts, rng)]

    # path 2i climbs +gap and path 2i+1 climbs -gap from start i; all paths advance together
    thetas = np.repeat(np.asarray(start_points), 2, axis=0)
    signs = np.tile([1.0, -1.0], len(start_points))[:, None]
    best_values = np.full(thetas.shape[0], -np.inf)
    best_thetas = thetas.copy()

    for k in range(1, ascent_iters + 2):  # the last pass only scores the final iterates, and takes no gradient
        s = gap.scores(thetas)
        values = gap.value(s)
        better = np.abs(values) > best_values
        best_values[better] = np.abs(values[better])
        best_thetas[better] = thetas[better]
        if k <= ascent_iters:
            thetas = project_to_ball(thetas + (ASCENT_STEP / np.sqrt(k)) * (signs * gap.grad(s)), radius)

    best = int(np.argmax(best_values))
    if weights is None and budget > 1:  # the Monte Carlo error of Rhat at the arg-sup
        stderr = float(np.std(per_example_loss(targets, best_thetas[best] @ x.T), ddof=1) / np.sqrt(budget))
    else:  # 0 for the exact rule; one draw gives no estimate
        stderr = 0.0 if weights is not None else np.inf
    return DeviationEstimate(float(best_values[best]), best_thetas[best], "multistart_ascent", starts, stderr)


def sup_deviation_grid(
    data: Dataset,
    gen: GenerativeConfig,
    radius: float,
    resolution: int,
) -> DeviationEstimate:
    """Exhaustive grid oracle over the bounding box of the ball (p <= 2 only)."""
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if gen.p != data.p:
        raise ValueError("generative config dimension does not match data")
    if data.p > 2:
        raise ValueError("grid oracle supports p <= 2 only")

    # p <= 2, so the population rows are the quadrature rule: budget and seed are unused
    gap = _gap_surface(data, *population_rows(gen, 1, 0))
    if radius == 0.0:
        theta0 = np.zeros(data.p)
        return DeviationEstimate(abs(float(gap.value(gap.scores(theta0)))), theta0, "grid", 1, 0.0)

    axis = np.linspace(-radius, radius, resolution)
    if data.p == 1:
        thetas = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        thetas = np.stack([g1.ravel(), g2.ravel()], axis=1)
        thetas = thetas[np.einsum("ij,ij->i", thetas, thetas) <= radius**2]

    best_value = -np.inf
    best_theta = np.zeros(data.p)
    chunk = max(1, int(2**22 // gap.x.shape[0]))
    for lo in range(0, thetas.shape[0], chunk):
        block = thetas[lo : lo + chunk]
        gaps = np.abs(gap.value(gap.scores(block)))
        idx = int(np.argmax(gaps))
        if gaps[idx] > best_value:
            best_value = float(gaps[idx])
            best_theta = block[idx].copy()

    return DeviationEstimate(best_value, best_theta, "grid", thetas.shape[0], 0.0)
