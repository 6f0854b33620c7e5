"""Projected gradient descent with Armijo backtracking for the
ball-constrained empirical risk minimization problem.

Stationarity is certified through the gradient mapping
    ||theta - P_B[R](theta - s * grad)|| / s
rather than the raw gradient, since minimizers typically sit on the
boundary of the ball.  The objective is non-increasing across accepted
iterates and every iterate is feasible.

The projection is a scaling, P_B[R](v) = c v with c = min(1, R / ||v||),
so a candidate's scores are c (scores - s X grad): each iteration reads
the design twice, once for X grad and once for the gradient, however
often it halves the step.  The risk and gradient come from those scores
through `LogisticSurface.value` and `grad`, on the surface's workspace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, LogisticSurface

BOUNDARY_TOL = 1e-8
_STEP_GROWTH = 2.0
_BACKTRACK_FACTOR = 0.5
_ARMIJO_CONST = 1e-4
_MAX_BACKTRACKS = 80


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 20000
    grad_map_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.grad_map_tol < np.inf:
            raise ValueError("grad_map_tol must be finite and > 0")


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    risk: float
    iterations: int
    converged: bool
    on_boundary: bool
    grad_map_norm: float


def _ball_scale(v: np.ndarray, radius: float) -> np.ndarray:
    """The factor min(1, radius / ||v||) that projects v onto the ball, row-wise over the last axis."""
    norm = np.linalg.norm(v, axis=-1)
    outside = norm > radius
    return np.where(outside, radius / np.where(outside, norm, 1.0), 1.0)


def project_to_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {theta : ||theta|| <= radius}, row-wise over the last axis."""
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    v = np.asarray(v, dtype=float)
    return _ball_scale(v, radius)[..., None] * v


def fit_constrained(data: Dataset, radius: float, opts: SolverOptions | None = None) -> FitResult:
    """Minimize the empirical risk over the ball of the given radius.

    Runs projected gradient descent from the origin, starting at the step
    4n/||X||_F^2, with Armijo backtracking (sufficient decrease 1e-4 *
    <grad, step>, halving the step), doubling the step after clean
    acceptances.  Stops once the gradient-mapping norm at the accepted
    step size drops below ``opts.grad_map_tol``; reports
    ``converged=False`` after ``opts.max_iters`` otherwise.
    """
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    opts = opts or SolverOptions()
    x, n = data.inputs, data.n
    surface = LogisticSurface(x, data.labels)
    theta = np.zeros(data.p)
    scores = np.zeros(n)
    risk = float(surface.value(scores))
    if radius == 0.0:
        return FitResult(theta, risk, 0, True, True, 0.0)
    grad = surface.grad(scores)

    # inverse of the global Lipschitz bound ||X||_F^2 / (4n) for the risk gradient
    step = 4.0 * n / float(np.einsum("ij,ij->", x, x))

    converged = False
    grad_map_norm = float("inf")
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        x_grad = x @ grad  # with the gradient below, the iteration's only passes over X
        backtracked = False
        for _ in range(_MAX_BACKTRACKS):
            moved = theta - step * grad
            scale = _ball_scale(moved, radius)
            candidate = scale * moved  # project_to_ball(moved, radius), bit for bit
            direction = candidate - theta
            decrease = float(grad @ direction)  # <= 0 by the projection property
            cand_scores = scale * (scores - step * x_grad)
            cand_risk = float(surface.value(cand_scores))
            if cand_risk <= risk + _ARMIJO_CONST * decrease:
                break
            step *= _BACKTRACK_FACTOR
            backtracked = True
        else:
            break  # step underflowed; report best iterate without a certificate

        grad_map_norm = float(np.linalg.norm(direction)) / step
        theta, scores, risk = candidate, cand_scores, cand_risk
        grad = surface.grad(scores)
        if grad_map_norm <= opts.grad_map_tol:
            converged = True
            break
        if not backtracked:
            step *= _STEP_GROWTH

    on_boundary = float(np.linalg.norm(theta)) >= radius - BOUNDARY_TOL
    return FitResult(theta, risk, iterations, converged, on_boundary, grad_map_norm)
