"""Logistic risk: per-example loss, empirical risk, gradient, Laplacian,
and `LogisticSurface`, the one loss-and-gradient surface behind the
empirical risk, the solver's objective and the deviation gap.  The
module imports no other ulln module.

Every loss goes through the softplus form

    loss(y, s) = y*softplus(-s) + (1-y)*softplus(s),
    softplus(s) = max(s, 0) + log1p(exp(-|s|)),

which is exact and overflow-free for any finite score (the naive
-y*log(sigma) - (1-y)*log(1-sigma) overflows past |s| ~ 36).  The loss
and the link go through two in-place kernels:

* `_softplus_into` writes softplus(s); its helper `_tail_from_abs` turns
  |s| into the tail log1p(exp(-|s|)), the package's one log1p.  It
  serves `softplus`, the heat-semigroup gap of `theory_checks` and
  `_loss_into`, whose two softplus terms share the tail bit for bit;
  `_loss_into` serves `per_example_loss` and the unweighted surface (the
  empirical risk and the solver's objective).  A weighted surface (the
  deviation gap) sums the same loss in the split form

      loss(y, s) = |s|/2 + log1p(exp(-|s|)) + (1/2 - y) s,

  whose |s| and s terms are products with weights fixed when the
  surface is built.  It holds |s| for its product already, so it calls
  `_tail_from_abs` alone.
* `_sigmoid_into` writes the logistic link sigma(t) = 1/(1+exp(-t)) for
  `sigmoid`, the gradients of both surface branches and the gap surface
  of `theory_checks`.  It is exactly 0 far in the left tail, where
  exp(-t) overflows to inf, and exactly 1 far in the right tail, with no
  floating-point warning on either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sigmoid_into(t, out):
    """Write sigma(t) = 1 / (1 + exp(-t)) into `out`; `t` may be `out` itself.

    exp(-t) overflows to inf for t below about -709, giving exactly 0, and
    falls below half an ulp of 1 for t above about 37, giving exactly 1;
    neither tail raises a floating-point warning.  NaN gives NaN.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.negative(t, out=out)
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def sigmoid(t):
    """Logistic link 1/(1+exp(-t)) by `_sigmoid_into`: exactly 0 and 1 far
    in the left and right tails, with no warning on either."""
    t = np.asarray(t, dtype=float)
    out = _sigmoid_into(t, np.empty_like(t))
    return float(out) if out.ndim == 0 else out


def sigmoid_derivative(t):
    """sigma'(t) = sigma(t)(1 - sigma(t)), computed as a / (1 + a)**2 with
    a = exp(-|t|): one exp per element, and stable on both tails."""
    t = np.asarray(t, dtype=float)
    a = np.exp(-np.abs(t))
    out = a / (1.0 + a) ** 2
    return float(out) if out.ndim == 0 else out


def _tail_from_abs(tail):
    """Turn `tail`, holding |s|, into the softplus tail log1p(exp(-|s|)) in place."""
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return tail


def _softplus_into(s, out, tail):
    """Write softplus(s) = max(s, 0) + log1p(exp(-|s|)) into `out`, leaving
    the tail log1p(exp(-|s|)) in `tail`; `out` may be `s` itself."""
    _tail_from_abs(np.abs(s, out=tail))
    np.maximum(s, 0.0, out=out)
    out += tail
    return out


def softplus(s):
    """log(1+exp(s)) computed as max(s,0) + log1p(exp(-|s|))."""
    s = np.asarray(s, dtype=float)
    out = _softplus_into(s, np.empty_like(s), np.empty_like(s))
    return float(out) if out.ndim == 0 else out


def _loss_into(y, one_minus_y, s, out, tail, tmp):
    """Write y*softplus(-s) + (1-y)*softplus(s) into `out`.

    softplus(-s) is max(-s, 0) plus the tail log1p(exp(-|s|)) that
    `_softplus_into` leaves in `tail` while it writes softplus(s) into
    `tmp`; `tail` and `tmp` are scratch of `out`'s shape and `s` is only
    read.  Each step is the operation of the two-softplus formula, so the
    result is bitwise the same.
    """
    _softplus_into(s, tmp, tail)
    tmp *= one_minus_y
    np.negative(s, out=out)
    np.maximum(out, 0.0, out=out)
    out += tail
    out *= y
    out += tmp
    return out


def per_example_loss(y, score):
    """Cross-entropy loss of one observation at the given linear score."""
    y = np.asarray(y, dtype=float)
    score = np.asarray(score, dtype=float)
    out, tail, tmp = (np.empty(np.broadcast_shapes(y.shape, score.shape)) for _ in range(3))
    _loss_into(y, 1.0 - y, score, out, tail, tmp)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Dataset:
    """Design matrix (n x p) with binary labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        labels = np.asarray(self.labels)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty n x p matrix")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs must be finite")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("labels must be a vector of length n")
        # checked before the integer cast, which would truncate 0.7 to 0
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]


def _check_theta(data_p: int, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != data_p:
        raise ValueError(f"theta has dimension {theta.shape[0]}, expected {data_p}")
    return theta


class LogisticSurface:
    """The weighted logistic surface F(theta) = sum_i w_i loss(t_i, <x_i, theta>).

    Rows x_i carry targets t_i in [0, 1] (hard labels or label
    probabilities) and signed weights w_i; `weights=None` weights every
    row by 1/rows, as for a sample mean.  Hard labels with equal weights
    give the empirical risk, and stacked with label probabilities on the
    population rows (equal weights on a Monte Carlo sample or Gauss-Hermite
    weights), with opposite signs, the gap between the empirical and the
    population risk.

    Every evaluation takes scores: `scores` maps one parameter vector (p,)
    or a block (m, p) to scores (rows,) or (m, rows), and `value` and
    `grad` take either shape and return a leading axis of m.  They share a
    workspace of four score-shaped arrays (scores, losses, the softplus
    tail and the residual), allocated again only when the score shape
    changes.  The unweighted surface takes its value from the mean of
    `_loss_into`'s losses, which uses the losses, tail and residual
    arrays, and its gradient from the residual sigma(s) - t.  A weighted
    surface takes its value from the split form of the module docstring,
    |s| @ w/2 + tail @ w + s @ (w/2 - w t), in the tail array alone, and
    its gradient from sigma(s) @ (w x) - (w t) @ x in the residual array;
    w/2, w/2 - w t, w x and (w t) @ x are built once.
    `scores` returns the workspace's array, which the next `scores` call
    overwrites; what the others return is fresh.  A surface must not be
    evaluated from two threads at once; give each thread its own.
    """

    def __init__(self, x: np.ndarray, targets: np.ndarray, weights: np.ndarray | None = None):
        self.x = np.asarray(x, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self._work = None
        if self.weights is None:
            self._one_minus_targets = 1.0 - self.targets
        else:
            weighted_targets = self.weights * self.targets
            self._half_weights = self.weights / 2.0
            self._linear_weights = self._half_weights - weighted_targets
            self._weighted_x = self.weights[:, None] * self.x
            self._target_grad = weighted_targets @ self.x

    def _workspace(self, shape: tuple) -> tuple:
        if self._work is None or self._work[0].shape != shape:
            self._work = tuple(np.empty(shape) for _ in range(4))
        return self._work

    def scores(self, thetas: np.ndarray) -> np.ndarray:
        """thetas @ x.T in the workspace; the next `scores` call overwrites the returned array."""
        thetas = np.asarray(thetas, dtype=float)
        out = self._workspace(thetas.shape[:-1] + self.targets.shape)[0]
        return np.matmul(thetas, self.x.T, out=out)

    def value(self, scores: np.ndarray):
        """F at the given scores."""
        _, losses, tail, residual = self._workspace(scores.shape)
        if self.weights is None:
            _loss_into(self.targets, self._one_minus_targets, scores, losses, tail, residual)
            return np.mean(losses, axis=-1)
        np.abs(scores, out=tail)
        value = tail @ self._half_weights
        value += _tail_from_abs(tail) @ self.weights
        value += scores @ self._linear_weights
        return value

    def grad(self, scores: np.ndarray) -> np.ndarray:
        """grad F = sum_i w_i (sigma(s_i) - t_i) x_i at the given scores."""
        residual = _sigmoid_into(scores, self._workspace(scores.shape)[3])
        if self.weights is None:
            residual -= self.targets
            return residual @ self.x / self.x.shape[0]
        return residual @ self._weighted_x - self._target_grad


def empirical_risk(data: Dataset, theta: np.ndarray) -> float:
    """Mean cross-entropy loss over the sample."""
    surface = LogisticSurface(data.inputs, data.labels)
    return float(surface.value(surface.scores(_check_theta(data.p, theta))))


def risk_gradient(data: Dataset, theta: np.ndarray) -> np.ndarray:
    """(1/n) sum_i (sigma(<X_i, theta>) - Y_i) X_i."""
    surface = LogisticSurface(data.inputs, data.labels)
    return surface.grad(surface.scores(_check_theta(data.p, theta)))


def risk_laplacian(data: Dataset, theta: np.ndarray) -> float:
    """(1/n) sum_i sigma(1-sigma)(<X_i, theta>) ||X_i||^2, always >= 0."""
    theta = _check_theta(data.p, theta)
    scores = data.inputs @ theta
    sq_norms = np.einsum("ij,ij->i", data.inputs, data.inputs)
    return float(np.mean(sigmoid_derivative(scores) * sq_norms))
