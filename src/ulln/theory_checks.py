"""Numerical verification of the Gaussian-analysis identities behind the
uniform concentration bound.

Checks covered:

* Stein/Hermite integration-by-parts identities over a fixed catalog of
  test functions (polynomials, the logistic link, its derivative, and an
  affine-composed link);
* the heat-semigroup smoothing identity
      int_0^t s^{-1} E[f(sqrt(s) z)(z^2 - 1)] ds = 2(E[f(sqrt(t) z)] - f(0)),
  integrated in s on [0, t]: by Stein's lemma the integrand is
  E[f''(sqrt(s) z)], bounded at s = 0 and analytic in s;
* the second-order (Ito) expansion of the smoothed logistic loss at any
  dimension: the loss reads w only through <x, w>, so both sides are
  one-dimensional Gauss-Hermite means, the right side's time integral on
  the Gauss-Legendre rule on [0, t];
* the Kullback-Leibler divergence of shifted isotropic Gaussians;
* the moment bound for the subgaussian width envelope of the loss;
* the absolute third-Hermite moment E|z^3 - 3z|, integrated piecewise
  across its kinks at 0 and +/-sqrt(3);
* the centered, time-integrated Laplacian gap functional and the
  expected-supremum bound 2R sqrt(tr(Sigma)/n) it satisfies, both on one
  gap surface (`_GapSurface`).  The functional, the gradient and the
  ranking of the `expsup` scan drop the time integral by the heat-semigroup
  identity
      lambda int_0^t E[f''(mu + sqrt(s lambda) Z)] ds
          = 2 (E[f(mu + sqrt(t lambda) Z)] - f(mu)),
  and sum the symmetric Hermite nodes +/-z_k in pairs by closed forms in
  cosh, with no exp per node; the four values an `expsup` replicate
  reports keep the time integral and sum the pairs by a closed form of
  their own (the pair rule).

Every integral is a fixed rule from `quadrature`: a Gaussian mean on the
HERMITE_NODES Gauss-Hermite rule (the pair rule on its own 48 nodes), an
integral over an interval on one LEGENDRE_NODES Gauss-Legendre rule.
Every Monte Carlo assertion uses a 3-standard-error tolerance and a stream
seeded from the check name, so the suite is deterministic.
`run_suite("all")` runs the five suites on the replicate pool
(`datagen.map_replicates`), so the small suites run beside the `g` suite;
the replicates of the two gap checks run on the same pool, nested in their
suite's worker, after all their draws are taken.  Every result is collected
in order, so the thread count changes no value.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from .bounds import GAUSSIAN_K
from .datagen import CovarianceSpec, make_covariance, make_rng, map_replicates
from .model import (
    Dataset,
    per_example_loss,
    sigmoid,
    sigmoid_derivative,
)
from .quadrature import HERMITE_NODES, LEGENDRE_NODES, gauss_hermite, legendre_panels
from .solver import project_to_ball

# the largest scale sqrt(t) ||x|| the Ito check takes for a logistic row.  Beyond it the Hermite means of a correct
# identity drift past the 1e-6 tolerance: their largest residual over |<x, theta>| <= 8 is 1.6e-7 at scale 4 and
# 1.2e-6 at 4.5
ITO_MAX_SCALE = 4.0
LOG2 = math.log(2.0)


def _seed_from_name(name: str) -> int:
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    abs_residual: float
    tolerance: float
    passed: bool


def _equality_report(name: str, lhs: float, rhs: float, tolerance: float) -> CheckReport:
    residual = abs(lhs - rhs)
    return CheckReport(name, float(lhs), float(rhs), float(residual), float(tolerance), residual <= tolerance)


def _mean_and_stderr(values) -> tuple[float, float]:
    """The mean of Monte Carlo replicates and its standard error."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _hinge_report(name: str, lhs: float, rhs: float, residual: float) -> CheckReport:
    """Inequality-style check: residual is the (already margin-adjusted)
    constraint violation, so passing means residual == 0; a NaN residual
    is kept, and fails."""
    residual = float(residual) if math.isnan(residual) else float(max(0.0, residual))
    return CheckReport(name, float(lhs), float(rhs), residual, 0.0, residual <= 0.0)


# ---------------------------------------------------------------------------
# test-function catalog

def _sigmoid_second(t):
    s1 = sigmoid_derivative(t)
    return s1 * (1.0 - 2.0 * sigmoid(t))


_AFFINE_SHIFT, _AFFINE_SCALE = 0.3, 0.75


@dataclass(frozen=True)
class CatalogFunction:
    f: Callable
    d1: Callable


CATALOG: dict[str, CatalogFunction] = {
    "poly2": CatalogFunction(lambda x: x**2, lambda x: 2.0 * x),
    "poly3": CatalogFunction(lambda x: x**3, lambda x: 3.0 * x**2),
    "poly4": CatalogFunction(lambda x: x**4, lambda x: 4.0 * x**3),
    "sigmoid": CatalogFunction(sigmoid, sigmoid_derivative),
    "sigmoid_bump": CatalogFunction(sigmoid_derivative, _sigmoid_second),
    "sigmoid_affine": CatalogFunction(
        lambda x: sigmoid(_AFFINE_SHIFT + _AFFINE_SCALE * x),
        lambda x: _AFFINE_SCALE * sigmoid_derivative(_AFFINE_SHIFT + _AFFINE_SCALE * x),
    ),
}


def _catalog_entry(name) -> tuple[CatalogFunction, str]:
    if isinstance(name, CatalogFunction):
        return name, "custom"
    try:
        return CATALOG[name], name
    except KeyError:
        raise ValueError(f"unknown catalog function: {name!r}") from None


def hermite_identity_residual(name, d: int) -> CheckReport:
    """Gauss-Hermite check of Stein's identity E[f'(z) H_d(z)] = E[f(z) H_{d+1}(z)].

    ``name`` is a catalog id, or a CatalogFunction for ad-hoc payloads.  A
    higher-order form is this identity applied again to f' (the catalog
    holds sigma and its derivative as `sigmoid` and `sigmoid_bump`).  The
    check name ends in `:first`, as the names the benchmark references are
    keyed by do.
    """
    fn, name = _catalog_entry(name)
    if d not in (0, 1, 2):
        raise ValueError("first-order identity requires d in {0, 1, 2}")
    z, w = gauss_hermite(HERMITE_NODES)
    lhs = float(w @ (np.asarray(fn.d1(z)) * hermeval(z, [0] * d + [1])))
    rhs = float(w @ (np.asarray(fn.f(z)) * hermeval(z, [0] * (d + 1) + [1])))
    return _equality_report(f"hermite:{name}:d{d}:first", lhs, rhs, 1e-10)


def smoothing_identity_residual(name, t: float) -> CheckReport:
    """Check the heat-semigroup identity for a catalog function at time t.

    The s-integral runs on the LEGENDRE_NODES Gauss-Legendre rule on
    [0, t], each node's inner mean on the HERMITE_NODES Gauss-Hermite rule.
    By Stein's lemma the integrand s^{-1} E[f(sqrt(s) z)(z^2 - 1)] is
    E[f''(sqrt(s) z)], bounded at s = 0 and analytic in s, so the rule
    converges geometrically: on every catalog function at t = 0.1, 0.5 and
    1 it lies within 3e-14 of the substitution s = exp(-2r) on 64 panels
    of 24 nodes, and an 8-node rule errs by up to 5.8e-12.
    ``name`` is a catalog id, or a CatalogFunction for ad-hoc payloads.
    """
    fn, name = _catalog_entry(name)
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    z, w = gauss_hermite(HERMITE_NODES)
    s_nodes, s_weights = legendre_panels(0.0, t, 1, LEGENDRE_NODES)
    # the inner mean at every s node at once: row j scales z by sqrt(s_j)
    inner = np.asarray(fn.f(np.sqrt(s_nodes)[:, None] * z)) * (z**2 - 1.0) @ w
    lhs = float((s_weights / s_nodes) @ inner)
    rhs = 2.0 * (float(w @ np.asarray(fn.f(math.sqrt(t) * z))) - float(np.asarray(fn.f(np.zeros(1)))[0]))
    return _equality_report(f"smoothing:{name}:t{t:g}", lhs, rhs, 1e-8)


def ito_expansion_residual(
    theta: np.ndarray,
    t: float,
    row: Dataset | None = None,
    mc_samples: int = 0,
    seed: int | None = None,
) -> CheckReport:
    """Check E[f(W_t)] = f(theta) + (1/2) int_0^t E[Laplacian f(W_s)] ds for
    W_s ~ N(theta, s I), at any dimension p.

    A one-row ``row`` (x, y) selects the logistic payload f(w) =
    loss(y, <x, w>); no row selects f(w) = ||w||^2, whose Laplacian is the
    constant 2p.  t may be any finite t > 0, except that the logistic
    payload takes sqrt(t) ||x|| up to ITO_MAX_SCALE, where its Hermite
    means still meet the 1e-6 tolerance; a larger scale raises
    ValueError.  The logistic loss reads w only through <x, w> ~ N(<x,
    theta>, t ||x||^2), so its left side is one HERMITE_NODES Gauss-Hermite
    mean; ||w||^2 is a sum over coordinates, so its left side is the sum of
    one such mean per coordinate.  The right side integrates the Laplacian
    ||x||^2 sigma'(<x, w>) over s on the LEGENDRE_NODES Gauss-Legendre rule
    on [0, t], each node a HERMITE_NODES Gauss-Hermite mean; up to
    ITO_MAX_SCALE and |<x, theta>| <= 8 it lies within 1e-10 of 32 panels
    of 24 nodes, where 16 nodes err by up to 6.8e-9.  With ``mc_samples >=
    2`` the left side is estimated by Monte Carlo in dimension p instead
    and the tolerance widens to three standard errors; 0 selects the
    quadrature, and any other count raises ValueError.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    p = theta.size
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    if mc_samples != 0 and mc_samples < 2:
        raise ValueError("mc_samples must be 0 (quadrature) or >= 2")
    z, w = gauss_hermite(HERMITE_NODES)
    if row is None:
        payload = "quadratic"

        def f_of(w_points):  # (m, p) -> (m,)
            return np.einsum("ij,ij->i", w_points, w_points)

        # row j holds coordinate j of theta + sqrt(t) z at every node
        lhs_quadrature = float(np.sum(((theta[:, None] + math.sqrt(t) * z) ** 2) @ w))
        rhs = float(theta @ theta) + p * t
    else:
        payload = "logistic"
        if row.n != 1:
            raise ValueError("the logistic payload expects a single-row dataset")
        if row.p != p:
            raise ValueError("row dimension does not match theta")
        x_row = row.inputs[0]
        y = float(row.labels[0])
        x_norm_sq = float(x_row @ x_row)
        x_norm = math.sqrt(x_norm_sq)
        if math.sqrt(t) * x_norm > ITO_MAX_SCALE:
            raise ValueError(f"sqrt(t) ||x|| must be at most {ITO_MAX_SCALE:g} for the logistic payload")
        mu = float(x_row @ theta)

        def f_of(w_points):
            return per_example_loss(y, w_points @ x_row)

        lhs_quadrature = float(w @ per_example_loss(y, mu + math.sqrt(t) * x_norm * z))
        s_nodes, s_weights = legendre_panels(0.0, t, 1, LEGENDRE_NODES)
        laplacian_means = x_norm_sq * (sigmoid_derivative(mu + (np.sqrt(s_nodes) * x_norm)[:, None] * z) @ w)
        rhs = float(per_example_loss(y, mu)) + 0.5 * float(s_weights @ laplacian_means)

    if mc_samples > 0:
        rng = make_rng(_seed_from_name(f"ito:{payload}") if seed is None else seed)
        draws = theta[None, :] + math.sqrt(t) * rng.standard_normal((mc_samples, p))
        lhs, stderr = _mean_and_stderr(f_of(draws))
        tolerance, suffix = max(1e-6, 3.0 * stderr), ":mc"
    else:
        lhs, tolerance, suffix = lhs_quadrature, 1e-6, ""

    return _equality_report(f"ito:{payload}:p{p}:t{t:g}{suffix}", lhs, rhs, tolerance)


def _isotropic_logpdf(w: np.ndarray, mean: np.ndarray, t: float) -> np.ndarray:
    """Log density of N(mean, t I) at the rows of w."""
    sq_dist = np.sum((w - mean) ** 2, axis=-1)
    return -0.5 * (mean.size * math.log(2.0 * math.pi * t) + sq_dist / t)


def kl_gaussian_shift(theta: np.ndarray, t: float) -> CheckReport:
    """E log dN(theta, tI)/dN(0, tI) over W ~ N(theta, tI) against the closed form ||theta||^2/(2t).

    The expectation integrates the difference of the two log densities.
    The log-ratio is affine in W, so only the component of W along
    theta/||theta|| matters, and a Gauss-Hermite rule along that
    direction integrates it exactly.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    p = theta.size
    if p == 0:
        raise ValueError("theta must have at least one coordinate")
    norm = float(np.linalg.norm(theta))
    direction = theta / norm if norm > 0 else np.eye(p)[0]
    z, w = gauss_hermite(HERMITE_NODES)
    points = theta + math.sqrt(t) * z[:, None] * direction
    log_ratio = _isotropic_logpdf(points, theta, t) - _isotropic_logpdf(points, np.zeros(p), t)
    closed = float(theta @ theta) / (2.0 * t)
    return _equality_report(f"kl_shift:p{p}:t{t:g}", float(w @ log_ratio), closed, 1e-12)


# the rows of one block of envelope draws: at p = 4 a block takes 0.26 MB and is scaled in place, where the
# `origin` check's 300k draws drawn whole take 10 MB, which under `verify all` adds to the `g` suite's peak
_ENVELOPE_BLOCK_ROWS = 8192


def envelope_moment_check(
    theta: np.ndarray,
    t: float,
    cov: CovarianceSpec,
    radius: float,
    mc_samples: int,
    seed: int | None = None,
    label: str = "",
) -> CheckReport:
    """Monte Carlo check of the smoothed subgaussian-envelope moment bound
    for W_t ~ N(theta, t I) and the Gaussian design of ``cov``, whose
    concentration constant is K = GAUSSIAN_K.

    Estimates E[eta^2(W_t)] for
        eta^2(w) = (72/e) (log 2 + (1 + sqrt(3) K) ||Lambda^{1/2} w||)^2
    and asserts, with a 3-standard-error margin, that it stays below
        (144/e) (1 + (1 + sqrt(3) K)^2 (t tr(Sigma) + ||Sigma|| R^2))
    for a center theta inside the ball of radius R = ``radius``.  The second
    moment of ||Lambda^{1/2} W_t|| is verified against t tr(Sigma) + <Sigma
    theta, theta> along the way; a violation of either part fails the check.

    The draws come from one stream in blocks of _ENVELOPE_BLOCK_ROWS rows,
    each scaled and shifted in place, and only the vector of norms is
    kept.  The blocks concatenate to the whole draw bit for bit and each
    norm reads one row, so the block size changes no value.
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be >= 2")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    if not 0.0 <= radius < math.inf:
        raise ValueError("radius must be finite and >= 0")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if cov.p != theta.size:
        raise ValueError("covariance dimension does not match theta")
    if float(np.linalg.norm(theta)) > radius + 1e-12:
        raise ValueError("theta must lie inside the ball of the given radius")

    c = 1.0 + math.sqrt(3.0) * GAUSSIAN_K
    rng = make_rng(_seed_from_name("envelope") if seed is None else seed)
    norms = np.empty(mc_samples)
    sqrt_eigenvalues = np.sqrt(cov.eigenvalues)
    for start in range(0, mc_samples, _ENVELOPE_BLOCK_ROWS):
        stop = min(start + _ENVELOPE_BLOCK_ROWS, mc_samples)
        draws = rng.standard_normal((stop - start, cov.p))
        draws *= math.sqrt(t)
        draws += theta
        draws *= sqrt_eigenvalues  # cov.transform, in place
        np.sqrt(np.einsum("ij,ij->i", draws, draws), out=norms[start:stop])

    eta_sq = (72.0 / math.e) * (LOG2 + c * norms) ** 2
    mean_eta, se_eta = _mean_and_stderr(eta_sq)
    bound = (144.0 / math.e) * (1.0 + c**2 * (t * cov.trace + cov.spectral_norm * radius**2))

    mean_second, se_second = _mean_and_stderr(norms**2)
    expected_second = t * cov.trace + float(cov.transform(theta) @ cov.transform(theta))

    violation = max(
        mean_eta + 3.0 * se_eta - bound,
        abs(mean_second - expected_second) - 3.0 * se_second,
    )
    suffix = f":{label}" if label else ""
    return _hinge_report(f"envelope:p{cov.p}:t{t:g}{suffix}", mean_eta, bound, violation)


HERMITE3_CLOSED_FORM = (1.0 + 4.0 * math.exp(-1.5)) * math.sqrt(2.0 / math.pi)
_ABS_MOMENT_CUTOFF = 12.0  # (x^2-1)*phi(x) beyond 12 is ~1e-30


def hermite3_abs_moment() -> CheckReport:
    """E|z^3 - 3z| by piecewise quadrature against its closed form.

    |x^3 - 3x| has kinks at 0 and +/-sqrt(3), so the integral is assembled
    from one LEGENDRE_NODES Gauss-Legendre rule on each of [0, sqrt(3)] and
    [sqrt(3), cutoff] (the integrand is even); it lies within 1e-14 of the
    closed form, where 16 nodes a piece err by 1.7e-8.  The strict
    inequality E|z^3 - 3z| < 2 sqrt(2/pi) used downstream follows from the
    equality: the closed form sits 0.086 below 2 sqrt(2/pi), far outside
    the 1e-10 tolerance, and a test pins that margin.
    """
    root = math.sqrt(3.0)

    def density(x):
        return np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)

    total = 0.0
    for a, b in ((0.0, root), (root, _ABS_MOMENT_CUTOFF)):
        x, w = legendre_panels(a, b, 1, LEGENDRE_NODES)
        total += float(w @ (np.abs(x**3 - 3.0 * x) * density(x)))
    return _equality_report("hermite3_abs_moment", 2.0 * total, HERMITE3_CLOSED_FORM, 1e-10)


# ---------------------------------------------------------------------------
# centered Laplacian gap functional and its expected-supremum bound


# the inner expectation of the pair-rule gap values: the 48-node Gauss-Hermite rule, whose 38 nodes above the
# `quadrature` weight floor are summed as 19 symmetric pairs +/-z_k; the expsup check values depend on this exact rule
GAP_HERMITE_NODES = 48
# the paired closed form keeps X = 2 cosh(mu), Y = 2 cosh(c) and (X + Y)^2 finite for |mu| and |c| up to this;
# (X + Y)^2 overflows at about 354
GAP_PAIR_LIMIT = 350.0
# the largest probe block of `_GapSurface.identity_values`; the probes are split into equal blocks (49 go as 7 of 7).
# At the g suite's 210 rows a block's one (8, rows, 33) buffer takes 0.44 MB and stays in L2; with the per-node
# kernel, whose tensors were (8, rows, 66), no block of 4, 12 or 16 gave a faster `verify all` on 2 cores, and one
# unblocked pass over 49 probes doubled its peak RSS
GAP_PROBE_BLOCK = 8


def _paired_sigma_prime(x, y, out, tmp):
    """Write sigma'(mu + c) + sigma'(mu - c) = (4 + x y) / (x + y)^2 into
    `out`, for x = 2 cosh(mu) and y = 2 cosh(c).

    Expanding e^{+/-mu} and e^{+/-c}, the two denominators 2 + 2 cosh(mu +/- c)
    multiply to (x + y)^2 and add to 4 + x y.  `tmp` is scratch of `out`'s
    shape.  Finite while x + y stays below about 1.3e154, i.e. for |mu| and
    |c| up to GAP_PAIR_LIMIT.
    """
    np.multiply(x, y, out=out)
    out += 4.0
    np.add(x, y, out=tmp)
    np.square(tmp, out=tmp)
    out /= tmp
    return out


class _GapSurface:
    """The centered time-integrated Laplacian gap
        sum_i coef_i lambda_i int_0^t E[sigma'(mu_i + sqrt(s lambda_i) Z)] ds,
    mu_i = <Lambda^{1/2} z_i, theta>, over the data rows z_i (coef_i =
    +1/(2n)) and a frozen reference sample (coef_i = -1/(2m)), with
    lambda_i = <Lambda z_i, z_i>.

    `identity_values` drops the time integral by the heat-semigroup identity
    with f = softplus (softplus'' = sigma'): each row's integral is
    2 (E[softplus(mu + sqrt(t lambda) Z)] - softplus(mu)), one mean on the
    HERMITE_NODES Gauss-Hermite rule.  Against an adaptive-quadrature
    oracle, with mu in [-3, 3], it errs by at most 2e-11 for
    sqrt(t lambda) up to 3, 9e-10 at 3.6 and 2e-4 at 10.  `gradient` gives
    the (m, p) block of gradients by the identity with f = sigma, accurate
    to about 1e-11 for sqrt(t lambda) up to about 3.6, the largest value in
    the `g` suite.

    Both sum the rule's symmetric nodes +z_k and -z_k in pairs, 33 pairs of
    its 66 kept nodes with the pair weights w_k.  With c = sqrt(t lambda) z_k,
        softplus(mu + c) + softplus(mu - c) = mu + log(2 cosh(mu) + 2 cosh(c)),
        sigma(mu + c) + sigma(mu - c) = 1 + sinh(mu) / (cosh(mu) + cosh(c)),
    so a row's increment is 2 sum_k w_k log1p((cosh(c) - 1) / (cosh(mu) + 1))
    and its smoothed link 1/2 + tanh(mu) sum_k w_k / (1 + cosh(c) sech(mu)).
    The (rows, 33) tables cosh(c) and cosh(c) - 1, the second as
    2 sinh(c/2)^2 so that small c keeps its digits, are built once per
    surface, so a call takes no exp per node: one divide and log1p, or one
    multiply, add and reciprocal, per element.  Within the rule the pairs
    agree with the nodes summed one by one to about 4e-17.  cosh(mu) may
    overflow, which gives sech(mu) = 0 and an increment of 0, the limits
    past |mu| of about 710; a row with lambda = 0 adds exactly 0.  The
    tables overflow once sqrt(t lambda) z_k passes about 710, that is
    sqrt(t lambda) above about 76, so such a surface raises ValueError when
    it is built; the rule has lost its accuracy long before that.

    `value_many` keeps the time integral, on the LEGENDRE_NODES
    Gauss-Legendre rule on [0, t] by the GAP_HERMITE_NODES Gauss-Hermite
    rule.  It sums the symmetric Hermite nodes +z_k and -z_k in pairs, as
    many as the rule has nodes above the weight floor (19); a pair's sum is
    even in sqrt(s), so analytic in s, and the time rule converges
    geometrically: on 210-row surfaces at t = 1 and probes in the unit ball
    it lies within 1e-12 of 16 panels of 24 nodes, far below the Hermite
    rule's 1e-8, where 16 nodes err by up to 4.3e-10.  With
    c = sqrt(s lambda_i) z_k, X = 2 cosh(mu) and Y = 2 cosh(c),
        sigma'(mu + c) + sigma'(mu - c) = (4 + X Y) / (X + Y)^2,
    a sum and quotient of positive terms with no exp per node.  The form
    overflows once |mu| or |c| passes about 354, so a call with either
    above GAP_PAIR_LIMIT raises ValueError.  The Y table is built inside
    the call, which an `expsup` replicate makes once, on at most four
    probes.  The gradient is not the derivative of the pair-rule value.

    Every method forms each probe's products and contractions on its own,
    so a probe's value and gradient do not depend, to the bit, on the other
    probes of the call or on the block it falls in.
    """

    def __init__(self, z_rows: np.ndarray, ref_rows: np.ndarray, t: float, cov: CovarianceSpec):
        n, m = z_rows.shape[0], ref_rows.shape[0]
        rows = np.vstack([z_rows, ref_rows])
        self.t = t
        self.coef = np.concatenate([np.full(n, 0.5 / n), np.full(m, -0.5 / m)])
        self.directions = cov.transform(rows)
        self.lambda_sq = (rows**2) @ cov.eigenvalues
        h_nodes, h_weights = gauss_hermite(HERMITE_NODES)
        half = len(h_nodes) // 2  # the nodes are sorted and symmetric: the upper half holds z_k > 0
        self.pair_weights = h_weights[half:]
        c = np.sqrt(t * self.lambda_sq)[:, None] * h_nodes[half:]
        with np.errstate(over="ignore"):
            self.cosh_c = np.cosh(c)
            self.cosh_c_minus_one = 2.0 * np.sinh(0.5 * c) ** 2
        if not (np.all(np.isfinite(self.cosh_c)) and np.all(np.isfinite(self.cosh_c_minus_one))):
            raise ValueError("gap surface: cosh(sqrt(t lambda) z_k) overflows; sqrt(t lambda) must stay below about 76")

    def _mus(self, thetas: np.ndarray) -> np.ndarray:
        """mu[j, i] = <Lambda^{1/2} z_i, theta_j>, one product per probe."""
        return (thetas[:, None, :] @ self.directions.T)[:, 0]

    def gradient(self, thetas: np.ndarray) -> np.ndarray:
        mus = self._mus(thetas)
        with np.errstate(over="ignore"):
            sech = 1.0 / np.cosh(mus)
        pairs = self.cosh_c * sech[:, :, None]
        pairs += 1.0
        np.reciprocal(pairs, out=pairs)
        smoothed = 0.5 + np.tanh(mus) * (pairs @ self.pair_weights)
        row_terms = 2.0 * self.coef * (smoothed - sigmoid(mus))
        return (row_terms[:, None, :] @ self.directions)[:, 0]

    def identity_values(self, thetas: np.ndarray) -> np.ndarray:
        """The probes go in equal blocks of at most GAP_PROBE_BLOCK, each
        written into one buffer."""
        mus = self._mus(thetas)
        blocks = np.array_split(mus, max(1, math.ceil(len(mus) / GAP_PROBE_BLOCK)))
        buffer = np.empty((len(blocks[0]),) + self.cosh_c_minus_one.shape)  # array_split puts the largest block first
        values = []
        for block in blocks:
            increments = buffer[: len(block)]
            with np.errstate(over="ignore"):
                denominators = np.cosh(block) + 1.0
            np.divide(self.cosh_c_minus_one, denominators[:, :, None], out=increments)
            np.log1p(increments, out=increments)
            values.append(((increments @ self.pair_weights)[:, None, :] @ (2.0 * self.coef))[:, 0])
        return np.concatenate(values)

    def value_many(self, thetas: np.ndarray) -> np.ndarray:
        s_nodes, s_weights = legendre_panels(0.0, self.t, 1, LEGENDRE_NODES)
        z_nodes, z_weights = gauss_hermite(GAP_HERMITE_NODES)
        # the nodes are sorted and symmetric: the upper half holds z_k > 0 and the weights of the pairs
        half = len(z_nodes) // 2
        # c[s, i, k] = sqrt(s * lambda_sq_i) * z_k
        c = np.sqrt(s_nodes[:, None] * self.lambda_sq[None, :])[:, :, None] * z_nodes[half:]
        if not np.all(c <= GAP_PAIR_LIMIT):
            raise ValueError(f"gap surface: sqrt(t lambda) z exceeds {GAP_PAIR_LIMIT:g}")
        y = np.cosh(c, out=c)  # y[s, i, k] = 2 cosh(c[s, i, k]), written over c
        y *= 2.0
        mus = self._mus(thetas)
        if not np.all(np.abs(mus) <= GAP_PAIR_LIMIT):
            raise ValueError(f"gap surface: |<Lambda^1/2 z, theta>| exceeds {GAP_PAIR_LIMIT:g}")
        x = 2.0 * np.cosh(mus)[:, :, None]
        row_weight = self.coef * self.lambda_sq
        pairs, scratch = np.empty((2, len(mus)) + y.shape[1:])
        values = np.zeros(len(mus))
        for weight, y_s in zip(s_weights, y):
            _paired_sigma_prime(x, y_s, pairs, scratch)
            values += weight * ((pairs[:, None] @ z_weights[half:]) @ row_weight)[:, 0]
        return values


def laplacian_gap_functional(
    z: np.ndarray,
    theta: np.ndarray,
    t: float,
    cov: CovarianceSpec,
    ref_samples: int,
    seed: int,
) -> float:
    """The centered Laplacian gap of a fixed latent sample z at theta: the
    `_GapSurface.identity_values` of z against ``ref_samples`` fresh
    standard normal reference rows drawn from ``seed``, so the functional
    has mean zero over z.  The `gap_centering` check in the `g` suite
    reaches sqrt(t lambda) of about 3.1.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if ref_samples < 1:
        raise ValueError("ref_samples must be a positive integer")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[0] < 1:
        raise ValueError("n must be >= 1")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if z.shape[1] != cov.p or theta.size != cov.p:
        raise ValueError("dimension mismatch between z, theta, and the covariance")
    ref_rows = make_rng(seed).standard_normal((ref_samples, cov.p))
    return float(_GapSurface(z, ref_rows, t, cov).identity_values(theta[None])[0])


EXPSUP_PROBES = 48
EXPSUP_REF_SAMPLES = 160
EXPSUP_ASCENT_ITERS = 40
EXPSUP_POLISH_TOP = 3


def _expsup_replicate(z_rows, ref_rows, probes, t, radius, cov) -> float:
    """The best gap value one replicate finds.

    The scan ranks ``probes`` by their identity values, and projected ascent
    climbs from the top EXPSUP_POLISH_TOP of them.  The paths climb
    together, one block gradient per step; each path is the one it would
    be alone.  The pair rule then scores the top-ranked probe and the ends
    of the paths, and the best of these four values is returned: a value of
    the gap at a point of the ball, so a lower bound of its sup.  At radius
    0 the origin is the one probe, and it is scored alone.
    """
    surface = _GapSurface(z_rows, ref_rows, t, cov)
    if radius == 0:
        return float(surface.value_many(probes)[0])
    ranked = probes[np.argsort(surface.identity_values(probes))]
    polished = ranked[-EXPSUP_POLISH_TOP:]
    for k in range(1, EXPSUP_ASCENT_ITERS + 1):
        polished = project_to_ball(polished + (0.1 / math.sqrt(k)) * surface.gradient(polished), radius)
    return float(np.max(surface.value_many(np.vstack([ranked[-1:], polished]))))


def expsup_gap_check(
    n: int,
    t: float,
    radius: float,
    cov: CovarianceSpec,
    replicates: int,
    seed: int,
) -> CheckReport:
    """Estimate E_Z[sup over the ball of the Laplacian gap] and test it
    against the bound 2R sqrt(tr(Sigma)/n) (plus 3 standard errors).

    Each replicate draws a fresh latent sample, reference pool and probes
    of the ball, and `_expsup_replicate` searches them; the replicate maxima
    are averaged.  The search only ever underestimates the sup, which is the
    safe direction for checking an upper bound.  All draws come first, from
    one stream in replicate order; the replicates then run on as many
    threads as the process has CPUs (`datagen.map_replicates`), so the
    report is the same for any count.
    """
    p = cov.p
    if p > 5:
        raise ValueError("supremum search supports p <= 5 only")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    if not 0.0 <= radius < math.inf:
        raise ValueError("radius must be finite and >= 0")

    rng = make_rng(seed)
    z_rows, ref_rows, probes = [], [], []
    for _ in range(replicates):
        z_rows.append(rng.standard_normal((n, p)))
        ref_rows.append(rng.standard_normal((EXPSUP_REF_SAMPLES, p)))
        rep_probes = [np.zeros(p)]
        if radius > 0:
            g = rng.standard_normal((EXPSUP_PROBES, p))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            radii = radius * np.concatenate(
                [np.ones(EXPSUP_PROBES // 2), rng.random(EXPSUP_PROBES - EXPSUP_PROBES // 2) ** (1.0 / p)]
            )
            rep_probes.extend(g * radii[:, None])
        probes.append(np.asarray(rep_probes))

    sups = map_replicates(
        lambda z, ref, pr: _expsup_replicate(z, ref, pr, t, radius, cov), z_rows, ref_rows, probes)

    mean_sup, stderr = _mean_and_stderr(sups)
    bound = 2.0 * radius * math.sqrt(cov.trace / n)
    violation = mean_sup - bound - 3.0 * stderr
    return _hinge_report(f"expsup:p{p}:n{n}:R{radius:g}:t{t:g}", mean_sup, bound, violation)


def gap_centering_check(
    n: int,
    t: float,
    cov: CovarianceSpec,
    draws: int,
    seed: int,
) -> CheckReport:
    """Average the gap functional over fresh latent samples; the mean must
    vanish within 3 standard errors by construction.

    The samples are drawn first, from one stream; the functional then runs
    on them through `datagen.map_replicates`, so the report is the same
    for any thread count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if draws < 2:
        raise ValueError("draws must be >= 2")
    p = cov.p
    rng = make_rng(seed)
    theta = project_to_ball(rng.standard_normal(p), 1.0)
    zs = [rng.standard_normal((n, p)) for _ in range(draws)]
    values = map_replicates(
        lambda z, ref_seed: laplacian_gap_functional(z, theta, t, cov, ref_samples=256, seed=ref_seed),
        zs, range(seed + 1, seed + 1 + 7 * draws, 7))
    mean, stderr = _mean_and_stderr(values)
    return _hinge_report(f"gap_centering:p{p}:n{n}:t{t:g}", mean, 0.0, abs(mean) - 3.0 * stderr)


# ---------------------------------------------------------------------------
# suites

# "all" first, then the suites in the order "all" reports them
SUITE_NAMES = ("all", "hermite", "smoothing", "ito", "moments", "g")


def _hermite_suite() -> list[CheckReport]:
    return [hermite_identity_residual(name, d) for name in CATALOG for d in (0, 1, 2)]


def _smoothing_suite() -> list[CheckReport]:
    return [smoothing_identity_residual(name, t) for name in CATALOG for t in (0.1, 0.5, 1.0)]


def _ito_suite() -> list[CheckReport]:
    row = Dataset(np.array([[1.5]]), np.array([1]))
    return [
        ito_expansion_residual(np.array([0.2]), 1e-8, row),
        ito_expansion_residual(np.array([0.2]), 0.5, row),
        ito_expansion_residual(np.array([0.2]), 0.5, row, mc_samples=200_000, seed=_seed_from_name("ito:logistic:mc")),
        ito_expansion_residual(np.array([0.1, -0.3]), 0.8),
        ito_expansion_residual(np.array([0.3, 0.1, -0.2]), 0.3, Dataset(np.array([[0.9, -0.7, 0.4]]), np.array([1]))),
    ]


def _moments_suite() -> list[CheckReport]:
    rng = make_rng(_seed_from_name("moments:theta"))
    theta7 = rng.standard_normal(7)
    rec4 = make_covariance("reciprocal", 4)
    sphere_center = np.array([0.5, -0.5, 0.5, -0.5])  # on the unit sphere
    return [
        kl_gaussian_shift(np.zeros(3), 1.0),
        kl_gaussian_shift(np.array([0.6, -0.8]), 0.5),
        kl_gaussian_shift(theta7, 0.3),
        hermite3_abs_moment(),
        envelope_moment_check(np.zeros(4), 0.5, CovarianceSpec(np.zeros(4)), 1.0, mc_samples=10_000,
                              seed=_seed_from_name("envelope:flat"), label="flat"),
        envelope_moment_check(sphere_center, 0.25, rec4, 1.0, mc_samples=200_000,
                              seed=_seed_from_name("envelope:sphere"), label="sphere"),
        envelope_moment_check(np.zeros(4), 0.25, rec4, 1.0, mc_samples=300_000,
                              seed=_seed_from_name("envelope:origin"), label="origin"),
    ]


def _g_suite() -> list[CheckReport]:
    rec3 = make_covariance("reciprocal", 3)
    return [
        gap_centering_check(8, 0.5, make_covariance("reciprocal", 2), draws=48, seed=_seed_from_name("gap_centering")),
        expsup_gap_check(50, 1.0, 1.0, rec3, replicates=12, seed=_seed_from_name("expsup:main")),
        expsup_gap_check(50, 1.0, 0.0, rec3, replicates=4, seed=_seed_from_name("expsup:degenerate")),
    ]


def run_suite(name: str) -> list[CheckReport]:
    """Run one named check suite, or all of them, and return the reports in
    SUITE_NAMES order.  The suites of "all" run on `datagen.map_replicates`,
    the `g` suite, the longest, submitted first, so the small ones run
    beside it; one suite, or one CPU, runs on the calling thread.  Each
    `_{name}_suite` is looked up on the module at call time, so a wrapper
    set on the module attribute sees the call."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite: {name!r}")
    keys = SUITE_NAMES[1:] if name == "all" else (name,)
    submitted = sorted(keys, key=lambda key: key != "g")  # stable: the rest keep their order
    suites = dict(zip(submitted, map_replicates(lambda key: globals()[f"_{key}_suite"](), submitted)))
    return [report for key in keys for report in suites[key]]


def format_report(report: CheckReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (
        f"{status}  {report.name:40s} lhs={report.lhs: .12e} rhs={report.rhs: .12e} "
        f"residual={report.abs_residual:.3e} tol={report.tolerance:.3e}"
    )
