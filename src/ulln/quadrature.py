"""Quadrature rules for Gaussian means and for integrals over finite intervals.

The package takes two rules, both declared here:

* every Gaussian mean is the HERMITE_NODES = 128-node Gauss-Hermite rule
  (a tensor of it on each axis for a mean in dimension p <= 2);
* every integral over a finite interval is one LEGENDRE_NODES = 24-node
  Gauss-Legendre rule mapped onto the interval, on one panel; each
  integrand is analytic on its interval, so the rule converges
  geometrically.

The one exception is the pair rule of `theory_checks._GapSurface.value_many`,
whose 48-node Hermite rule the `expsup` check values depend on.  The
surface's `gradient` and `identity_values` keep the 128-node rule and sum
its symmetric nodes +/-z_k in pairs by closed forms.

Everything here works with the probabilists' convention, i.e. nodes/weights
(z, w) such that

    E[f(zeta)] = int f(z) exp(-z^2/2)/sqrt(2*pi) dz ~ sum_i w_i f(z_i)

for zeta ~ N(0, 1), so no sqrt(2) change of variables is needed at call
sites.  Rules are cached since node counts are reused heavily, and each is
built once, even when threads ask for it at the same time.

Every Gauss-Hermite rule keeps only the nodes whose weight is at least
WEIGHT_FLOOR = 1e-20; the rest sit far in the tails and cannot move a
double-precision mean of the integrands used here.  For n up to 256 the
1-D rule drops less than 1e-19 of weight mass (3.1e-21 at n = 128, which
keeps 66 of 128 nodes); its nodes stay exactly antisymmetric and its
weights symmetric.  A tensor rule takes the pruned 1-D rule on each axis
and drops the products below the same floor: at p = 2 and 128 nodes per
axis it keeps 3260 of 16384 rows and drops 8.6e-19 of mass.
"""
from __future__ import annotations

import threading
from functools import lru_cache, wraps

import numpy as np

# reentrant: gauss_hermite_tensor builds its rule from gauss_hermite while holding it
_BUILD_LOCK = threading.RLock()
# the smallest Gauss-Hermite weight a rule keeps
WEIGHT_FLOOR = 1e-20
# the Gauss-Hermite rule of every Gaussian mean: 66 of its 128 nodes carry a weight above WEIGHT_FLOOR
HERMITE_NODES = 128
# the Gauss-Legendre rule of every integral over a finite interval, on one panel
LEGENDRE_NODES = 24


def _built_once(fn):
    """`lru_cache` a rule and read it under `_BUILD_LOCK`, so that threads
    asking at the same time wait for one build instead of each making one."""
    cached = lru_cache(maxsize=64)(fn)

    @wraps(fn)
    def rule(*args, **kwargs):
        with _BUILD_LOCK:
            return cached(*args, **kwargs)

    rule.cache_info, rule.cache_clear = cached.cache_info, cached.cache_clear
    return rule


@_built_once
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[f(zeta)], zeta ~ N(0,1), of the n-node rule
    without its nodes of weight below WEIGHT_FLOOR; weights sum to 1."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    z, w = np.polynomial.hermite_e.hermegauss(n)
    w /= np.sqrt(2.0 * np.pi)
    keep = w >= WEIGHT_FLOOR
    return z[keep], w[keep]


@_built_once
def gauss_hermite_tensor(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized rule over N(0, I_dim) from the pruned `gauss_hermite(n)`:
    nodes (rows, dim) and weights (rows,), in row-major order of the axis
    nodes, without the products below WEIGHT_FLOOR."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    z, w = gauss_hermite(n)
    node_grids = np.meshgrid(*([z] * dim), indexing="ij")
    weight_grids = np.meshgrid(*([w] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in node_grids], axis=1)
    weights = np.ones(z.size**dim)
    for g in weight_grids:
        weights *= g.ravel()
    keep = weights >= WEIGHT_FLOOR
    return nodes[keep], weights[keep]


@_built_once
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    return np.polynomial.legendre.leggauss(n)


def legendre_panels(a: float, b: float, panels: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `panels` equal subintervals of [a, b],
    each panel's nodes in order; one panel maps the rule onto [a, b] itself."""
    if panels < 1:
        raise ValueError("panel count must be >= 1")
    x, w = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
