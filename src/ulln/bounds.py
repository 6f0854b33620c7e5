"""Explicit dimension-free uniform concentration bounds for the
constrained logistic empirical risk, plus effective-rank diagnostics for
the uniform law of large numbers.

Three bounds are evaluated from (n, R, K, delta, tr Sigma, ||Sigma||)
alone — none depends on the ambient dimension p:

* ``bound_theorem``     four-term PAC-Bayes/second-order-expansion bound,
                        coverage 1 - 6*delta, requires delta <= 1/6;
* ``bound_classical``   Rademacher-complexity + McDiarmid bound under the
                        bounded-norm condition, coverage 1 - delta;
* ``bound_extended``    subgaussian extension of the classical bound with
                        an unspecified absolute constant ``a`` (default 1,
                        user-overridable), coverage 1 - 3*delta, requires
                        delta <= 1/3.

A delta above a bound's limit raises rather than report a negative
coverage.  ``BOUNDS`` names each bound with its limit; ``evaluate``
reports the ones asked for at one point, and ``sweep`` along a grid of
sample sizes.

The PAC-Bayes smoothing time inside the four-term bound is pinned at
t = 1/(12 log(1/delta)) and never exposed.  Squares are products, which
give inf where a float ``**`` raises; a bound that is not finite raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

# the largest delta the theorem and the extended bound admit; a Fraction prints
# as "1/6" and compares with a float delta exactly
THEOREM_DELTA_MAX, EXTENDED_DELTA_MAX = Fraction(1, 6), Fraction(1, 3)
# the concentration constant K of a standard Gaussian design
GAUSSIAN_K = math.sqrt(2.0)
# the sweep's n grid is cast to int64, which holds up to about 9.2e18
_SWEEP_N_MAX = 10**18
# the whole grid is held in memory: 10**6 steps is about 8 MB
_SWEEP_STEPS_MAX = 10**6


@dataclass(frozen=True)
class BoundParams:
    """Dimension-free quantities feeding every bound formula."""

    n: int
    R: float
    delta: float
    trace_sigma: float
    norm_sigma: float
    K: float = GAUSSIAN_K
    log_n_constant_a: float = 1.0  # absolute constant of the extended bound only

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.R < math.inf:
            raise ValueError("R must be finite and >= 0")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not (0 <= self.trace_sigma < math.inf and 0 <= self.norm_sigma < math.inf):
            raise ValueError("trace and norm of Sigma must be finite and >= 0")
        if self.trace_sigma > 0 and self.norm_sigma > self.trace_sigma:
            raise ValueError("||Sigma|| cannot exceed tr(Sigma)")
        if not 0 < self.K < math.inf:
            raise ValueError("K must be finite and > 0")
        if not 0 < self.log_n_constant_a < math.inf:
            raise ValueError("log_n_constant_a must be finite and > 0")

    @property
    def log_inv_delta(self) -> float:
        return -math.log(self.delta)

    @property
    def effective_rank(self) -> float:
        return effective_rank(self.trace_sigma, self.norm_sigma)


@dataclass(frozen=True)
class BoundReport:
    """Named nonnegative terms, their sum, and the stated coverage probability."""

    terms: dict[str, float] = field(default_factory=dict)
    total: float = 0.0
    confidence: float = 0.0


def _report(name: str, terms: dict[str, float], confidence: float) -> BoundReport:
    """The report of the bound that BOUNDS names ``name``."""
    total = float(sum(terms.values()))
    if not math.isfinite(total):  # a term overflowed: an infinite bound says nothing
        raise ValueError(f"the {name} bound is not finite for these parameters")
    return BoundReport(terms=terms, total=total, confidence=confidence)


def effective_rank(trace_sigma: float, norm_sigma: float) -> float:
    """tr(Sigma)/||Sigma|| when the norm is positive, 0 otherwise."""
    if trace_sigma < 0 or norm_sigma < 0:
        raise ValueError("trace and norm must be >= 0")
    if norm_sigma == 0.0:
        return 0.0
    return trace_sigma / norm_sigma


def bound_theorem(params: BoundParams) -> BoundReport:
    """Four-term dimension-free bound holding with probability 1 - 6*delta.

    Requires delta <= 1/6; larger values violate the hypothesis of the
    bound and raise instead of being clamped, since clamping would
    silently misreport the coverage.
    """
    if params.delta > THEOREM_DELTA_MAX:
        raise ValueError(f"bound_theorem requires delta in (0, {THEOREM_DELTA_MAX}]")
    n, R, K = params.n, params.R, params.K
    L = params.log_inv_delta
    root_c_k = 1.0 + math.sqrt(3.0) * K
    c_k = root_c_k * root_c_k
    term1 = math.sqrt(
        27.0
        * (L + c_k * (params.trace_sigma / 12.0 + params.norm_sigma * (R * R) * L))
        * (1.0 + 6.0 * (R * R))
        / n
    )
    term2 = 2.0 * R * math.sqrt(params.trace_sigma / n)
    term3 = math.sqrt(78.0 * (K * K) * (256.0 + (R * R) * params.trace_sigma) / n)
    term4 = 9.0 * (K * K) * R * params.norm_sigma * math.sqrt(L) / n
    terms = {
        "pac_bayes": term1,
        "laplacian_gap_mean": term2,
        "laplacian_gap_fluctuation": term3,
        "bernstein_tail": term4,
    }
    return _report("theorem", terms, 1.0 - 6.0 * params.delta)


def bound_classical(params: BoundParams) -> BoundReport:
    """Rademacher/McDiarmid bound holding with probability 1 - delta."""
    n, R, K = params.n, params.R, params.K
    r = params.effective_rank
    L = params.log_inv_delta
    term1 = 2.0 * math.sqrt((R * R) * params.norm_sigma * r / n)
    term2 = math.sqrt(8.0 * (1.0 + (R * R) * (K * K) * params.norm_sigma * r) * L / n)
    return _report("classical", {"rademacher": term1, "mcdiarmid": term2}, 1.0 - params.delta)


def bound_extended(params: BoundParams) -> BoundReport:
    """Subgaussian extension of the classical bound, probability 1 - 3*delta.

    Requires delta <= 1/3, where the coverage is still >= 0; a larger
    delta raises.  The absolute constant ``a`` multiplying the log n
    inflation comes from a covariance concentration theorem and is not
    pinned down numerically; results quoting this bound must report the
    ``a`` used.
    """
    if params.delta > EXTENDED_DELTA_MAX:
        raise ValueError(f"bound_extended requires delta in (0, {EXTENDED_DELTA_MAX}]")
    n, R, K = params.n, params.R, params.K
    r = params.effective_rank
    L = params.log_inv_delta
    a = params.log_n_constant_a
    term1 = 2.0 * math.sqrt((R * R) * params.norm_sigma * r / n)
    term2 = math.sqrt(
        8.0
        * (1.0 + 2.0 * (R * R) * params.norm_sigma
           * (r + (a * a) * ((K * K) * (K * K)) * params.norm_sigma * (math.log(n) + L)))
        * L
        / n
    )
    return _report(
        "extended", {"rademacher": term1, "subgaussian_envelope": term2}, 1.0 - 3.0 * params.delta
    )


# each bound and the largest delta it admits (BoundParams admits none above 1)
BOUNDS = {
    "theorem": (bound_theorem, THEOREM_DELTA_MAX),
    "classical": (bound_classical, 1),
    "extended": (bound_extended, EXTENDED_DELTA_MAX),
}


def evaluate(params: BoundParams, which: str) -> list[tuple[str, BoundReport | None]]:
    """``(name, report)`` for the bound ``which`` names, or for every bound in BOUNDS order.

    Asked for alone, a bound raises for a delta above its limit; beside the
    others its report is None.
    """
    return [(name, None if which == "all" and params.delta > limit else bound(params))
            for name, (bound, limit) in BOUNDS.items() if which in ("all", name)]


def sweep(params: BoundParams, which: str, n_start: int, n_stop: int, steps: int,
          trace_rule: str = "fixed", delta_rule: str = "fixed"):
    """``(n, trace, delta, evaluate(...))`` at each n of a log-spaced grid, as a lazy iterator.

    The grid holds ``steps`` points from ``n_start`` to ``n_stop``, rounded
    down to integers and deduplicated.  At each n the trace of Sigma is
    ``params.trace_sigma`` ("fixed") or ``||Sigma|| n / log n``
    ("n_over_log_n"), and delta is ``params.delta`` ("fixed") or
    ``min(1, 1/n^2)`` ("inverse_n_squared").  The arguments are checked and
    the grid built when called; each point's bounds when it is reached.
    """
    if trace_rule not in ("fixed", "n_over_log_n"):
        raise ValueError("trace_rule must be 'fixed' or 'n_over_log_n'")
    if delta_rule not in ("fixed", "inverse_n_squared"):
        raise ValueError("delta_rule must be 'fixed' or 'inverse_n_squared'")
    if not 2 <= steps <= _SWEEP_STEPS_MAX or n_start < 2 or n_stop <= n_start or n_stop > _SWEEP_N_MAX:
        raise ValueError(f"sweep needs 2 <= n_start < n_stop <= {_SWEEP_N_MAX:.0e} "
                         f"and 2 <= steps <= {_SWEEP_STEPS_MAX:.0e}")
    grid = np.unique(np.logspace(math.log10(n_start), math.log10(n_stop), steps).astype(np.int64))

    def points():
        for n in map(int, grid):
            trace = params.trace_sigma if trace_rule == "fixed" else params.norm_sigma * n / math.log(n)
            delta = params.delta if delta_rule == "fixed" else min(1.0, 1.0 / n**2)
            yield n, trace, delta, evaluate(replace(params, n=n, trace_sigma=trace, delta=delta), which)

    return points()


@dataclass(frozen=True)
class RatioTable:
    """Effective-rank growth diagnostics for a spectrum sequence.

    ``rows`` holds (n, r, r/n, r*log(n)/n); the flags report whether each
    diagnostic column is strictly decreasing along the sequence (the
    sufficient conditions for the uniform law ask these ratios to vanish).
    """

    rows: list[tuple[float, float, float, float]]
    r_over_n_decreasing: bool
    r_log_n_over_n_decreasing: bool


def ulln_ratio_table(spectra: list[tuple[float, float, float]]) -> RatioTable:
    """Tabulate r, r/n and r*log(n)/n for entries (n, trace, norm)."""
    rows = []
    for n, trace, norm in spectra:
        if n < 1:
            raise ValueError("n must be >= 1")
        r = effective_rank(trace, norm)
        rows.append((float(n), r, r / n, r * math.log(n) / n))

    def strictly_decreasing(values):
        return all(b < a for a, b in zip(values, values[1:]))

    return RatioTable(
        rows=rows,
        r_over_n_decreasing=strictly_decreasing([row[2] for row in rows]),
        r_log_n_over_n_decreasing=strictly_decreasing([row[3] for row in rows]),
    )
