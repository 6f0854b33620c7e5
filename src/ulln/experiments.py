"""The two replicated studies: the prediction / sign-recovery study of
the constrained logistic minimizer under anisotropic Gaussian designs,
and the coverage study of the theorem bound against sup |R_n - R|.

`run_replication` draws theta_star, a training set and a test set from
streams hashed out of (base_seed, index), and serves every kind in
COV_KINDS: it fits the ball-constrained minimizer on the identity design,
scales Z in place by the square root of the reciprocal spectrum and fits
again, then scores both fits on the test set, drawn in blocks of rows.
It records prediction precision and head/weighted sign recovery; sharing
the draw pairs the two columns of each table.  `run_coverage` draws each
replicate's data and search starts the same way and estimates its sup
deviation with `deviation.sup_deviation_search`.  Both run their
replicates on `datagen.map_replicates`, the pool of `verify` too, with
one BLAS thread per worker.  Every set has its own stream, so the
results are the same for any thread count.
"""
from __future__ import annotations

import csv
import math
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import BoundParams, bound_classical, bound_theorem
from .datagen import (GenerativeConfig, derive_seed, draw_latent, draw_latent_chunks, generate_dataset, label_rows,
                      make_covariance, map_replicates, sample_theta_star)
from .deviation import sup_deviation_grid, sup_deviation_search
from .model import Dataset
from .solver import FitResult, SolverOptions, fit_constrained

COV_KINDS = ("reciprocal", "identity")

# stream tags for the per-replicate hashes
_THETA_TAG, _TRAIN_TAG, _TEST_TAG = 0, 1, 2

# test rows drawn and scored at a time; a multiple of 8 keeps each block's matvecs bitwise the whole set's
_TEST_BLOCK_ROWS = 64


@dataclass(frozen=True)
class StudyConfig:
    """Replicated-study settings; the defaults are the reference setup
    (p=3000, n=1000, n_test=1000, beta=1e3, R=1, 100 replications)."""

    p: int = 3000
    n: int = 1000
    n_test: int = 1000
    beta: float = 1e3
    R: float = 1.0
    replications: int = 100
    base_seed: int = 20260808
    solver_opts: SolverOptions = field(default_factory=lambda: SolverOptions(max_iters=1500, grad_map_tol=1e-7))

    def __post_init__(self):
        if min(self.p, self.n, self.n_test, self.replications) < 1:
            raise ValueError("p, n, n_test, replications must be >= 1")
        if not (0 <= self.beta < np.inf and 0 <= self.R < np.inf):
            raise ValueError("beta and R must be finite and >= 0")


@dataclass(frozen=True)
class ReplicationResult:
    train_precision: float
    test_precision: float
    abs_diff: float
    sign_recovery_10: float
    sign_recovery_100: float
    sign_recovery_500: float
    sign_recovery_all: float
    sign_recovery_weighted: float
    on_boundary: bool
    converged: bool


# the float fields, in order
METRIC_FIELDS = tuple(f.name for f in fields(ReplicationResult) if f.type == "float")


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    replications: list[ReplicationResult]

    def mean(self, field_name: str) -> float:
        return float(np.mean([getattr(r, field_name) for r in self.replications]))

    def means(self) -> dict[str, float]:
        return {name: self.mean(name) for name in METRIC_FIELDS}


def _hits(theta_hat: np.ndarray, data: Dataset) -> int:
    """Rows whose label matches 1(<X_i, theta_hat> >= 0)."""
    return int(np.count_nonzero((data.inputs @ theta_hat >= 0.0) == data.labels))


def prediction_precision(theta_hat: np.ndarray, data: Dataset) -> float:
    """Fraction of rows whose label matches 1(<X_i, theta_hat> >= 0)."""
    return _hits(np.asarray(theta_hat, dtype=float).reshape(-1), data) / data.n


def sign_recovery(theta_hat, theta_star, head="all", weights=None) -> float:
    """Fraction of coordinates with matching signs, sgn(0) = 0.

    Unweighted: mean of 1(sgn theta_star_i = sgn theta_hat_i) over the
    first ``head`` coordinates.  With ``weights`` given, the full vector
    is scored as sum_i w_i * 1(...) / sum_j w_j.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).reshape(-1)
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    if theta_hat.shape != theta_star.shape:
        raise ValueError("theta_hat and theta_star must have equal length")
    hits = np.sign(theta_hat) == np.sign(theta_star)
    if weights is not None:
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape != theta_hat.shape:
            raise ValueError("weights must match the parameter length")
        if np.any(weights < 0):
            raise ValueError("weights must be >= 0")
        total = float(np.sum(weights))
        if total == 0.0:
            raise ValueError("weights must not all be zero")
        return float(np.sum(weights * hits) / total)
    if head == "all":
        k = theta_hat.size
    else:
        k = int(head)
        if not 1 <= k <= theta_hat.size:
            raise ValueError("head must lie in [1, p]")
    return float(np.mean(hits[:k]))


def _result(cfg, fit: FitResult, train_precision, test_precision, theta_star, eigenvalues) -> ReplicationResult:
    theta_hat = fit.theta_hat
    return ReplicationResult(
        train_precision=train_precision,
        test_precision=test_precision,
        abs_diff=abs(train_precision - test_precision),
        **{f"sign_recovery_{k}": sign_recovery(theta_hat, theta_star, head=min(k, cfg.p)) for k in (10, 100, 500)},
        sign_recovery_all=sign_recovery(theta_hat, theta_star, head="all"),
        sign_recovery_weighted=sign_recovery(theta_hat, theta_star, weights=eigenvalues),
        on_boundary=fit.on_boundary,
        converged=fit.converged,
    )


def _kinds(z: np.ndarray, u: np.ndarray, theta_star: np.ndarray, beta: float, root: np.ndarray):
    """The identity kind's rows, labelled on ``z`` as drawn (its scale is exactly 1); then, once the
    caller is done with them, the reciprocal kind's, on ``z`` scaled in place by ``root``."""
    yield "identity", label_rows(z, u, theta_star, beta)
    z *= root
    yield "reciprocal", label_rows(z, u, theta_star, beta)


def run_replication(cfg: StudyConfig, index: int) -> dict[str, ReplicationResult]:
    """Replicate ``index`` of every kind in COV_KINDS from one draw, given (cfg.base_seed, index).
    Both kinds are fitted and scored on the training set, which is freed before
    the test set is drawn and scored by both fits, _TEST_BLOCK_ROWS rows at a time."""
    theta_star = sample_theta_star(cfg.p, derive_seed(cfg.base_seed, index, _THETA_TAG))
    train_seed, test_seed = (derive_seed(cfg.base_seed, index, tag) for tag in (_TRAIN_TAG, _TEST_TAG))
    eigenvalues = {kind: make_covariance(kind, cfg.p).eigenvalues for kind in COV_KINDS}
    root = np.sqrt(eigenvalues["reciprocal"])

    fits, train_precision = {}, {}
    for kind, train in _kinds(*draw_latent(train_seed, cfg.n, cfg.p), theta_star, cfg.beta, root):
        fits[kind] = fit_constrained(train, cfg.R, cfg.solver_opts)
        train_precision[kind] = _hits(fits[kind].theta_hat, train) / cfg.n
    del train  # the n x p training rows go before the test rows come

    test_hits = dict.fromkeys(fits, 0)
    for z, u in draw_latent_chunks(test_seed, cfg.n_test, cfg.p, _TEST_BLOCK_ROWS):
        for kind, block in _kinds(z, u, theta_star, cfg.beta, root):
            test_hits[kind] += _hits(fits[kind].theta_hat, block)
    return {kind: _result(cfg, fits[kind], train_precision[kind], test_hits[kind] / cfg.n_test, theta_star,
                          eigenvalues[kind]) for kind in fits}


def run_studies(cfg: StudyConfig, threads: int = 1, progress: bool = False) -> dict[str, StudyResult]:
    """One study per kind, in COV_KINDS order, from one `run_replication` call per index on
    `map_replicates`' pool of at most ``threads`` workers.  The call goes through the module
    attribute, so a wrapper set there sees every replicate.  A progress line counts the
    replicates finished so far; the results are the same for any thread count."""
    lock, finished = threading.Lock(), []

    def replicate(index: int) -> dict[str, ReplicationResult]:
        row = run_replication(cfg, index)
        if progress:
            with lock:
                finished.append(index)
                print(f"replicate {len(finished)}/{cfg.replications} done", file=sys.stderr, flush=True)
        return row

    rows = map_replicates(replicate, range(cfg.replications), threads=threads)
    return {kind: StudyResult(cfg, [row[kind] for row in rows]) for kind in COV_KINDS}


def run_coverage(*, p: int = 5, n: int = 500, cov_kind: str = "reciprocal", beta: float = 1e3, R: float = 1.0,
                 delta: float = 0.05, replicates: int = 20, starts: int = 6, budget: int = 4000, base_seed: int = 0,
                 grid_resolution: int = 20000) -> tuple[float, float, list[tuple[float, float | None]]]:
    """The theorem and classical totals, and each replicate's ``(sup, grid)`` in replicate order.

    Replicate ``rep`` draws theta_star, the data and the search starts from
    streams derived from (base_seed, rep), and estimates sup |R_n - R|
    over the ball of radius R with `sup_deviation_search`; for p = 1,
    ``grid`` is the exhaustive grid estimate, else None.  Every value is
    checked, and both totals computed, before any replicate runs: the
    keys checked here, p and cov_kind by `make_covariance`, n, R and delta
    by `BoundParams`, and a delta above 1/6 by `bound_theorem`.
    """
    for key, value in (("replicates", replicates), ("starts", starts), ("budget", budget)):
        if value < 1:
            raise ValueError(f"config key {key!r} must be >= 1")
    if grid_resolution < 2:
        raise ValueError("config key 'grid_resolution' must be >= 2")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("config key 'beta' must be finite and >= 0")
    cov = make_covariance(cov_kind, p)
    params = BoundParams(n=n, R=R, delta=delta, trace_sigma=cov.trace, norm_sigma=cov.spectral_norm)
    theorem_total, classical_total = bound_theorem(params).total, bound_classical(params).total

    def replicate(rep: int) -> tuple[float, float | None]:
        theta_star = sample_theta_star(p, derive_seed(base_seed, rep, 0))
        gen = GenerativeConfig(p=p, n=n, cov=cov, beta=beta, theta_star=theta_star,
                               seed=derive_seed(base_seed, rep, 1))
        data, _ = generate_dataset(gen)
        est = sup_deviation_search(data, gen, R, starts=starts, budget=budget, seed=derive_seed(base_seed, rep, 2))
        grid = sup_deviation_grid(data, gen, R, grid_resolution).sup_value if p == 1 else None
        return est.sup_value, grid

    return theorem_total, classical_total, map_replicates(replicate, range(replicates))


def _fmt(x: float) -> str:
    return f"{x:.5f}"


TABLE1_ROWS = (
    ("correct_prediction_training", "train_precision"),
    ("correct_prediction_test", "test_precision"),
    ("mean_absolute_difference", "abs_diff"),
)

TABLE2_ROWS = (
    ("first_10_elements", "mean over i<=10 of 1(sgn(theta_star_i)=sgn(theta_hat_i))", "sign_recovery_10"),
    ("first_100_elements", "mean over i<=100 of 1(sgn(theta_star_i)=sgn(theta_hat_i))", "sign_recovery_100"),
    ("first_500_elements", "mean over i<=500 of 1(sgn(theta_star_i)=sgn(theta_hat_i))", "sign_recovery_500"),
    ("all_elements", "mean over all i of 1(sgn(theta_star_i)=sgn(theta_hat_i))", "sign_recovery_all"),
    ("weighted_by_variances", "sum_i Sigma_ii*1(sgn(theta_star_i)=sgn(theta_hat_i)) / sum_j Sigma_jj", "sign_recovery_weighted"),
)


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_table1(path, study_rec: StudyResult, study_id: StudyResult) -> None:
    """Prediction table CSV: columns (metric, sigma_rec, identity)."""
    _write_csv(path, [["metric", "sigma_rec", "identity"]] + [
        [name, _fmt(study_rec.mean(field_name)), _fmt(study_id.mean(field_name))]
        for name, field_name in TABLE1_ROWS])


def write_table2(path, study_rec: StudyResult, study_id: StudyResult) -> None:
    """Sign-recovery table CSV: columns (metric, definition, sigma_rec, identity)."""
    _write_csv(path, [["metric", "definition", "sigma_rec", "identity"]] + [
        [name, definition, _fmt(study_rec.mean(field_name)), _fmt(study_id.mean(field_name))]
        for name, definition, field_name in TABLE2_ROWS])


def write_replications(path, studies: dict[str, StudyResult]) -> None:
    """Per-replicate CSV with one row per (covariance, replicate)."""
    _write_csv(path, [["covariance", "replicate", *METRIC_FIELDS, "on_boundary", "converged"]] + [
        [cov_name, i, *(_fmt(getattr(rep, name)) for name in METRIC_FIELDS),
         int(rep.on_boundary), int(rep.converged)]
        for cov_name, study in studies.items() for i, rep in enumerate(study.replications)])
