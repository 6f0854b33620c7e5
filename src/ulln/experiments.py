"""Replicated prediction / sign-recovery studies for the constrained
logistic minimizer under anisotropic Gaussian designs.

`run_replication` draws theta_star, a training set and a test set once,
from streams hashed out of (base_seed, index), and serves every kind in
COV_KINDS: it fits the ball-constrained minimizer on the identity design,
scales Z in place by the square root of the reciprocal spectrum and fits
again, recording prediction precision plus head/weighted sign recovery
of each fit.  Sharing the draw pairs the two columns of each table.
`run_studies` runs the replicates one after another on the calling
thread, and the fit keeps every BLAS thread; only the two data draws of
a replicate may overlap, on one helper thread.  Every set has its own
stream, so the results are the same for any thread count.
"""
from __future__ import annotations

import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .datagen import derive_seed, draw_latent, label_rows, make_covariance, sample_theta_star
from .model import Dataset
from .solver import FitResult, SolverOptions, fit_constrained

COV_KINDS = ("reciprocal", "identity")

# stream tags for the per-replicate hashes
_THETA_TAG, _TRAIN_TAG, _TEST_TAG = 0, 1, 2


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


METRIC_FIELDS = (
    "train_precision",
    "test_precision",
    "abs_diff",
    "sign_recovery_10",
    "sign_recovery_100",
    "sign_recovery_500",
    "sign_recovery_all",
    "sign_recovery_weighted",
)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    replications: list[ReplicationResult]

    def mean(self, field_name: str) -> float:
        return float(np.mean([getattr(r, field_name) for r in self.replications]))

    def means(self) -> dict[str, float]:
        return {name: self.mean(name) for name in METRIC_FIELDS}


def prediction_precision(theta_hat: np.ndarray, data: Dataset) -> float:
    """Fraction of rows whose label matches 1(<X_i, theta_hat> >= 0)."""
    theta_hat = np.asarray(theta_hat, dtype=float).reshape(-1)
    if theta_hat.shape[0] != data.p:
        raise ValueError("theta_hat dimension does not match data")
    predicted = (data.inputs @ theta_hat >= 0.0).astype(np.int64)
    return float(np.mean(predicted == data.labels))


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


def _fit_and_score(cfg: StudyConfig, train: Dataset, test: Dataset, theta_star, eigenvalues) -> ReplicationResult:
    fit: FitResult = fit_constrained(train, cfg.R, cfg.solver_opts)
    theta_hat = fit.theta_hat

    train_precision = prediction_precision(theta_hat, train)
    test_precision = prediction_precision(theta_hat, test)

    def head_recovery(k: int) -> float:
        return sign_recovery(theta_hat, theta_star, head=min(k, cfg.p))

    return ReplicationResult(
        train_precision=train_precision,
        test_precision=test_precision,
        abs_diff=abs(train_precision - test_precision),
        sign_recovery_10=head_recovery(10),
        sign_recovery_100=head_recovery(100),
        sign_recovery_500=head_recovery(500),
        sign_recovery_all=sign_recovery(theta_hat, theta_star, head="all"),
        sign_recovery_weighted=sign_recovery(theta_hat, theta_star, weights=eigenvalues),
        on_boundary=fit.on_boundary,
        converged=fit.converged,
    )


def run_replication(cfg: StudyConfig, index: int, helper: ThreadPoolExecutor | None = None) -> dict[str, ReplicationResult]:
    """Replicate ``index`` of every kind in COV_KINDS from one draw, freed on
    return; deterministic given (cfg.base_seed, index).  A ``helper``
    executor draws the test set while this thread draws the training set;
    Philox releases the GIL, so the draws overlap."""
    theta_star = sample_theta_star(cfg.p, derive_seed(cfg.base_seed, index, _THETA_TAG))
    train_seed, test_seed = (derive_seed(cfg.base_seed, index, tag) for tag in (_TRAIN_TAG, _TEST_TAG))
    test_draw = helper.submit(draw_latent, test_seed, cfg.n_test, cfg.p) if helper else None
    train_draw = draw_latent(train_seed, cfg.n, cfg.p)
    draws = train_draw, (test_draw.result() if test_draw else draw_latent(test_seed, cfg.n_test, cfg.p))

    results = {}
    # the identity kind, whose scale is exactly 1, reads Z as drawn; then Z
    # is scaled in place for the reciprocal kind
    for kind in ("identity", "reciprocal"):
        eigenvalues = make_covariance(kind, cfg.p).eigenvalues
        if kind == "reciprocal":
            for z, _ in draws:
                z *= np.sqrt(eigenvalues)
        train, test = (label_rows(z, u, theta_star, cfg.beta) for z, u in draws)
        results[kind] = _fit_and_score(cfg, train, test, theta_star, eigenvalues)
    return results


def run_studies(cfg: StudyConfig, threads: int = 1, progress: bool = False) -> dict[str, StudyResult]:
    """One study per kind, in COV_KINDS order, from one `run_replication`
    call per index.  The call goes through the module attribute, so a
    wrapper set there sees every replicate.  ``threads`` > 1 draws each
    test set on one helper thread; the results are the same for any count."""
    rows = []
    with ThreadPoolExecutor(max_workers=1) if threads > 1 else nullcontext() as helper:
        for i in range(cfg.replications):
            rows.append(run_replication(cfg, i, helper))
            if progress:
                print(f"replicate {i + 1}/{cfg.replications} done", file=sys.stderr, flush=True)
    return {kind: StudyResult(cfg, [row[kind] for row in rows]) for kind in COV_KINDS}


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
