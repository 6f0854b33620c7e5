"""Ball-constrained logistic regression with dimension-free uniform
concentration bounds: solvers, bound calculators, deviation search, the
table-reproduction harness, and numerical checks of the underlying
Gaussian-analysis identities."""

from .model import (
    Dataset,
    LogisticSurface,
    empirical_risk,
    per_example_loss,
    risk_gradient,
    risk_laplacian,
    sigmoid,
    sigmoid_derivative,
    softplus,
)
from .datagen import (
    CovarianceSpec,
    GenerativeConfig,
    derive_seed,
    generate_dataset,
    make_covariance,
    read_dataset,
    sample_theta_star,
    write_dataset,
)
from .solver import FitResult, SolverOptions, fit_constrained, project_to_ball
from .bounds import (
    BoundParams,
    BoundReport,
    RatioTable,
    bound_classical,
    bound_extended,
    bound_theorem,
    effective_rank,
    ulln_ratio_table,
)
from .deviation import DeviationEstimate, population_rows, sup_deviation_grid, sup_deviation_search
from .experiments import (
    ReplicationResult,
    StudyConfig,
    StudyResult,
    prediction_precision,
    run_coverage,
    run_replication,
    run_studies,
    sign_recovery,
)
from . import theory_checks

__all__ = [name for name in dir() if not name.startswith("_")]
