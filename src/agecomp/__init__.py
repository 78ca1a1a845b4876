"""SVD component models of demographic age schedules.

Decompose a matrix of age schedules once, represent every schedule as a
short weighted sum of fixed age-varying components, then smooth, fit,
predict from covariates, and cluster schedules through their weights.
"""

from .cluster import (
    ClusterAssignment,
    GmmModel,
    assign,
    characteristic_schedules,
    fit_gmm_em,
    select_by_bic,
)
from .errors import DataError, NumericalError
from .linalg import (
    SvdFactorization,
    canonicalize_signs,
    center_columns,
    explained_share,
    frobenius_residual,
    reconstruct_rank,
    svd,
)
from .measures import (
    LifeTable,
    derive_delta,
    interval_death_prob,
    life_table_from_mx,
    tfr,
)
from .regress import (
    CovariateTable,
    LinearModel,
    fit_weight_models,
    ols_fit,
    predict_schedule,
    predict_weights,
    student_t_p_value,
)
from .schedule import (
    AgeSchedule,
    ComponentBasis,
    Decomposition,
    ErrorMetrics,
    FittedSchedule,
    ScheduleMatrix,
    build_basis,
    concat_sexes,
    decompose,
    error_metrics,
    fit_weights,
    reconstruct,
    smooth_matrix,
    svd_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AgeSchedule",
    "ClusterAssignment",
    "ComponentBasis",
    "CovariateTable",
    "DataError",
    "Decomposition",
    "ErrorMetrics",
    "FittedSchedule",
    "GmmModel",
    "LifeTable",
    "LinearModel",
    "NumericalError",
    "ScheduleMatrix",
    "SvdFactorization",
    "assign",
    "build_basis",
    "canonicalize_signs",
    "center_columns",
    "characteristic_schedules",
    "concat_sexes",
    "decompose",
    "derive_delta",
    "error_metrics",
    "explained_share",
    "fit_gmm_em",
    "fit_weight_models",
    "fit_weights",
    "frobenius_residual",
    "interval_death_prob",
    "life_table_from_mx",
    "ols_fit",
    "predict_schedule",
    "predict_weights",
    "reconstruct",
    "reconstruct_rank",
    "select_by_bic",
    "smooth_matrix",
    "student_t_p_value",
    "svd",
    "svd_weights",
    "tfr",
]
