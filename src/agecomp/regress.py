"""Ordinary least squares with inference, for modeling component weights.

Weight series (one value per schedule) are regressed on covariates; the
fitted models then turn covariate values into predicted weights, and the
weights into whole predicted age schedules through a component basis.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .measures import derive_delta
from .schedule import AgeSchedule, ComponentBasis, label_index, reconstruct

# Columns with a known range; everything else is accepted as-is.
_FRACTION_COLUMNS = ("hiv_prev", "art_cov", "q45_15", "q5_0")


@dataclass(frozen=True)
class CovariateTable:
    """Per-schedule covariates keyed by schedule label (typically a year).

    The derived ``delta`` column is the untreated HIV-positive share,
    hiv_prev minus art_cov, expressed in percentage points (its customary
    reporting scale, and the scale on which the weight regressions run).
    """

    labels: tuple
    columns: dict
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        cols = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_rows", label_index(self.labels, "covariate row"))
        n = len(self.labels)
        for name, col in cols.items():
            if col.shape != (n,):
                raise DataError(f"covariate column {name!r} has wrong length")
            if not np.all(np.isfinite(col)):
                raise DataError(f"covariate column {name!r} has non-finite entries")
        for name in _FRACTION_COLUMNS:
            if name in cols and (np.any(cols[name] < 0) or np.any(cols[name] > 1)):
                raise DataError(f"covariate {name!r} must lie in [0, 1]")
        if "e0" in cols and np.any(cols["e0"] <= 0):
            raise DataError("life expectancy e0 must be positive")

    def with_delta(self) -> "CovariateTable":
        """Add the derived delta column (percentage points); idempotent."""
        if "delta" in self.columns:
            return self
        if "hiv_prev" not in self.columns or "art_cov" not in self.columns:
            raise DataError("delta needs both hiv_prev and art_cov")
        delta = 100.0 * derive_delta(self.columns["hiv_prev"], self.columns["art_cov"])
        return CovariateTable(self.labels, {**self.columns, "delta": delta})

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"no covariate column named {name!r}")
        return self.columns[name]

    def row(self, label) -> dict:
        i = self._rows.get(str(label))
        if i is None:
            raise DataError(f"no covariate row labeled {label!r}")
        return {name: float(col[i]) for name, col in self.columns.items()}


@dataclass(frozen=True)
class LinearModel:
    """OLS fit: coefficients with standard errors, t and p values, R^2."""

    predictor_names: tuple  # without the intercept
    coefficients: np.ndarray  # intercept first when with_intercept
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    n: int
    residuals: np.ndarray
    with_intercept: bool = True

    def predict_one(self, covariates: dict):
        """Model value at one covariate row, a dict of floats.  Given a dict of
        equal-length columns instead, it is the value at every row, elementwise."""
        coefs = iter(self.coefficients)
        value = next(coefs) if self.with_intercept else 0.0
        for name, coef in zip(self.predictor_names, coefs):
            if name not in covariates:
                raise DataError(f"missing covariate {name!r}")
            value = value + coef * covariates[name]
        return value


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (modified Lentz).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise NumericalError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), evaluated by continued fraction; absolute error < 1e-8."""
    if not 0.0 <= x <= 1.0:
        raise NumericalError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_p_value(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df < 1:
        raise NumericalError("degrees of freedom must be >= 1")
    if not math.isfinite(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def _fit_columns(ys: np.ndarray, predictors: dict, with_intercept: bool) -> list:
    """One least-squares model per column of the n x c response matrix ys.

    Every column is fitted through the same thin SVD X = U S V' of the
    design, with the rank cutoff of :func:`linalg.svd`: coefficients are
    V S^-1 U'y, and standard errors are the square roots of the diagonal of
    sigma^2 (X'X)^-1 = sigma^2 V S^-2 V', with sigma^2 = RSS/(n-p).
    p-values are two-sided Student-t.  R^2 uses the centered total sum of
    squares when an intercept is present, uncentered otherwise.
    """
    names = tuple(predictors.keys())
    cols = [np.asarray(predictors[name], dtype=float) for name in names]
    for name, col in zip(names, cols):
        if col.shape != ys.shape[:1]:
            raise DataError(f"predictor {name!r} length mismatch")
    design = np.column_stack(([np.ones(ys.shape[0])] if with_intercept else []) + cols)
    n, p = design.shape
    if n <= p:
        raise NumericalError(f"{n} observations cannot identify {p} parameters")
    f = linalg.svd(design)
    if f.rank < p:
        raise NumericalError("rank-deficient design matrix")
    inverse_gram_diag = ((f.v / f.s) ** 2).sum(axis=1)
    models = []
    for y in ys.T:
        coefs = f.v @ ((f.u.T @ y) / f.s)
        residuals = y - design @ coefs
        rss = float(residuals @ residuals)
        se = np.sqrt(rss / (n - p) * inverse_gram_diag)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_values = np.where(se > 0, coefs / se, np.inf)
        tss = float(((y - y.mean()) ** 2).sum()) if with_intercept else float(y @ y)
        models.append(LinearModel(
            names, coefs, standard_errors=se, t_values=t_values,
            p_values=np.array([student_t_p_value(t, n - p) for t in t_values]),
            r_squared=float(1.0 - rss / tss if tss > 0 else 1.0), n=n,
            residuals=residuals, with_intercept=with_intercept,
        ))
    return models


def ols_fit(y, predictors: dict, with_intercept: bool = True) -> LinearModel:
    """Least-squares fit of the vector y on named predictor columns (see _fit_columns)."""
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1:
        raise DataError("response must be a vector")
    return _fit_columns(yv[:, None], predictors, with_intercept)[0]


def fit_weight_models(
    weights: np.ndarray, covariates: CovariateTable, predictor_names
) -> list:
    """One linear model per weight column, all from one factorization of the
    shared design.  A predictor named twice is a DataError."""
    w = linalg.as_matrix(weights)
    if w.shape[0] != len(covariates.labels):
        raise DataError("weight rows do not match covariate rows")
    label_index(predictor_names, "predictor")
    table = covariates.with_delta() if "delta" in predictor_names else covariates
    return _fit_columns(w, {name: table.column(name) for name in predictor_names}, True)


def predict_weights(models, covariates: dict) -> np.ndarray:
    """Predicted weight vector: one model evaluation per component."""
    return np.array([m.predict_one(covariates) for m in models])


def predict_schedule(basis: ComponentBasis, models, covariates: dict) -> AgeSchedule:
    """Covariate-driven prediction of a whole age schedule."""
    if len(models) != basis.c:
        raise DataError(f"need {basis.c} models, got {len(models)}")
    return reconstruct(basis, predict_weights(models, covariates))
