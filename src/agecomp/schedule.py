"""Component model of age-correlated quantities.

A collection of age schedules (columns of a G x H matrix) is factorized
once: a :class:`ScheduleMatrix` is read-only and computes its one SVD the
first time it is asked; the basis, the weights and the smoothed matrix, for
any component count, all read that factorization.  The scaled left singular
vectors become fixed age-varying components, and every schedule is then a
short weighted sum of those components.  The weights for the source
schedules are rows of the right singular vectors; weights for new schedules
come from an intercept-free projection.  Fitting and reconstruction work on
one schedule or on a whole matrix of them with the same products.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DataError, NumericalError

NATURAL = "natural"
LOG = "log"
_SCALES = (NATURAL, LOG)


def _check_scale(scale: str) -> str:
    if scale not in _SCALES:
        raise DataError(f"scale must be one of {_SCALES}, got {scale!r}")
    return scale


def label_index(labels, what: str) -> dict:
    """Map each label to its position; raises DataError on a repeated label."""
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        dup = next(label for i, label in enumerate(labels) if index[label] != i)
        raise DataError(f"duplicate {what} label {dup!r}")
    return index


@dataclass(frozen=True)
class AgeSchedule:
    """One age schedule: a rate for every age group, on a stated scale."""

    group_labels: tuple
    values: np.ndarray
    scale: str = NATURAL

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group_labels", tuple(self.group_labels))
        if values.ndim != 1 or values.size == 0:
            raise DataError("schedule values must be a nonempty vector")
        if len(self.group_labels) != values.size:
            raise DataError("schedule labels and values differ in length")
        if not np.isfinite(values).all():
            raise DataError("schedule contains non-finite values")
        _check_scale(self.scale)


@dataclass(frozen=True)
class ScheduleMatrix:
    """Labeled G x H matrix: one age schedule per column.

    ``data`` is kept as a read-only view, not a copy, of the array passed in,
    and its SVD is taken on first use by :attr:`factors`, from
    :func:`linalg.svd`, which also answers a repeat of its last input.  A
    caller must not write to an array after building a matrix from it.
    """

    group_labels: tuple
    schedule_labels: tuple
    data: np.ndarray
    scale: str = NATURAL
    _columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = linalg.as_matrix(self.data).view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "group_labels", tuple(self.group_labels))
        object.__setattr__(self, "schedule_labels", tuple(self.schedule_labels))
        if data.shape != (len(self.group_labels), len(self.schedule_labels)):
            raise DataError(
                f"data shape {data.shape} does not match "
                f"{len(self.group_labels)} groups x {len(self.schedule_labels)} schedules"
            )
        _check_scale(self.scale)
        label_index(self.group_labels, "age-group")
        object.__setattr__(self, "_columns", label_index(self.schedule_labels, "schedule"))

    @cached_property
    def factors(self) -> linalg.SvdFactorization:
        """The matrix's one SVD, with read-only factors (see :func:`linalg.svd`)."""
        return linalg.svd(self.data)

    def position(self, label) -> int:
        """The column of schedule ``label``; a DataError if no schedule has it."""
        h = self._columns.get(label)
        if h is None:
            raise DataError(f"no schedule labeled {label!r}")
        return h

    def column(self, label) -> AgeSchedule:
        return AgeSchedule(self.group_labels, self.data[:, self.position(label)].copy(), self.scale)

    def to_log(self) -> "ScheduleMatrix":
        if self.scale == LOG:
            return self
        if np.any(self.data <= 0.0):
            g, h = np.unravel_index(int(np.argmax(self.data <= 0.0)), self.data.shape)
            raise DataError(
                f"non-positive rate {self.data[g, h]} at "
                f"({self.group_labels[g]!r}, {self.schedule_labels[h]!r})"
            )
        return ScheduleMatrix(
            self.group_labels, self.schedule_labels, np.log(self.data), LOG
        )


@dataclass(frozen=True)
class ComponentBasis:
    """Fixed age-varying components: columns of ``components`` are s_i * u_i.

    ``components`` is a read-only view, not a copy, of the array passed in, and
    a caller must not write to that array afterwards.  No column is all zeros.
    Each column is projected on as :func:`linalg.prescale` returns it, with
    its squared norm taken once, so a basis times any power of two 2**k
    projects to the unscaled weights times 2**-k, bit for bit.
    """

    group_labels: tuple
    components: np.ndarray  # G x c
    singular_values: np.ndarray  # length c
    scale: str
    source_id: str = ""
    _prescaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = linalg.as_matrix(self.components).view()
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)
        scaled, q = linalg.prescale(comps, axis=0)
        object.__setattr__(self, "_prescaled", (scaled, np.einsum("ij,ij->j", scaled, scaled), q))
        object.__setattr__(
            self, "singular_values", np.asarray(self.singular_values, dtype=float)
        )
        object.__setattr__(self, "group_labels", tuple(self.group_labels))
        label_index(self.group_labels, "age-group")
        if comps.shape[0] != len(self.group_labels):
            raise DataError("component length does not match group labels")
        if comps.shape[1] != self.singular_values.size:
            raise DataError("component count does not match singular values")
        if (zero := np.flatnonzero(~comps.any(axis=0))).size:
            raise DataError(f"component {zero[0] + 1} is all zeros")
        _check_scale(self.scale)

    @property
    def c(self) -> int:
        return self.components.shape[1]

    @property
    def n_groups(self) -> int:
        return self.components.shape[0]

    def project(self, y, scale: str, prescaled: bool = False) -> np.ndarray:
        """Least-squares weights of a G-vector (c) or of each column of a G x H y (H x c).

        The components are orthogonal: with comp_i = 2**q_i c_i, prescaled,
        beta_i = 2**-q_i (c_i . y) / (c_i . c_i); with ``prescaled``, the
        weights on the c_i themselves, (c_i . y) / (c_i . c_i), are returned.
        """
        if y.shape[0] != self.n_groups:
            raise DataError(f"schedule has {y.shape[0]} groups, basis has {self.n_groups}")
        if scale != self.scale:
            raise DataError(f"scale mismatch: {scale} vs {self.scale}")
        scaled, sq, q = self._prescaled
        b = y.T @ scaled / sq
        return b if prescaled else np.ldexp(b, -q)


@dataclass(frozen=True)
class FittedSchedule:
    """Least-squares weights of one schedule on a component basis."""

    betas: np.ndarray
    residual_norm: float


def _kept(a: ScheduleMatrix, c: int | None) -> tuple:
    """(the matrix's one SVD, c checked against its rank); c=None means the rank."""
    f = a.factors
    if f.rank == 0:
        raise NumericalError("the matrix is all zeros (numerical rank 0)")
    c = f.rank if c is None else c
    if not 1 <= c <= f.rank:
        raise NumericalError(f"requested {c} components, numerical rank is {f.rank}")
    return f, c


def build_basis(a: ScheduleMatrix, c: int | None, source_id: str = "") -> ComponentBasis:
    """First c canonicalized scaled left singular vectors of a schedule matrix."""
    f, c = _kept(a, c)
    return ComponentBasis(
        a.group_labels, f.u[:, :c] * f.s[:c], f.s[:c].copy(), a.scale, source_id
    )


def svd_weights(a: ScheduleMatrix, c: int | None) -> np.ndarray:
    """H x c matrix of per-schedule weights: row h reconstructs column h."""
    f, c = _kept(a, c)
    return f.v[:, :c].copy()


def smooth_matrix(a: ScheduleMatrix, c: int | None) -> ScheduleMatrix:
    """Replace every column by its c-component reconstruction."""
    f, c = _kept(a, c)
    return replace(a, data=linalg.reconstruct_rank(f, c))


def fit_weights(observed: AgeSchedule, basis: ComponentBasis) -> FittedSchedule:
    """Intercept-free least-squares weights of a schedule on the components.

    Where the residual's sum of squares is not finite, as when a product of y
    with a prescaled component overflows, or, for a y that
    :func:`linalg.prescale` would rescale, below 2**-512, as for subnormal
    rates whose products with the components lose bits, the schedule is
    fitted again as a one-column :func:`fit_matrix`, which prescales y too
    and raises NumericalError for a residual whose 2-norm is past the float
    maximum; the first projection's RuntimeWarning is not silenced.  A y in
    range keeps the bits of ``basis.project``, an exact fit's included.
    """
    y = observed.values
    betas = basis.project(y, observed.scale)
    residual = y - basis.components @ betas
    sumsq = np.vdot(residual, residual)  # residual @ residual's bytes, with no overflow warning
    if math.isfinite(sumsq) and (sumsq >= linalg._OFF_RANGE_SUMSQ or not linalg.prescale(y)[1]):
        return FittedSchedule(betas, float(linalg.root_sum_squares(residual, sumsq)))
    # groups labelled by position: unlike a matrix's, a schedule's labels may repeat
    column = ScheduleMatrix(range(len(y)), ("y",), y[:, None], observed.scale)
    (betas,), (norm,) = fit_matrix(column, basis)
    return FittedSchedule(betas, float(norm))


def fit_matrix(a: ScheduleMatrix, basis: ComponentBasis) -> tuple:
    """(H x c weights, H residual norms): :func:`fit_weights` of every column at once.

    Each column, y_j = 2**p_j y'_j, is fitted as :func:`linalg.prescale`
    returns it, on the prescaled components (comp_i = 2**q_i c_i), so no
    product y'c overflows or underflows; each weight is then scaled back by
    the one power 2**(p_j - q_i), and each residual norm by 2**p_j.
    """
    y, p = linalg.prescale(a.data, axis=0)
    scaled, _, q = basis._prescaled
    with np.errstate(over="ignore", invalid="ignore"):
        betas = basis.project(y, a.scale, prescaled=True)
        residual = y - scaled @ betas.T
        sumsq = np.einsum("ij,ij->j", residual, residual)
        norms = linalg.root_sum_squares(residual, sumsq, axis=0)
        betas, norms = np.ldexp(betas, p[:, None] - q), np.ldexp(norms, p)
    if not (np.isfinite(betas).all() and np.isfinite(norms).all()):
        raise NumericalError("fitted weights or residuals overflow float64")
    return betas, norms


def reconstruct(basis: ComponentBasis, betas) -> AgeSchedule:
    """Weighted sum of the basis components."""
    b = np.asarray(betas, dtype=float)
    if b.shape != (basis.c,):
        raise DataError(f"expected {basis.c} weights, got shape {b.shape}")
    return AgeSchedule(basis.group_labels, basis.components @ b, basis.scale)


def reconstruct_matrix(basis: ComponentBasis, labels, weights) -> ScheduleMatrix:
    """Schedules labelled ``labels`` from H x c weights: column h is components @ weights[h]."""
    w = np.asarray(weights, dtype=float)
    if w.shape[-1:] != (basis.c,):
        raise DataError(f"weights have {w.shape[-1]} components, basis has {basis.c}")
    return ScheduleMatrix(basis.group_labels, labels, basis.components @ w.T, basis.scale)


_QUANTILE_PROBS = (0.01, 0.25, 0.50, 0.75, 0.99)


@dataclass(frozen=True)
class ErrorMetrics:
    """Mean absolute error plus the five-number |error| quantile summary."""

    mae: float
    quantiles: np.ndarray  # at probabilities 1, 25, 50, 75, 99 percent
    probs: tuple = _QUANTILE_PROBS


def error_metrics(predicted: ScheduleMatrix, observed: ScheduleMatrix) -> ErrorMetrics:
    """Absolute-error summary over all cells of two same-shape matrices."""
    if predicted.data.shape != observed.data.shape:
        raise DataError(
            f"shape mismatch: {predicted.data.shape} vs {observed.data.shape}"
        )
    if predicted.scale != observed.scale:
        raise DataError(f"scale mismatch: {predicted.scale} vs {observed.scale}")
    with np.errstate(over="ignore", invalid="ignore"):
        abserr = np.abs(predicted.data - observed.data).ravel()
        mae = float(abserr.mean())
    # errors are >= 0, so one overflowed difference or sum makes the mean inf
    if not math.isfinite(mae):
        raise NumericalError("absolute errors overflow float64")
    return ErrorMetrics(mae=mae, quantiles=np.quantile(abserr, _QUANTILE_PROBS))


def concat_sexes(female: ScheduleMatrix, male: ScheduleMatrix) -> ScheduleMatrix:
    """Stack female and male schedules into one matrix, female block first.

    Row labels are prefixed F_/M_ so each sex-age group stays identifiable.
    """
    if female.schedule_labels != male.schedule_labels:
        raise DataError("female and male schedule labels differ")
    if female.group_labels != male.group_labels:
        raise DataError("female and male age-group grids differ")
    if female.scale != male.scale:
        raise DataError("female and male matrices are on different scales")
    labels = tuple(f"F_{g}" for g in female.group_labels) + tuple(
        f"M_{g}" for g in male.group_labels
    )
    return ScheduleMatrix(
        labels,
        female.schedule_labels,
        np.vstack([female.data, male.data]),
        female.scale,
    )
