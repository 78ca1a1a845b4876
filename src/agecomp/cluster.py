"""Model-based clustering of per-schedule weight vectors.

Gaussian mixtures are fitted by EM with a choice of covariance family
(spherical, diagonal or full, each varying per cluster), and the cluster
count and family are picked by minimum BIC over a grid.  Fits are
deterministic for a fixed seed: centers are drawn by squared-distance
weighted (k-means++ style) sampling from a seeded generator, with a fixed
number of restarts keeping the best likelihood among those whose component
covariances stay off the variance floor.  Each EM step handles all k
components at once, as a k x d x d stack of covariances.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .schedule import ComponentBasis, reconstruct

FAMILIES = ("spherical", "diagonal", "full")

_RESTARTS = 5
_MAX_ITER = 500
_LL_TOL = 1e-8
_VARIANCE_FLOOR_SCALE = 1e-8


@dataclass(frozen=True)
class GmmModel:
    """Fitted Gaussian mixture with its selection bookkeeping."""

    k: int
    family: str
    mixing_weights: np.ndarray  # length k, positive, sums to 1
    means: np.ndarray  # k x d
    covariances: np.ndarray  # k x d x d, constrained per family
    log_likelihood: float
    bic: float
    n_params: int
    n_obs: int
    # EM diagnostics of the kept restart; a model built by hand ran no EM
    n_iter: int = 0  # EM iterations run
    converged: bool = False  # the log-likelihood gain fell below _LL_TOL
    failed_restarts: int = 0  # restarts that collapsed or rested on the floor


@dataclass(frozen=True)
class ClusterAssignment:
    """Hard labels (1..k) with the posterior responsibility matrix."""

    labels: np.ndarray  # length n, values in 1..k
    responsibilities: np.ndarray  # n x k, rows sum to 1


def _component_log_probs(points, weights, means, covs):
    # n x k matrix of log(weight_j) + log N(x_i | mean_j, cov_j)
    d = points.shape[1]
    chol = np.linalg.cholesky(covs)
    diff = points[None, :, :] - means[:, None, :]
    solved = np.linalg.solve(chol, diff.transpose(0, 2, 1))
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    logpdf = -0.5 * (d * np.log(2.0 * np.pi) + logdet[:, None] + (solved**2).sum(axis=1))
    return (np.log(weights)[:, None] + logpdf).T


def _constrain(covs, family, floor):
    # (family-constrained k x d x d stack, whether any variance was raised to the floor)
    d = covs.shape[-1]
    if family == "spherical":
        var = np.trace(covs, axis1=1, axis2=2)[:, None] / d
    elif family == "diagonal":
        var = np.diagonal(covs, axis1=1, axis2=2)
    else:
        eigvals, eigvecs = np.linalg.eigh(covs)
        scaled = eigvecs * np.maximum(eigvals, floor)[:, None, :]
        return scaled @ eigvecs.transpose(0, 2, 1), bool(eigvals.min() <= floor)
    return np.eye(d) * np.maximum(var, floor)[:, None, :], bool(var.min() <= floor)


def _seed_centers(points, k, rng):
    # k-means++ style: first center uniform, later ones by squared distance
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    while len(centers) < k:
        dist2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = dist2.sum()
        if total == 0.0:
            centers.append(points[rng.integers(n)])
        else:
            centers.append(points[rng.choice(n, p=dist2 / total)])
    return np.array(centers)


def _floor_for(points):
    var = points.var(axis=0).mean()
    return _VARIANCE_FLOOR_SCALE * var if var > 0 else 1e-12


def _pooled_cov(points, family, floor):
    # the data's covariance as a 1 x d x d stack, constrained per family
    n, d = points.shape
    pooled = np.cov(points.T).reshape(1, d, d) if n > 1 else np.zeros((1, d, d))
    return _constrain(pooled, family, floor)


def _posterior(points, weights, means, covs):
    # (log-likelihood of each point, n x k responsibilities)
    logp = _component_log_probs(points, weights, means, covs)
    peak = logp.max(axis=1, keepdims=True)
    logsum = peak[:, 0] + np.log(np.exp(logp - peak).sum(axis=1))
    return logsum, np.exp(logp - logsum[:, None])


def _run_em(points, k, family, means, floor):
    # (log-likelihood path, whether it met _LL_TOL, weights, means, covariances,
    #  whether a final covariance rests on the variance floor)
    covs = np.repeat(_pooled_cov(points, family, floor)[0], k, axis=0)
    weights = np.full(k, 1.0 / k)
    path = []
    converged = False
    for iteration in range(_MAX_ITER):
        logsum, resp = _posterior(points, weights, means, covs)
        path.append(float(logsum.sum()))
        counts = resp.sum(axis=0)
        if np.any(counts < 1e-10):
            raise NumericalError("mixture component collapsed to zero weight")
        weights = counts / len(points)
        means = (resp.T @ points) / counts[:, None]
        diff = points[None, :, :] - means[:, None, :]
        scatter = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
        covs, floored = _constrain(scatter / counts[:, None, None], family, floor)
        if iteration > 0 and path[-1] - path[-2] < _LL_TOL:
            converged = True
            break
    return path, converged, weights, means, covs, floored


def _param_count(k, d, family):
    per_cov = {"spherical": 1, "diagonal": d, "full": d * (d + 1) // 2}[family]
    return k * d + k * per_cov + (k - 1)


def fit_gmm_em(points, k: int, family: str = "full", seed: int = 0) -> GmmModel:
    """Fit a k-component Gaussian mixture by EM.

    Runs a fixed number of seeded restarts and keeps the highest final
    log-likelihood.  Covariance eigenvalues are floored at a small multiple
    of the data variance so no component becomes exactly singular.  A
    restart that ends with a component covariance resting on that floor (a
    component shrunk onto too few points to span the space, whose
    likelihood is set by the floor constant rather than by the data) counts
    as failed, unless the pooled covariance of the data rests on the floor
    too (identical points).  Raises NumericalError when every restart fails.
    The model reports the kept restart's iteration count, whether it met the
    log-likelihood tolerance, and how many restarts failed.
    """
    pts = linalg.as_matrix(points)
    n, d = pts.shape
    if family not in FAMILIES:
        raise DataError(f"family must be one of {FAMILIES}, got {family!r}")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if n < k:
        raise NumericalError(f"cannot fit {k} clusters to {n} observations")
    floor = _floor_for(pts)
    degenerate = _pooled_cov(pts, family, floor)[1]
    rng = np.random.default_rng(seed)
    best = None
    failures = []
    for _ in range(_RESTARTS):
        means = _seed_centers(pts, k, rng)
        try:
            path, converged, weights, means, covs, floored = _run_em(
                pts, k, family, means, floor
            )
        except (NumericalError, np.linalg.LinAlgError) as exc:
            failures.append(exc)
            continue
        if floored and not degenerate:
            failures.append("a component covariance rests on the variance floor")
            continue
        if best is None or path[-1] > best[0][-1]:
            best = (path, converged, weights, means, covs)
    if best is None:
        raise NumericalError(f"all EM restarts failed: {failures[-1]}")
    path, converged, weights, means, covs = best
    n_params = _param_count(k, d, family)
    return GmmModel(
        k=k,
        family=family,
        mixing_weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=path[-1],
        bic=-2.0 * path[-1] + n_params * np.log(n),
        n_params=n_params,
        n_obs=n,
        n_iter=len(path),
        converged=converged,
        failed_restarts=len(failures),
    )


def assign(model: GmmModel, points) -> ClusterAssignment:
    """Posterior responsibilities and MAP labels (1..k) for each point."""
    pts = linalg.as_matrix(points)
    resp = _posterior(pts, model.mixing_weights, model.means, model.covariances)[1]
    return ClusterAssignment(labels=resp.argmax(axis=1) + 1, responsibilities=resp)


def select_by_bic(points, k_range, families=FAMILIES, seed: int = 0) -> GmmModel:
    """Best model over a (k, family) grid by minimum BIC.

    A grid point is skipped, like a selection returning NA for an
    unfittable model, when every EM restart fails: a component collapses,
    or its covariance rests on the variance floor (see :func:`fit_gmm_em`).
    Ties prefer smaller k, then the simpler family.  Raises only if every
    grid point fails.
    """
    ks = list(k_range)
    if not ks:
        raise DataError("empty k range")
    candidates = []
    last_error = None
    for family in families:
        if family not in FAMILIES:
            raise DataError(f"unknown family {family!r}")
        for k in ks:
            try:
                model = fit_gmm_em(points, k, family, seed)
            except NumericalError as exc:
                last_error = exc
                continue
            candidates.append(model)
    if not candidates:
        raise NumericalError(f"no (k, family) grid point could be fitted: {last_error}")
    return min(candidates, key=lambda m: (m.bic, m.k, FAMILIES.index(m.family)))


def characteristic_schedules(
    assignment: ClusterAssignment, weights, basis: ComponentBasis
) -> list:
    """Per-cluster median weight vectors, reconstructed through the basis.

    Returns one representative AgeSchedule per cluster label, in label
    order.  Every label present in the assignment must have members.
    """
    w = linalg.as_matrix(weights)
    labels = np.asarray(assignment.labels)
    if labels.shape[0] != w.shape[0]:
        raise DataError("assignment length does not match the weight rows")
    k = int(labels.max())
    out = []
    for cluster in range(1, k + 1):
        members = w[labels == cluster]
        if members.shape[0] == 0:
            raise DataError(f"cluster {cluster} is empty")
        out.append(reconstruct(basis, np.median(members, axis=0)))
    return out


def em_log_likelihood_path(points, k: int, family: str = "full", seed: int = 0):
    """Log-likelihood after each EM iteration of a single run (diagnostic)."""
    pts = linalg.as_matrix(points)
    if pts.shape[0] < k:
        raise NumericalError(f"cannot fit {k} clusters to {pts.shape[0]} observations")
    means = _seed_centers(pts, k, np.random.default_rng(seed))
    return _run_em(pts, k, family, means, _floor_for(pts))[0]
