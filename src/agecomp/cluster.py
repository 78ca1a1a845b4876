"""Model-based clustering of per-schedule weight vectors.

Gaussian mixtures are fitted by EM with a choice of covariance family
(spherical, diagonal or full, each varying per cluster), and the cluster
count and family are picked by minimum BIC over a grid.  Fits are
deterministic for a fixed seed: centers are drawn by squared-distance
weighted (k-means++ style) sampling from a seeded generator, with a fixed
number of restarts keeping the best likelihood among those whose component
covariances stay off the variance floor.  Each EM step handles all R
restarts and k components at once, as an R x k x d x d covariance stack.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .schedule import ComponentBasis, reconstruct

FAMILIES = ("spherical", "diagonal", "full")

_RESTARTS = 5
_MAX_ITER = 500
_LL_TOL = 1e-8
_VARIANCE_FLOOR_SCALE = 1e-8
_GRID_FIELDS = ("k", "family", "bic", "log_likelihood", "n_iter", "converged", "failed_restarts")


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
    log_likelihood_path: tuple = ()  # log-likelihood at each EM iteration
    grid: tuple = ()  # select_by_bic's (k, family) points: fit diagnostics or error


@dataclass(frozen=True)
class ClusterAssignment:
    """Hard labels (1..k) with the posterior responsibility matrix."""

    labels: np.ndarray  # length n, values in 1..k
    responsibilities: np.ndarray  # n x k, rows sum to 1


def _component_log_probs(points, weights, means, covs):
    # ... x n x k array of log(weight_j) + log N(x_i | mean_j, cov_j), over leading stack axes
    d = points.shape[1]
    chol = np.linalg.cholesky(covs)
    diff = points - means[..., None, :]
    solved = np.linalg.solve(chol, diff.swapaxes(-1, -2))
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    logpdf = -0.5 * (d * np.log(2.0 * np.pi) + logdet[..., None] + (solved**2).sum(axis=-2))
    return (np.log(weights)[..., None] + logpdf).swapaxes(-1, -2)


def _constrain(covs, family, floor):
    # (family-constrained stack, whether a variance of each k x d x d stack was
    #  raised to the floor: a bool, or a list over the leading axes)
    d = covs.shape[-1]
    if family == "spherical":
        var = np.trace(covs, axis1=-2, axis2=-1)[..., None] / d
    elif family == "diagonal":
        var = np.diagonal(covs, axis1=-2, axis2=-1)
    else:
        var, eigvecs = np.linalg.eigh(covs)
    floored = (var.min(axis=(-2, -1)) <= floor).tolist()
    if family == "full":
        return (eigvecs * np.maximum(var, floor)[..., None, :]) @ eigvecs.swapaxes(-1, -2), floored
    return np.eye(d) * np.maximum(var, floor)[..., None, :], floored


def _seed_centers(points, k, rng):
    # k-means++ style: first center uniform, later ones by squared distance
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    dist2 = np.inf
    while len(centers) < k:
        # squared distance to the nearest center, updated by the newest one
        dist2 = np.minimum(dist2, ((points - centers[-1]) ** 2).sum(axis=1))
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
    # (log-likelihood of each point, ... x n x k responsibilities)
    logp = _component_log_probs(points, weights, means, covs)
    peak = logp.max(axis=-1, keepdims=True)
    logsum = peak[..., 0] + np.log(np.exp(logp - peak).sum(axis=-1))
    return logsum, np.exp(logp - logsum[..., None])


def _run_restarts(points, family, seeds):
    # EM on all restarts at once: R x k x d means, R x k weights, R x k x d x d
    # covariances.  A restart leaves the stack when it ends, so each runs its own
    # iterations; after a LAPACK failure each reruns alone, so only that one fails.
    # Returns per restart its failure or (path, converged, weights, means, covs).
    n_restarts, k, d = seeds.shape
    means, weights = seeds, np.full((n_restarts, k), 1.0 / k)
    floor = _floor_for(points)
    pooled, degenerate = _pooled_cov(points, family, floor)
    covs = np.broadcast_to(pooled, (n_restarts, k, d, d))
    rows = list(range(n_restarts))  # the restart in each row of the stacks
    paths, out = [[] for _ in rows], [None] * n_restarts
    try:
        while rows:
            logsum, resp = _posterior(points, weights, means, covs)
            counts = resp.sum(axis=1)
            collapsed = np.any(counts < 1e-10, axis=1)
            counts = np.maximum(counts, 1e-10)  # a collapsed restart's update is dropped
            weights = counts / len(points)
            means = (resp.swapaxes(1, 2) @ points) / counts[..., None]
            diff = points - means[..., None, :]
            scatter = (resp.swapaxes(1, 2)[..., None] * diff).swapaxes(2, 3) @ diff
            covs, floored = _constrain(scatter / counts[..., None, None], family, floor)
            going = []
            for row, (r, ll) in enumerate(zip(rows, logsum.sum(axis=1))):
                path = paths[r]
                path.append(float(ll))
                met = len(path) > 1 and path[-1] - path[-2] < _LL_TOL
                if collapsed[row]:
                    out[r] = NumericalError("mixture component collapsed to zero weight")
                elif not (met or len(path) == _MAX_ITER):
                    going.append(row)
                elif floored[row] and not degenerate:
                    out[r] = "a component covariance rests on the variance floor"
                else:
                    out[r] = (path, met, weights[row], means[row], covs[row])
            rows = [rows[row] for row in going]
            weights, means, covs = weights[going], means[going], covs[going]
    except np.linalg.LinAlgError as exc:
        if n_restarts == 1:
            return [exc]
        return [run for seed in seeds for run in _run_restarts(points, family, seed[None])]
    return out


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
    rng = np.random.default_rng(seed)
    seeds = np.array([_seed_centers(pts, k, rng) for _ in range(_RESTARTS)])
    runs = _run_restarts(pts, family, seeds)
    kept = [run for run in runs if isinstance(run, tuple)]
    if not kept:
        raise NumericalError(f"all EM restarts failed: {runs[-1]}")
    path, converged, weights, means, covs = max(kept, key=lambda run: run[0][-1])
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
        failed_restarts=len(runs) - len(kept),
        log_likelihood_path=tuple(path),
    )


def assign(model: GmmModel, points) -> ClusterAssignment:
    """Posterior responsibilities and MAP labels (1..k) for each point."""
    pts = linalg.as_matrix(points)
    resp = _posterior(pts, model.mixing_weights, model.means, model.covariances)[1]
    return ClusterAssignment(labels=resp.argmax(axis=1) + 1, responsibilities=resp)


def select_by_bic(points, k_range, families=FAMILIES, seed: int = 0) -> GmmModel:
    """Best model over a (k, family) grid by minimum BIC, with the grid on it.

    A grid point is skipped, like a selection returning NA for an
    unfittable model, when every EM restart fails: a component collapses,
    or its covariance rests on the variance floor (see :func:`fit_gmm_em`).
    Ties prefer smaller k, then the simpler family.  Raises only if every
    grid point fails; ``grid`` lists each point's diagnostics or error.
    """
    ks, families = list(k_range), tuple(families)
    if not ks:
        raise DataError("empty k range")
    if not families:
        raise DataError("empty family list")
    candidates = []
    grid = []
    for family in families:
        if family not in FAMILIES:
            raise DataError(f"unknown family {family!r}")
        for k in ks:
            try:
                model = fit_gmm_em(points, k, family, seed)
            except NumericalError as exc:
                grid.append({"k": k, "family": family, "error": str(exc)})
                continue
            candidates.append(model)
            grid.append({f: getattr(model, f) for f in _GRID_FIELDS})
    if not candidates:
        raise NumericalError(f"no (k, family) grid point could be fitted: {grid[-1]['error']}")
    best = min(candidates, key=lambda m: (m.bic, m.k, FAMILIES.index(m.family)))
    return replace(best, grid=tuple(grid))


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
    """Log-likelihood at each EM iteration of the restart fit_gmm_em keeps."""
    return list(fit_gmm_em(points, k, family, seed).log_likelihood_path)
