"""Model-based clustering of per-schedule weight vectors.

Gaussian mixtures are fitted by EM with a choice of covariance family
(spherical, diagonal or full, each varying per cluster), and the cluster
count and family are picked by minimum BIC over a grid, among the fits whose
every component holds at least d + 1 effective members.  Fits are
deterministic for a fixed seed: centers are drawn by squared-distance
weighted (k-means++ style) sampling from a seeded generator, with a fixed
number of restarts keeping the best likelihood among those whose component
covariances stay off the variance floor.  The restarts of every family at
one k start from the same seeded centers, and each EM step handles all of
them at once, each family's rows constrained by its own rule.  The grid
runs every k in one such stack: rows ordered by k, then family, then
restart, with the weights padded to the largest k by weight-0 components,
and the means and covariances stacked over the real components only.
Every per-matrix operation runs at the row's own k, so each grid point has
the bits of its own single-k fit.
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


def _component_log_probs(diff, weights, covs):
    # ... x n x k array of log(weight_j) + log N(x_i | mean_j, cov_j), over leading
    # stack axes.  A component of weight 0 pads a stack row up to a larger k and
    # gets log-density -inf; diff (m x n x d, the points minus each mean) and
    # covs (m x d x d) hold only the m components of positive weight, in
    # row-major order
    n, d = diff.shape[1:]
    chol = np.linalg.cholesky(covs)
    solved = np.linalg.solve(chol, diff.swapaxes(-1, -2))
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    logpdf = np.full(weights.shape + (n,), -np.inf)
    quad = (solved**2).sum(axis=-2)
    logpdf[weights > 0] = -0.5 * (d * np.log(2.0 * np.pi) + logdet[:, None] + quad)
    with np.errstate(divide="ignore"):
        return (np.log(weights)[..., None] + logpdf).swapaxes(-1, -2)


def _constrain(covs, family, floor):
    # (family-constrained stack, whether each matrix has a variance at the floor)
    d = covs.shape[-1]
    if family == "spherical":
        var = np.trace(covs, axis1=-2, axis2=-1)[..., None] / d
    elif family == "diagonal":
        var = np.diagonal(covs, axis1=-2, axis2=-1)
    else:
        var, eigvecs = np.linalg.eigh(covs)
    floored = var.min(axis=-1) <= floor
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
    # (the data's covariance as a 1 x d x d stack constrained per family, whether
    #  it rests on the floor)
    n, d = points.shape
    pooled = np.cov(points.T).reshape(1, d, d) if n > 1 else np.zeros((1, d, d))
    cov, floored = _constrain(pooled, family, floor)
    return cov, bool(floored[0])


def _posterior(diff, weights, covs):
    # (log-likelihood of each point, ... x n x k responsibilities)
    logp = _component_log_probs(diff, weights, covs)
    peak = logp.max(axis=-1, keepdims=True)
    logsum = peak[..., 0] + np.log(np.exp(logp - peak).sum(axis=-1))
    return logsum, np.exp(logp - logsum[..., None])


def _run_restarts(points, families, seeds):
    # EM on every (k, family, restart) triple at once, one row each, k-major,
    # then family-major: seeds holds an R x k x d array per k group, and each
    # family of a group starts from those R centers and its own pooled
    # covariance.  The weights are padded to the largest k with weight-0
    # components; the means and covariances are stacked over the real ones
    # only.  So every per-matrix step (cholesky, solve, the scatter, each
    # family's constraint, the means product per group) runs on a row's own k
    # components, and a row's bits do not depend on what else is stacked.
    # A row leaves the stacks when it ends, so each runs its own iterations;
    # after a LAPACK failure each group reruns alone, and a group that fails
    # alone reruns pair by pair, so only that pair fails.  Returns per row its
    # failure or (path, converged, weights, means, covs).
    ks, d = [group.shape[1] for group in seeds], points.shape[1]
    floor = _floor_for(points)
    pooled = [_pooled_cov(points, family, floor) for family in families]
    per_group = [len(families) * len(group) for group in seeds]
    n_rows, row_k = sum(per_group), np.repeat(ks, per_group)
    row_family = np.concatenate([np.repeat(range(len(families)), len(g)) for g in seeds])
    degenerate = np.array([floored for _, floored in pooled])[row_family]
    real = np.arange(max(ks)) < row_k[:, None]  # the row's components that are not padding
    weights, component_family = real / row_k[:, None], np.repeat(row_family, row_k)
    means = np.concatenate([group.reshape(-1, d) for group in seeds for _ in families])
    covs = np.concatenate(
        [np.broadcast_to(cov, (group[..., 0].size, d, d)) for group in seeds for cov, _ in pooled]
    )
    diff = points - means[:, None, :]
    # group g owns rows bounds[g]:bounds[g + 1], and so the stack rows edges[g]:edges[g + 1];
    # the stack row i holds the components starts[i]:starts[i] + sizes[i]
    bounds = edges = np.cumsum([0, *per_group])
    rows, sizes, starts = np.arange(n_rows), row_k, np.cumsum(row_k) - row_k
    lls = np.empty((1, n_rows))  # each row's log-likelihood path down its column; doubles when full
    last, out = np.full(n_rows, -np.inf), [None] * n_rows
    try:
        for step in range(_MAX_ITER):
            logsum, resp = _posterior(diff, weights, covs)
            counts = resp.sum(axis=1)
            collapsed = np.any((counts < 1e-10) & real, axis=1)
            counts = np.maximum(counts, 1e-10)  # a collapsed row's update is dropped
            weights = np.where(real, counts / len(points), 0.0)
            resp = resp.swapaxes(1, 2)
            # one product per group at its own k: padded, it would not keep its bits
            means = np.concatenate([
                ((resp[lo:hi, :k] @ points) / counts[lo:hi, :k, None]).reshape(-1, d)
                for k, lo, hi in zip(ks, edges, edges[1:])
            ])
            diff = points - means[:, None, :]
            scatter = (resp[real][..., None] * diff).swapaxes(1, 2) @ diff
            covs = scatter / counts[real][:, None, None]
            floored = np.empty(len(covs), dtype=bool)
            for f, family in enumerate(families):
                block = component_family == f
                covs[block], floored[block] = _constrain(covs[block], family, floor)
            if step == len(lls):
                lls = np.concatenate([lls, np.empty_like(lls)])
            ll = lls[step, rows] = logsum.sum(axis=1)
            met = ll - last < _LL_TOL
            ends = collapsed | met | (step + 1 == _MAX_ITER)
            rests = np.logical_or.reduceat(floored, starts) & ~degenerate[rows]
            for row in np.flatnonzero(ends):
                r, k, at = rows[row], sizes[row], starts[row]
                if collapsed[row]:
                    out[r] = NumericalError("mixture component collapsed to zero weight")
                elif rests[row]:
                    out[r] = "a component covariance rests on the variance floor"
                else:
                    path, mine = lls[: step + 1, r].tolist(), slice(at, at + k)
                    out[r] = (path, bool(met[row]), weights[row, :k], means[mine], covs[mine])
            last = ll
            if ends.any():
                going, kept = ~ends, np.repeat(~ends, sizes)
                rows, real, last, weights = rows[going], real[going], last[going], weights[going]
                means, covs, diff = means[kept], covs[kept], diff[kept]
                component_family = component_family[kept]
                if not rows.size:
                    break
                sizes = row_k[rows]
                starts, edges = np.cumsum(sizes) - sizes, np.searchsorted(rows, bounds)
    except np.linalg.LinAlgError as exc:
        if len(seeds) > 1:
            return [run for group in seeds for run in _run_restarts(points, families, [group])]
        if n_rows == 1:
            return [exc]
        return [run for family in families for seed in seeds[0]
                for run in _run_restarts(points, (family,), [seed[None]])]
    return out


def _param_count(k, d, family):
    per_cov = {"spherical": 1, "diagonal": d, "full": d * (d + 1) // 2}[family]
    return k * d + k * per_cov + (k - 1)


def _best_model(family_runs, k, family, n, d):
    # the model of the best of one (k, family)'s restarts, or the NumericalError
    # that the last failure gave when none was kept
    kept = [run for run in family_runs if isinstance(run, tuple)]
    if not kept:
        return NumericalError(f"all EM restarts failed: {family_runs[-1]}")
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
        failed_restarts=len(family_runs) - len(kept),
        log_likelihood_path=tuple(path),
    )


def _fit_families(pts, ks, families, seed):
    # per k, per family, the model of its best restart or the NumericalError it
    # failed with, after checking the grid's inputs.  Every family at one k starts
    # from the same k-means++ seeds, drawn from a generator of its own, and every
    # fittable k runs in one EM stack, in the caller's order
    if not ks:
        raise DataError("empty k range")
    if not families:
        raise DataError("empty family list")
    for i, family in enumerate(families):
        if family not in FAMILIES:
            raise DataError(f"unknown family {family!r}")
        if family in families[:i]:
            raise DataError(f"family {family!r} listed twice")
    n, d = pts.shape
    seeds = {}
    for k in ks:
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        if k <= n and k not in seeds:
            rng = np.random.default_rng(seed)
            seeds[k] = np.array([_seed_centers(pts, k, rng) for _ in range(_RESTARTS)])
    flat = _run_restarts(pts, families, list(seeds.values())) if seeds else []
    size = len(families) * _RESTARTS
    runs = {k: flat[i * size : (i + 1) * size] for i, k in enumerate(seeds)}
    return [
        [
            _best_model(runs[k][i * _RESTARTS : (i + 1) * _RESTARTS], k, family, n, d)
            if k in runs else NumericalError(f"cannot fit {k} clusters to {n} observations")
            for i, family in enumerate(families)
        ]
        for k in ks
    ]


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
    ((model,),) = _fit_families(pts, [k], (family,), seed)
    if isinstance(model, NumericalError):
        raise model
    return model


def assign(model: GmmModel, points) -> ClusterAssignment:
    """Posterior responsibilities and MAP labels (1..k) for each point."""
    pts = linalg.as_matrix(points)
    diff = pts - model.means[:, None, :]
    resp = _posterior(diff, model.mixing_weights, model.covariances)[1]
    return ClusterAssignment(labels=resp.argmax(axis=1) + 1, responsibilities=resp)


def select_by_bic(points, k_range, families=FAMILIES, seed: int = 0) -> GmmModel:
    """Best model over a (k, family) grid by minimum BIC, with the grid on it.

    A grid point is skipped, like a selection returning NA for an
    unfittable model, when every EM restart fails: a component collapses,
    or its covariance rests on the variance floor (see :func:`fit_gmm_em`).
    So is a fit with a component of fewer than d + 1 effective members
    (mixing weight x n), too few to span its covariance: a spurious maximum
    of the unbounded mixture likelihood (Hathaway, Ann. Statist. 13(2), 1985)
    that some seeds find.  Ties prefer smaller k, then the simpler family.
    An unknown family, or one listed twice, is a DataError before any fit;
    otherwise raises only if every grid point fails.  ``grid`` lists each
    point's diagnostics or error, family by family.
    """
    ks, families = list(k_range), tuple(families)
    pts = linalg.as_matrix(points)
    n, d = pts.shape
    fits = _fit_families(pts, ks, families, seed)
    candidates = []
    grid = []
    for i, family in enumerate(families):
        for k, fits_k in zip(ks, fits):
            model = fits_k[i]
            if isinstance(model, GmmModel) and (least := model.mixing_weights.min() * n) < d + 1:
                model = NumericalError(
                    f"a component holds {least:.4g} effective members (mixing weight x n), "
                    f"fewer than d + 1 = {d + 1}"
                )
            if isinstance(model, NumericalError):
                grid.append({"k": k, "family": family, "error": str(model)})
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
