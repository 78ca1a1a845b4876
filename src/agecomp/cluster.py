"""Model-based clustering of per-schedule weight vectors.

Gaussian mixtures are fitted by EM with a choice of covariance family
(spherical, diagonal or full, each varying per cluster), and the cluster
count and family are picked by minimum BIC over a grid, among the fits whose
every component holds at least d + 1 effective members and no covariance
reached the variance floor at any EM step.  Fits are deterministic, with no
random generator: as in mclust (Fraley, SIAM J. Sci. Comput. 20(1), 1998;
Scrucca, Fop, Murphy & Raftery, R Journal 8(1), 2016), EM runs once per
model, started at each k from the cluster means of one Ward agglomeration of
the points cut at that k.  Every family at one k starts from those means, and
each EM step handles all of them at once, each family's rows constrained by
its own rule.  Each covariance is held as its floored eigenvalues and
eigenvectors, from which the E-step whitens the points with no further
factorization.  The grid runs every k in one such stack: rows ordered by k,
then family, and every row's k components stacked flat, one after another.
Every per-matrix operation runs on one component and every sum over
components on one row's, so each grid point has the bits of its own
single-k fit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DataError, NumericalError

FAMILIES = ("spherical", "diagonal", "full")

_MAX_ITER = 500
_LL_TOL = 1e-8
_VARIANCE_FLOOR_SCALE = 1e-8
_GRID_FIELDS = ("k", "family", "bic", "log_likelihood", "n_iter", "converged")


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
    # EM diagnostics; a model built by hand ran no EM
    n_iter: int = 0  # EM iterations run
    converged: bool = False  # the log-likelihood gain fell below _LL_TOL
    log_likelihood_path: tuple = ()  # log-likelihood at each EM iteration
    grid: tuple = ()  # select_by_bic's (k, family) points: fit diagnostics or error


@dataclass(frozen=True)
class ClusterAssignment:
    """Hard labels (1..k) with the posterior responsibility matrix."""

    labels: np.ndarray  # length n, values in 1..k
    responsibilities: np.ndarray  # n x k, rows sum to 1


def _component_log_probs(diff, weights, lam, vecs):
    # m x n array of log(weight_j) + log N(x_i | mean_j, cov_j) over a stack of
    # m components: diff (m x d x n) holds the points minus each mean, lam
    # (m x d) and vecs (m x d x d) each covariance's eigenvalues and
    # eigenvectors.  The points are whitened by dividing them by sqrt(lam): at
    # a subnormal lam, 1/lam would overflow and the squared distances underflow
    if (lam <= 0).any():  # a NaN passes: its row ends on a log-likelihood that is not finite
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    d = diff.shape[1]
    white = (vecs.swapaxes(-1, -2) @ diff) / np.sqrt(lam)[..., None]
    quad = (white**2).sum(axis=-2)
    logdet = np.log(lam).sum(axis=-1)
    return np.log(weights)[:, None] - 0.5 * (d * np.log(2.0 * np.pi) + logdet[:, None] + quad)


def _constrain(covs, family, floor):
    # (the family-constrained stack's eigenvalues, floored, and its eigenvectors,
    #  None where they are the coordinate axes; whether each matrix has a
    #  variance at the floor)
    d = covs.shape[-1]
    vecs = None
    if family == "spherical":
        var = np.repeat(np.trace(covs, axis1=-2, axis2=-1)[..., None] / d, d, axis=-1)
    elif family == "diagonal":
        var = np.diagonal(covs, axis1=-2, axis2=-1)
    else:
        var, vecs = np.linalg.eigh(covs)
    return np.maximum(var, floor), vecs, var.min(axis=-1) <= floor


def _ward_centers(points, ks):
    # per k of ks (each 1..n), the k x d cluster means of one Ward agglomeration
    # of the points cut at k clusters.  Lance-Williams updates on squared
    # distances, with each row's nearest later row kept so a merge costs O(n).
    # A cluster keeps the index of its first row, and of equal merge costs the
    # lowest such (i, j), i < j, merges first; the means come in that order.
    # The points are scaled by a power of two that brings max|x| into
    # [0.5, 1), so no square overflows; that is exact, and so neither the
    # merge order nor the means depend on the data's scale
    scale = math.frexp(np.abs(points).max())[1]
    x = np.ldexp(points, -scale)
    n = len(x)
    dist = ((x[:, None, :] - x) ** 2).sum(axis=-1)
    np.fill_diagonal(dist, np.inf)
    size, labels = np.ones(n), np.arange(n)
    nearest, nearest_dist = np.zeros(n, dtype=int), np.full(n, np.inf)

    def renew(rows):
        for r in rows:
            if r + 1 < n:
                nearest[r] = r + 1 + dist[r, r + 1 :].argmin()
                nearest_dist[r] = dist[r, nearest[r]]

    renew(range(n))
    centers, last = {}, min(ks)
    for count in range(n, last - 1, -1):
        if count in ks:
            centers[count] = np.ldexp([x[labels == r].mean(axis=0) for r in np.unique(labels)], scale)
        if count == last:
            break
        i = nearest_dist.argmin()
        j = nearest[i]
        grown = size[i] + size[j] + size
        merged = ((size[i] + size) * dist[i] + (size[j] + size) * dist[j] - size * dist[i, j]) / grown
        dist[i], dist[:, i], dist[j], dist[:, j] = merged, merged, np.inf, np.inf
        dist[i, i] = np.inf
        size[i] += size[j]
        labels[labels == j] = i
        nearest_dist[j] = np.inf
        stale = (nearest[:j] == i) | (nearest[:j] == j)
        # Ward is reducible: an earlier row's cost to the merged cluster exceeds
        # its nearest's, unless rounding brings it level or below
        stale[:i] |= merged[:i] <= nearest_dist[:i]
        renew([i, *np.flatnonzero(stale)])
    return [centers[k] for k in ks]


def _floor_for(points):
    var = points.var(axis=0).mean()
    return _VARIANCE_FLOOR_SCALE * var if var > 0 else 1e-12


def _pooled_cov(points, family, floor):
    # (the data's covariance constrained per family as 1 x d eigenvalues and
    #  1 x d x d eigenvectors, whether it rests on the floor)
    n, d = points.shape
    pooled = np.cov(points.T).reshape(1, d, d) if n > 1 else np.zeros((1, d, d))
    lam, vecs, floored = _constrain(pooled, family, floor)
    return lam, np.eye(d)[None] if vecs is None else vecs, bool(floored[0])


def _posterior(diff, weights, lam, vecs, sizes):
    # (rows x n log-likelihood of each point, m x n responsibilities) of a stack
    # of rows, row i holding the next sizes[i] of the m components
    logp = _component_log_probs(diff, weights, lam, vecs)
    firsts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(logp, firsts)
    logsum = peak + np.log(np.add.reduceat(np.exp(logp - np.repeat(peak, sizes, axis=0)), firsts))
    return logsum, np.exp(logp - np.repeat(logsum, sizes, axis=0))


def _run_em(points, families, starts):
    # EM on every (k, family) pair at once, one row each, k-major, then
    # family-major: starts holds a k x d array of means per k group, and each
    # family of a group starts from those means and its own pooled covariance.
    # The rows' components are stacked flat, row by row: the weights, the means
    # and each covariance as its floored eigenvalues and its eigenvectors (the
    # axes for spherical and diagonal components, set once).  Every per-matrix
    # step (the whitening, the means product, the scatter, each family's
    # constraint) runs on one component, and every sum over components on one
    # row's, so a row's bits do not depend on what else is stacked.  A row
    # leaves the stack when it ends, at the latest the step a component
    # reaches the variance floor, so each runs its own iterations; after a
    # LAPACK failure each group reruns alone, and a group that fails alone
    # reruns family by family, so only that pair fails.  Returns per row its
    # NumericalError or (path, converged, weights, means, covs).
    ks, d, n_families = [len(start) for start in starts], points.shape[1], len(families)
    floor = _floor_for(points)
    pooled = [_pooled_cov(points, family, floor) for family in families]
    n_rows, row_k = n_families * len(ks), np.repeat(ks, n_families)
    row_family = np.tile(range(n_families), len(ks))
    degenerate = np.array([floored for *_, floored in pooled])[row_family]
    weights, component_family = np.repeat(1.0 / row_k, row_k), np.repeat(row_family, row_k)
    means = np.concatenate([start for start in starts for _ in families])
    lam = np.concatenate([np.broadcast_to(pool[0], (k, d)) for k in ks for pool in pooled])
    vecs = np.concatenate([np.broadcast_to(pool[1], (k, d, d)) for k in ks for pool in pooled])
    diff = points.T - means[:, :, None]
    rows, sizes, paths = np.arange(n_rows), row_k, [[] for _ in range(n_rows)]
    last, out = np.full(n_rows, -np.inf), [None] * n_rows
    try:
        for step in range(_MAX_ITER):
            logsum, resp = _posterior(diff, weights, lam, vecs, sizes)
            firsts = np.cumsum(sizes) - sizes  # live row i: components firsts[i]:firsts[i] + sizes[i]
            counts = resp.sum(axis=1)
            collapsed = np.logical_or.reduceat(counts < 1e-10, firsts)
            counts = np.maximum(counts, 1e-10)  # a collapsed row's update is dropped
            weights = counts / len(points)
            # one product per component: over the whole stack, a row's bits would depend on it
            means = (resp[:, None, :] @ points)[:, 0] / counts[:, None]
            diff = points.T - means[:, :, None]
            covs = ((resp[:, None, :] * diff) @ diff.swapaxes(1, 2)) / counts[:, None, None]
            floored = np.empty(len(covs), dtype=bool)
            for f, family in enumerate(families):
                block = component_family == f
                if block.any():
                    lam[block], axes, floored[block] = _constrain(covs[block], family, floor)
                    if axes is not None:  # the other families keep the axes
                        vecs[block] = axes
            ll = logsum.sum(axis=1)
            for r, value in zip(rows, ll.tolist()):
                paths[r].append(value)
            met = ll - last < _LL_TOL
            lost = ~np.isfinite(ll)  # its weights may be NaN, and a NaN never meets the tolerance
            rests = np.logical_or.reduceat(floored, firsts) & ~degenerate[rows]
            ends = lost | collapsed | rests | met | (step + 1 == _MAX_ITER)
            for row in np.flatnonzero(ends):
                r, mine = rows[row], slice(firsts[row], firsts[row] + sizes[row])
                if lost[row]:
                    out[r] = NumericalError("EM log-likelihood is not finite")
                elif collapsed[row]:
                    out[r] = NumericalError("mixture component collapsed to zero weight")
                elif rests[row]:
                    out[r] = NumericalError("a component covariance rests on the variance floor")
                else:
                    covs = (vecs[mine] * lam[mine, None, :]) @ vecs[mine].swapaxes(1, 2)
                    out[r] = (paths[r], bool(met[row]), weights[mine], means[mine], covs)
            last = ll
            if ends.any():
                going, kept = ~ends, np.repeat(~ends, sizes)
                rows, sizes, last = rows[going], sizes[going], last[going]
                weights, means, diff = weights[kept], means[kept], diff[kept]
                lam, vecs, component_family = lam[kept], vecs[kept], component_family[kept]
                if not rows.size:
                    break
    except np.linalg.LinAlgError as exc:
        if len(starts) > 1:
            return [run for start in starts for run in _run_em(points, families, [start])]
        if n_rows == 1:
            return [NumericalError(f"EM failed: {exc}")]
        return [run for family in families for run in _run_em(points, (family,), starts)]
    return out


def _param_count(k, d, family):
    per_cov = {"spherical": 1, "diagonal": d, "full": d * (d + 1) // 2}[family]
    return k * d + k * per_cov + (k - 1)


def _model(run, k, family, n, d):
    # the GmmModel of one (k, family) EM run, or the NumericalError it failed with
    if isinstance(run, NumericalError):
        return run
    path, converged, weights, means, covs = run
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
        log_likelihood_path=tuple(path),
    )


def _fit_families(pts, ks, families):
    # per k, per family, the fitted model or the NumericalError it failed with,
    # after checking the grid's inputs.  Every family at one k starts from the
    # same Ward means, and every fittable k runs in one EM stack, in the
    # caller's order
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
    for k in ks:
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
    fitted = [k for k in dict.fromkeys(ks) if k <= n]
    flat = _run_em(pts, families, _ward_centers(pts, fitted)) if fitted else []
    size = len(families)
    runs = {k: flat[i * size : (i + 1) * size] for i, k in enumerate(fitted)}
    return [
        [
            _model(runs[k][i], k, family, n, d)
            if k in runs else NumericalError(f"cannot fit {k} clusters to {n} observations")
            for i, family in enumerate(families)
        ]
        for k in ks
    ]


def fit_gmm_em(points, k: int, family: str = "full") -> GmmModel:
    """Fit a k-component Gaussian mixture by EM.

    EM runs once, started from the k cluster means of a Ward agglomeration
    of the points, with equal mixing weights and the data's covariance, so
    the fit is deterministic.  Covariance eigenvalues are floored at a small
    multiple of the data variance so no component becomes exactly singular.
    Raises NumericalError when the fit fails: a component collapses to zero
    weight, the log-likelihood stops being finite, or a component
    covariance reaches the floor at any EM step (a component shrunk onto too
    few points to span the space, whose likelihood is set by the floor
    constant rather than by the data), unless the pooled covariance of the
    data rests on the floor too (identical points).  The fit ends at that
    step.  The model reports its iteration count and whether it met the
    log-likelihood tolerance.
    """
    pts = linalg.as_matrix(points)
    ((model,),) = _fit_families(pts, [k], (family,))
    if isinstance(model, NumericalError):
        raise model
    return model


def assign(model: GmmModel, points) -> ClusterAssignment:
    """Posterior responsibilities and MAP labels (1..k) for each point."""
    pts = linalg.as_matrix(points)
    diff = pts.T - model.means[:, :, None]
    resp = _posterior(diff, model.mixing_weights, *np.linalg.eigh(model.covariances), [model.k])[1].T
    return ClusterAssignment(labels=resp.argmax(axis=1) + 1, responsibilities=resp)


def select_by_bic(points, k_range, families=FAMILIES) -> GmmModel:
    """Best model over a (k, family) grid by minimum BIC, with the grid on it.

    Each grid point is one deterministic EM run (see :func:`fit_gmm_em`);
    every family at one k starts from the same Ward cluster means, cut from
    one agglomeration of the points.  A grid point is skipped, like a
    selection returning NA for an unfittable model, when its fit fails: a
    component collapses, the log-likelihood is not finite, or a covariance
    reaches the variance floor at any EM step.  So is a fit with a component
    of fewer than d + 1 effective members (mixing weight x n), too few to
    span its covariance: a spurious maximum of the unbounded mixture
    likelihood (Hathaway, Ann. Statist. 13(2), 1985).  Ties prefer smaller k,
    then the simpler family.
    An unknown family, or one listed twice, is a DataError before any fit;
    otherwise raises only if every grid point fails.  ``grid`` lists each
    point's diagnostics or error, family by family.
    """
    ks, families = list(k_range), tuple(families)
    pts = linalg.as_matrix(points)
    n, d = pts.shape
    fits = _fit_families(pts, ks, families)
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

