"""Dense linear algebra core: thin SVD, rank truncation, explained shares.

The decomposition is LAPACK's thin SVD as exposed by numpy; this module adds
input validation, one rank cutoff shared by every caller, and deterministic
signs, set for all components at once by one vectorised flip.  All
functions are pure; results are plain immutable values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

# Singular values below s1 * (max(K, L) * RANK_RTOL) are treated as zero.
RANK_RTOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float array, rejecting empty or non-finite input."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DataError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix contains NaN or infinite entries")
    return a


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD: u @ diag(s) @ v.T reproduces the source matrix.

    u is K x rank with orthonormal columns (left singular vectors), s holds
    the positive singular values in non-increasing order, v is L x rank with
    orthonormal columns (right singular vectors).  Values below the numerical
    rank cutoff are dropped, so ``rank`` may be smaller than min(K, L).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def svd(x) -> SvdFactorization:
    """Thin singular value decomposition of a dense real matrix.

    Parameters
    ----------
    x : array_like, shape (K, L)
        Nonempty matrix of finite values.

    Returns
    -------
    SvdFactorization
        Factors with signs canonicalized (see :func:`canonicalize_signs`),
        so the result is deterministic for a given input.
    """
    a = as_matrix(x)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from None
    if not np.isfinite(s[0]):
        raise NumericalError("SVD overflowed: the largest singular value is not finite")
    cutoff = s[0] * (max(a.shape) * RANK_RTOL)  # this order cannot overflow a finite s[0]
    keep = s > cutoff
    u, s, v = u[:, keep], s[keep], vt[keep].T
    return canonicalize_signs(SvdFactorization(u=u, s=s, v=v))


def canonicalize_signs(f: SvdFactorization) -> SvdFactorization:
    """Resolve per-component sign ambiguity of an SVD.

    Each (u_i, v_i) pair is jointly negated, if necessary, so that the
    entries of v_i sum to a positive number; when the sum is zero the first
    nonzero entry of v_i is made positive instead.  All pairs are flipped in
    one product with a +-1 row, which is exact; u and v come back C-ordered.
    Reconstruction is unchanged.  Idempotent.
    """
    total = f.v.sum(axis=0)
    first = f.v[(f.v != 0).argmax(axis=0), np.arange(f.rank)]
    sign = np.where(np.where(np.abs(total) <= 1e-12, first, total) < 0, -1.0, 1.0)
    u, v = (np.multiply(x, sign, order="C") for x in (f.u, f.v))
    return SvdFactorization(u=u, s=f.s.copy(), v=v)


def reconstruct_rank(f: SvdFactorization, k: int) -> np.ndarray:
    """Sum of the first k rank-1 terms, the best rank-k approximation."""
    if not 1 <= k <= f.rank:
        raise NumericalError(f"k={k} out of range 1..{f.rank}")
    return (f.u[:, :k] * f.s[:k]) @ f.v[:, :k].T


def explained_share(f: SvdFactorization) -> np.ndarray:
    """Fraction of total squared magnitude captured by each component.

    Squaring s / s[0], not s, keeps a finite spectrum from overflowing.
    """
    if f.rank == 0:
        raise NumericalError("explained shares undefined for a rank-0 factorization")
    sq = (f.s / f.s[0]) ** 2
    return sq / sq.sum()


def center_columns(x, normalize: bool = False) -> np.ndarray:
    """Subtract each column mean; optionally rescale columns to unit norm.

    With ``normalize`` the centered columns are scaled by 1/sqrt(N-1) and
    then divided by their norm, the preprocessing under which the Gram
    matrix of the result is the correlation matrix of the input.
    """
    a = as_matrix(x)
    if a.shape[0] < 2:
        raise DataError("centering needs at least two rows")
    centered = a - a.mean(axis=0)
    if not normalize:
        return centered
    scaled = centered / np.sqrt(a.shape[0] - 1)
    norms = np.sqrt(np.einsum("ij,ij->j", scaled, scaled))
    if np.any(norms == 0.0):
        bad = int(np.nonzero(norms == 0.0)[0][0])
        raise DataError(f"column {bad} has zero variance, cannot normalize")
    return scaled / norms


def frobenius_residual(a, b) -> float:
    """Square root of the summed squared differences between two matrices."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DataError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.sqrt(((am - bm) ** 2).sum()))
