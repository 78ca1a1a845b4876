"""Dense linear algebra core: thin SVD, rank truncation, explained shares,
and the one rescale of input off the float range, :func:`prescale`.

The decomposition is LAPACK's thin SVD as exposed by numpy, of the input as
:func:`prescale` returns it; this module adds input validation, one rank
cutoff shared by every caller, and deterministic signs, set for all
components at once by one vectorised flip.  All functions are pure;
results are plain immutable values.  :func:`svd` keeps its last result: a
repeat call on the same bits, found by shape and confirmed by comparing
bytes, with no hash, returns that same read-only factorization, and one
input and its factors stay held in memory.  ``regress`` factors its designs
through the same body unkept (:func:`_factor`), so in the README chain
``smooth`` reads ``decompose``'s kept factorization and LAPACK runs 4 times.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

# Singular values below s1 * (max(K, L) * RANK_RTOL) are treated as zero.
RANK_RTOL = 1e-12

_PRESCALE_EXPONENT = 256  # prescale acts on a binary exponent of max|x| outside +-this
_OFF_RANGE_SUMSQ = 2.0 ** (-2 * _PRESCALE_EXPONENT)  # a smaller sum of squares may have lost bits


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
        so the result is deterministic for a given input, and x times a
        power of two factors as x does, with s times that power: LAPACK
        factors :func:`prescale` (x), and the rank cutoff is taken on its s.
        The last result is kept: a call on a matrix with the same shape and
        bits as the one before returns that same factorization, whose u, s
        and v are read-only.  The kept input is found by its shape and
        confirmed by comparing its bytes, never hashed, and a hit is not
        validated again.  Memory for one input and its factors stays held.
    """
    a = np.asarray(x, dtype=float)
    return _svd(a.shape, a.tobytes())


def _keep_last(body, key=lambda *args: args):
    """``functools.lru_cache(maxsize=1)``, but with the kept call found by ``==``
    on ``key`` of its arguments (by default the arguments themselves: a memcmp
    for bytes), not by hashing them.  A call that raises keeps nothing and
    leaves the kept call in place."""
    kept = []

    def call(*args):
        k = key(*args)
        if not (kept and kept[0] == k):
            kept[:] = k, body(*args)
        return kept[1]

    call.cache_clear = kept.clear
    return call


@_keep_last
def _svd(shape, data) -> SvdFactorization:
    """The kept call of :func:`svd`, on the input's shape and C-order bytes."""
    return _factor(np.frombuffer(data).reshape(shape))


def _factor(x) -> SvdFactorization:
    """The body of :func:`svd`, keeping nothing: for a matrix that no later call
    repeats, so that it leaves the kept factorization in place."""
    a, p = prescale(as_matrix(x))
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from None
    # LAPACK's s is non-increasing, so the rank cutoff, scale-free and so taken
    # on the prescaled s, keeps a prefix of the components
    r = np.count_nonzero(s > s[0] * (max(a.shape) * RANK_RTOL))
    u, s, v = u[:, :r], s[:r], vt[:r].T
    if p:
        with np.errstate(over="ignore"):
            s = np.ldexp(s, p)
        if not np.isfinite(s[0]):
            raise NumericalError("SVD overflowed: the largest singular value is not finite")
    f = canonicalize_signs(SvdFactorization(u=u, s=s, v=v))
    for factor in (f.u, f.s, f.v):
        factor.flags.writeable = False
    return f


def canonicalize_signs(f: SvdFactorization) -> SvdFactorization:
    """Resolve per-component sign ambiguity of an SVD.

    Each (u_i, v_i) pair is jointly negated, if necessary, so that the
    entries of v_i sum to a positive number; where that sum lies within
    1e-12 of zero (|sum| <= 1e-12) the first nonzero entry of v_i is made
    positive instead, and that entry is looked up only when some sum does.
    All pairs are flipped in one product with a +-1 row, which is exact; u
    and v come back C-ordered, as the one copy of each.  Reconstruction is
    unchanged.  Idempotent.
    """
    total = f.v.sum(axis=0)
    tie = np.abs(total) <= 1e-12
    if tie.any():
        first = f.v[(f.v != 0).argmax(axis=0), np.arange(f.rank)]
        total = np.where(tie, first, total)
    sign = np.where(total < 0, -1.0, 1.0)
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


def prescale(x, axis=None):
    """(x * 2**-p, p), with p the binary exponent of max|x| over ``axis``
    where it lies outside +-256, else 0 (as for an inf or NaN max|x|).

    A power of two rescales exactly, so a result computed on the prescaled x
    has the bits of the result on x times 2**-p, while no square leaves the
    normal floats.  In range, x comes back untouched.  ``axis`` is None (all
    of x, an int p) or 0 (each column of a matrix, a p per column).
    """
    e = np.frexp(np.abs(x).max(axis=axis))[1]
    p = np.where(np.abs(e) > _PRESCALE_EXPONENT, e, 0)
    p = int(p) if axis is None else p
    return (np.ldexp(x, -p) if np.any(p) else x), p


def root_sum_squares(x, sumsq, axis=None):
    """The 2-norm of x over ``axis`` from ``sumsq``, the caller's own sum of its
    squares: sqrt(sumsq), except where the sum is inf or below 2**-512, and so
    may have lost bits, which is recomputed from :func:`prescale` (x, axis).
    A norm past the float maximum is inf, with no warning."""
    off = (sumsq < _OFF_RANGE_SUMSQ) | (sumsq == np.inf)
    if not (off.any() if off.ndim else off):  # .any() on a numpy scalar costs ~2 us a call
        return np.sqrt(sumsq)
    y, p = prescale(x, axis)
    p = np.where(off, p, 0)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.where(p != 0, (y * y).sum(axis=axis), sumsq)), p)
