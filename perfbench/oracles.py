"""Correctness oracles for the benchmark, written against numpy alone.

Nothing here imports agecomp: each check recomputes the expected result
from the raw inputs (LAPACK SVD, least squares, plain matrix products) or
re-reads an output file with the standard csv/json modules, so a defect in
the program cannot hide behind a shared helper.  Every check returns a
bool (or a count of bad items) and never raises on a malformed result.
"""

import csv

import numpy as np

SV_RTOL = 1e-10  # singular values, relative to s1
TRUNC_RTOL = 1e-9  # rank-c truncations, relative to ||X||_F
BETA_ATOL = 1e-9  # per-schedule weights against lstsq
PRED_ATOL = 1e-12  # predictions against X @ coef
# The program solves the normal equations; on the Agincourt designs (condition
# number about 1.5e3) its coefficients agree with lstsq to about 3e-13.
OLS_RTOL = 1e-8


def read_csv(path):
    """(header, row labels, cell strings) of a CSV with a label column first."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], [row[0] for row in rows[1:]], [row[1:] for row in rows[1:]]


def csv_matrix(path):
    """(header, row labels, float matrix) of a numeric CSV."""
    header, labels, cells = read_csv(path)
    return header, labels, np.array([[float(v) for v in row] for row in cells])


def shortest_repr(strings) -> bool:
    """Every numeric string is the shortest decimal that round-trips its float."""
    try:
        return all(repr(float(s)) == s for s in strings)
    except (TypeError, ValueError):
        return False


def _same_shape(a, b) -> bool:
    return np.shape(a) == np.shape(b)


def singular_values(s, x) -> bool:
    """Leading singular values s of x within SV_RTOL * s1 of LAPACK's."""
    s = np.asarray(s, dtype=float)
    ref = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.ndim != 1 or not 1 <= s.size <= ref.size:
        return False
    return bool(np.max(np.abs(s - ref[: s.size])) <= SV_RTOL * ref[0])


def explained_share(shares, x) -> bool:
    """Shares of squared magnitude against LAPACK singular values."""
    ref = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False) ** 2
    ref = ref / ref.sum()
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 1 or not 1 <= shares.size <= ref.size:
        return False
    return bool(np.max(np.abs(shares - ref[: shares.size])) <= SV_RTOL)


def truncation(approx, x, c: int) -> bool:
    """approx is the best rank-c approximation of x within TRUNC_RTOL * ||x||_F."""
    x = np.asarray(x, dtype=float)
    if not _same_shape(approx, x):
        return False
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    ref = (u[:, :c] * s[:c]) @ vt[:c]
    return bool(np.linalg.norm(approx - ref) <= TRUNC_RTOL * np.linalg.norm(x))


def lstsq_betas(components, y):
    """H x c least-squares weights of every column of y on the components."""
    return np.linalg.lstsq(components, y, rcond=None)[0].T


def bad_rows(actual, expected, atol: float) -> int:
    """Rows of actual farther than atol * max(1, |expected|) from expected.

    A shape mismatch marks every expected row bad.
    """
    expected = np.asarray(expected, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if not _same_shape(actual, expected):
        return expected.shape[0]
    scale = np.maximum(1.0, np.abs(expected).max(axis=1))
    err = np.abs(actual - expected).max(axis=1)
    return int(np.count_nonzero(~(err <= atol * scale)))


def predictions(components, coefficients, design):
    """G x N schedules: components @ (design @ coefficients.T).T."""
    return components @ (design @ np.asarray(coefficients).T).T


def ols(coefficients, design, y) -> bool:
    """OLS coefficients of y on design within OLS_RTOL of lstsq."""
    if np.shape(y) != np.shape(design)[:1]:
        return False
    ref = np.linalg.lstsq(design, y, rcond=None)[0]
    coefficients = np.asarray(coefficients, dtype=float)
    if not _same_shape(coefficients, ref):
        return False
    return bool(np.max(np.abs(coefficients - ref)) <= OLS_RTOL * max(1.0, np.abs(ref).max()))


def mean_abs_error(mae, predicted, observed) -> bool:
    if not _same_shape(predicted, observed):
        return False
    ref = float(np.abs(np.asarray(predicted) - np.asarray(observed)).mean())
    return abs(mae - ref) <= PRED_ATOL * max(1.0, ref)
