"""Demographic summary measures: abridged life tables, TFR, untreated-HIV share.

These feed the covariate side of the weight regressions.  The life table
uses the standard abridged construction from age-specific death rates with
a conventional average-years-lived rule: 0.3 years for infants, 1.5 for
ages 1-4, half the interval otherwise, and an open-ended last group.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .schedule import NATURAL, AgeSchedule


@dataclass(frozen=True)
class LifeTable:
    """Abridged period life table with radix 1.0."""

    age_start: np.ndarray  # start of each interval; last interval open
    age_width: np.ndarray  # width in years; last entry is inf
    mx: np.ndarray  # death rate per person-year
    ax: np.ndarray  # average years lived in interval by those dying in it
    qx: np.ndarray  # probability of dying within the interval
    lx: np.ndarray  # survivors at the start of the interval
    Lx: np.ndarray  # person-years lived in the interval
    Tx: np.ndarray  # person-years lived at and above the interval
    ex: np.ndarray  # remaining life expectancy

    @property
    def e0(self) -> float:
        return float(self.ex[0])


def life_table_from_mx(mx: AgeSchedule, age_starts) -> LifeTable:
    """Build an abridged life table from age-specific mortality rates.

    ``age_starts`` holds the ascending start age of every group; the last
    group is open-ended.  Closed intervals convert rates to probabilities
    with qx = n*mx / (1 + (n - ax)*mx); the open interval has qx = 1 and
    person-years lx/mx.
    """
    if mx.scale != NATURAL:
        raise DataError("life table needs natural-scale rates")
    starts = np.asarray(age_starts, dtype=float)
    rates = mx.values
    if starts.ndim != 1 or starts.size != rates.size:
        raise DataError("age grid does not match the rate schedule")
    if starts.size < 1 or not (np.all(np.isfinite(starts)) and np.all(np.diff(starts) > 0)):
        raise DataError("age grid must be finite and strictly ascending")
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise DataError("mortality rates must be nonnegative and finite")
    if rates[-1] <= 0:
        raise DataError("open-ended age group needs a positive rate")

    n_groups = starts.size
    widths = np.empty(n_groups)
    widths[:-1] = np.diff(starts)
    widths[-1] = np.inf
    ax = np.where(
        (starts == 0.0) & (widths <= 1.0), 0.3,
        np.where((starts == 1.0) & (widths == 4.0), 1.5, widths / 2.0),
    )
    ax[-1] = np.nan  # unused for the open interval

    qx = np.empty(n_groups)
    with np.errstate(invalid="ignore"):
        qx[:-1] = (widths[:-1] * rates[:-1]) / (1.0 + (widths[:-1] - ax[:-1]) * rates[:-1])
    qx[:-1] = np.clip(qx[:-1], 0.0, 1.0)
    qx[-1] = 1.0

    lx = np.cumprod(np.concatenate(([1.0], 1.0 - qx[:-1])))
    deaths = lx * qx

    Lx = np.empty(n_groups)
    Lx[:-1] = widths[:-1] * lx[1:] + ax[:-1] * deaths[:-1]
    Lx[-1] = lx[-1] / rates[-1]
    Tx = np.cumsum(Lx[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ex = np.where(lx > 0, Tx / lx, 0.0)
    return LifeTable(
        age_start=starts, age_width=widths, mx=rates.copy(), ax=ax,
        qx=qx, lx=lx, Lx=Lx, Tx=Tx, ex=ex,
    )


def interval_death_prob(lt: LifeTable, x: float, n: float) -> float:
    """Probability of dying between exact ages x and x+n, given alive at x."""
    at = [np.flatnonzero(np.isclose(lt.age_start, b, rtol=0, atol=1e-9)) for b in (x, x + n)]
    for bound, hits in zip((x, x + n), at):
        if hits.size == 0:
            raise DataError(f"age {bound} is not on the life-table grid")
    lo, hi = (lt.lx[hits[0]] for hits in at)
    if lo == 0.0:
        raise DataError(f"no survivors at age {x}")
    return float(1.0 - hi / lo)


def tfr(asfr: AgeSchedule, width: float) -> float:
    """Total fertility rate: interval width times the summed rates."""
    if asfr.scale != NATURAL:
        raise DataError("TFR needs natural-scale fertility rates")
    if np.any(asfr.values < 0):
        raise DataError("fertility rates must be nonnegative")
    if width <= 0:
        raise DataError("age-group width must be positive")
    return float(width * asfr.values.sum())


def derive_delta(hiv_prev, art_cov):
    """Untreated HIV-positive fraction: prevalence minus ART coverage.

    Works elementwise on arrays and returns a float for scalar inputs.  An
    entry outside [0, 1], or NaN, is a DataError.  Negative differences
    (coverage exceeding prevalence) clamp to zero with one warning that
    counts them.
    """
    h, a = np.asarray(hiv_prev, dtype=float), np.asarray(art_cov, dtype=float)
    for name, value in (("hiv_prev", h), ("art_cov", a)):
        bad = ~((value >= 0.0) & (value <= 1.0))
        if bad.any():
            raise DataError(f"{name}={value[bad].flat[0]} outside [0, 1]")
    delta = h - a
    negative = delta < 0.0
    if negative.any():
        warnings.warn(
            f"ART coverage exceeds HIV prevalence in {np.count_nonzero(negative)} of "
            f"{delta.size} entries; delta clamped to 0",
            stacklevel=2,
        )
        delta = np.where(negative, 0.0, delta)
    return float(delta) if delta.ndim == 0 else delta
