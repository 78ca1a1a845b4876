"""Demographic measures: the abridged life table.

The life table is what ``lifetable`` writes, built from age-specific death
rates with a conventional average-years-lived rule: 0.3 years for ages 0-1,
1.5 for ages 1-4, half the interval otherwise, and an open-ended last group.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .schedule import NATURAL, AgeSchedule


@dataclass(frozen=True)
class LifeTable:
    """Abridged period life table with radix 1.0."""

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
    with qx = n*mx / (1 + (n - ax)*mx); the open interval has qx = 1,
    ax = 1/mx and person-years lx/mx.  A column that overflows (a rate near
    the float maximum, or 1/mx of a subnormal open-interval rate) is a
    NumericalError naming the first such column computed and its first age.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ax = np.where(
            (starts == 0.0) & (widths == 1.0), 0.3,
            np.where((starts == 1.0) & (widths == 4.0), 1.5, widths / 2.0),
        )
        ax[-1] = 1.0 / rates[-1]  # the open interval's Lx / dx

        qx = np.empty(n_groups)
        qx[:-1] = (widths[:-1] * rates[:-1]) / (1.0 + (widths[:-1] - ax[:-1]) * rates[:-1])
        qx[:-1] = np.clip(qx[:-1], 0.0, 1.0)
        qx[-1] = 1.0

        lx = np.cumprod(np.concatenate(([1.0], 1.0 - qx[:-1])))
        deaths = lx * qx

        Lx = np.empty(n_groups)
        Lx[:-1] = widths[:-1] * lx[1:] + ax[:-1] * deaths[:-1]
        Lx[-1] = lx[-1] / rates[-1]
        Tx = np.cumsum(Lx[::-1])[::-1]
        ex = np.where(lx > 0, Tx / lx, 0.0)
    finite = np.isfinite(np.stack((ax, qx, lx, Lx, Tx, ex)))  # in the order computed
    if not finite.all():
        column, age = divmod(int(finite.argmin()), n_groups)
        raise NumericalError(f"life table {('ax', 'qx', 'lx', 'Lx', 'Tx', 'ex')[column]} is "
                             f"not finite at age {mx.group_labels[age]!r}")
    return LifeTable(mx=rates.copy(), ax=ax, qx=qx, lx=lx, Lx=Lx, Tx=Tx, ex=ex)
