"""Demographic measures: the abridged life table.

The life table is what ``lifetable`` writes, built from age-specific death
rates with a conventional average-years-lived rule: 0.3 years for ages 0-1,
1.5 for ages 1-4, half the interval otherwise, and an open-ended last group.
The tables of every schedule of a matrix are computed at once, each step one
operation along the age axis, and the last matrix's tables are kept: a table
of another column of the same rates on the same age grid is read off them.
The commands of one ``agecomp run`` script share them; separate processes do
not.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .schedule import NATURAL, ScheduleMatrix

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


def life_table_from_mx(mx: ScheduleMatrix, age_starts, label) -> LifeTable:
    """The abridged life table of schedule ``label`` of ``mx``, a matrix of
    age-specific mortality rates.

    ``age_starts`` holds the ascending start age of every group; the last
    group is open-ended.  Closed intervals convert rates to probabilities
    with qx = n*mx / (1 + (n - ax)*mx); the open interval has qx = 1,
    ax = 1/mx and person-years lx/mx.  Only the faults of column ``label``
    fail the call: a negative rate, a non-positive open-interval rate, and a
    table column that overflows (a rate near the float maximum, or 1/mx of a
    subnormal open-interval rate), a NumericalError naming the first such
    table column computed and its first age.

    The tables of every column are computed in one pass and kept until other
    rates or another grid replace them.  The kept call is found by the rates'
    shape, their C-order bytes and the grid's bytes, compared with no hash,
    and the table's arrays are read-only column views of the kept tables.
    """
    h = mx.position(label)
    if mx.scale != NATURAL:
        raise DataError("life table needs natural-scale rates")
    starts = np.asarray(age_starts, dtype=float)
    if starts.ndim != 1 or starts.size != mx.data.shape[0]:
        raise DataError("age grid does not match the rate schedule")
    tables, negative, no_open_rate, finite = _life_tables(
        mx.data.shape, mx.data.tobytes(), starts.tobytes())
    if negative[h]:
        raise DataError("mortality rates must be nonnegative and finite")
    if no_open_rate[h]:
        raise DataError("open-ended age group needs a positive rate")
    if not finite[h]:
        finite = np.isfinite(np.stack(tables[1:])[:, :, h])  # in the order computed
        column, age = divmod(int(finite.argmin()), starts.size)
        raise NumericalError(f"life table {('ax', 'qx', 'lx', 'Lx', 'Tx', 'ex')[column]} is "
                             f"not finite at age {mx.group_labels[age]!r}")
    return LifeTable(*(table[:, h] for table in tables))


@linalg._keep_last
def _life_tables(shape, data, grid):
    """The tables of the rates with ``shape`` and C-order bytes ``data`` on
    the age grid with bytes ``grid``: (mx, ax, qx, lx, Lx, Tx, ex), each
    G x H and read-only, and whether each column has a negative rate, has no
    positive open-interval rate, and has a finite table."""
    rates = np.frombuffer(data).reshape(shape)
    starts = np.frombuffer(grid)
    if not (np.all(np.isfinite(starts)) and np.all(np.diff(starts) > 0)):
        raise DataError("age grid must be finite and strictly ascending")

    widths = np.append(np.diff(starts), np.inf)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ax = np.where(
            (starts[:, None] == 0.0) & (widths == 1.0), 0.3,
            np.where((starts[:, None] == 1.0) & (widths == 4.0), 1.5, widths / 2.0),
        ).repeat(shape[1], axis=1)
        ax[-1] = 1.0 / rates[-1]  # the open interval's Lx / dx

        qx = np.empty(shape)
        qx[:-1] = (widths[:-1] * rates[:-1]) / (1.0 + (widths[:-1] - ax[:-1]) * rates[:-1])
        qx[:-1] = np.clip(qx[:-1], 0.0, 1.0)
        qx[-1] = 1.0

        lx = np.cumprod(np.concatenate((np.ones((1, shape[1])), 1.0 - qx[:-1])), axis=0)
        deaths = lx * qx

        Lx = np.empty(shape)
        Lx[:-1] = widths[:-1] * lx[1:] + ax[:-1] * deaths[:-1]
        Lx[-1] = lx[-1] / rates[-1]
        Tx = np.cumsum(Lx[::-1], axis=0)[::-1]
        ex = np.where(lx > 0, Tx / lx, 0.0)
    tables = (rates, ax, qx, lx, Lx, Tx, ex)
    for table in tables:
        table.flags.writeable = False
    finite = np.isfinite(np.stack(tables[1:])).all(axis=(0, 1))
    return tables, (rates < 0).any(axis=0), rates[-1] <= 0, finite
