from dataclasses import replace

import numpy as np
import pytest

from agecomp import measures
from agecomp.errors import DataError, NumericalError
from agecomp.io import load_schedule_csv
from agecomp.schedule import ScheduleMatrix

ABRIDGED_STARTS = [0, 1] + list(range(5, 90, 5))


def oracle_life_table(rates, starts):
    """Row-by-row spreadsheet-style life table, kept independent of the package."""
    rows = []
    survivors = 1.0
    n_groups = len(starts)
    for i in range(n_groups):
        m = rates[i]
        if i == n_groups - 1:
            q = 1.0
            person_years = survivors / m
            a = None
            width = None
        else:
            width = starts[i + 1] - starts[i]
            if starts[i] == 0 and width == 1:
                a = 0.3
            elif starts[i] == 1 and width == 4:
                a = 1.5
            else:
                a = width / 2.0
            q = width * m / (1.0 + (width - a) * m)
            q = min(q, 1.0)
            deaths = survivors * q
            person_years = width * (survivors - deaths) + a * deaths
        rows.append({"l": survivors, "q": q, "L": person_years})
        survivors = survivors * (1.0 - q)
    total = 0.0
    for row in reversed(rows):
        total += row["L"]
        row["T"] = total
    for row in rows:
        row["e"] = row["T"] / row["l"] if row["l"] > 0 else 0.0
    return rows


def one_column(rates, starts, scale="natural"):
    """The life table of ``rates`` as the one column of a matrix."""
    matrix = ScheduleMatrix([str(s) for s in starts], ["x"], np.reshape(rates, (-1, 1)), scale)
    return measures.life_table_from_mx(matrix, starts, "x")


class TestLifeTable:
    def test_single_open_group(self):
        lt = one_column([0.02], [0.0])
        assert lt.e0 == pytest.approx(50.0)
        assert lt.qx[0] == 1.0

    def test_zero_rate_closed_interval(self):
        lt = one_column([0.0, 0.0, 0.05], [0.0, 5.0, 10.0])
        np.testing.assert_allclose(lt.qx[:2], [0.0, 0.0])
        np.testing.assert_allclose(lt.lx, [1.0, 1.0, 1.0])

    def test_female_2011_against_oracle(self, data_dir):
        table = load_schedule_csv(data_dir / "agincourt_mx_female.csv")
        lt = measures.life_table_from_mx(table, ABRIDGED_STARTS, "2011")
        oracle = oracle_life_table(list(table.column("2011").values), ABRIDGED_STARTS)
        assert lt.e0 == pytest.approx(oracle[0]["e"], abs=0.01)
        np.testing.assert_allclose(lt.lx, [row["l"] for row in oracle], atol=1e-12)
        np.testing.assert_allclose(lt.Lx, [row["L"] for row in oracle], atol=1e-12)

    def test_invariants(self, data_dir):
        table = load_schedule_csv(data_dir / "agincourt_mx_male.csv")
        lt = measures.life_table_from_mx(table, ABRIDGED_STARTS, "2005")
        assert np.all(np.diff(lt.lx) <= 0)
        assert np.all(np.diff(lt.Tx) < 0)
        np.testing.assert_allclose(lt.ex, lt.Tx / lt.lx, atol=1e-12)
        assert np.all(lt.qx >= 0) and np.all(lt.qx <= 1) and lt.qx[-1] == 1.0

    def test_e0_decreases_when_any_rate_increases(self, rng):
        for _ in range(5):
            rates = np.exp(rng.normal(-4.0, 0.8, size=len(ABRIDGED_STARTS)))
            base = one_column(rates, ABRIDGED_STARTS).e0
            bump = int(rng.integers(len(ABRIDGED_STARTS)))
            bumped = rates.copy()
            bumped[bump] *= 1.5
            worse = one_column(bumped, ABRIDGED_STARTS).e0
            assert worse < base

    def test_errors(self):
        with pytest.raises(DataError):
            one_column([0.1, -0.1], [0, 5])
        with pytest.raises(DataError):
            one_column([0.1, 0.1], [5, 0])
        with pytest.raises(DataError):
            one_column([0.1, 0.0], [0, 5])
        with pytest.raises(DataError, match="natural-scale rates"):
            one_column([0.1, 0.1], [0, 5], "log")
        matrix = ScheduleMatrix(["0", "5+"], ["x"], [[0.1], [0.1]])
        with pytest.raises(DataError, match="age grid does not match the rate schedule"):
            measures.life_table_from_mx(matrix, [0, 5, 10], "x")

    def test_a_certain_death_interval_leaves_no_survivors(self):
        # 5 m = 5 >= 2 makes q = 1 in the closed interval 5-10, so l(10) = 0
        starts = [0, 5, 10, 15]
        lt = one_column([0.1, 1.0, 0.1, 0.2], starts)
        assert lt.qx[1] == 1.0
        np.testing.assert_array_equal(lt.lx[2:], [0.0, 0.0])
        np.testing.assert_array_equal(lt.ex[2:], [0.0, 0.0])

    @pytest.mark.parametrize("starts", [[0, np.nan, 5], [np.nan, 1, 5], [0, 1, np.nan],
                                        [0, 1, np.inf], [-np.inf, 1, 5]])
    def test_non_finite_age_start(self, starts):
        with pytest.raises(DataError, match="finite and strictly ascending"):
            one_column([0.1, 0.1, 0.2], starts)

    @pytest.mark.parametrize("starts", [[0, 0, 5], [0, 5, 5], [0, 1, 1, 5]])
    def test_two_equal_age_starts(self, starts):
        groups = [f"group {g}" for g in range(len(starts))]  # labels stay distinct
        matrix = ScheduleMatrix(groups, ["x"], np.full((len(starts), 1), 0.1))
        with pytest.raises(DataError, match="finite and strictly ascending"):
            measures.life_table_from_mx(matrix, starts, "x")

    def test_near_zero_mortality_keeps_survivors_from_15_to_60(self):
        rates = np.full(len(ABRIDGED_STARTS), 1e-9)
        rates[-1] = 0.1
        lt = one_column(rates, ABRIDGED_STARTS)
        l15, l60 = lt.lx[ABRIDGED_STARTS.index(15)], lt.lx[ABRIDGED_STARTS.index(60)]
        assert 1.0 - l60 / l15 == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["agincourt_mx_female.csv", "agincourt_mx_male.csv"])
    def test_closed_interval_qx_is_one_minus_the_survivor_ratio(self, data_dir, name):
        table = load_schedule_csv(data_dir / name)
        for label in table.schedule_labels:
            lt = measures.life_table_from_mx(table, ABRIDGED_STARTS, label)
            np.testing.assert_allclose(1.0 - lt.lx[1:] / lt.lx[:-1], lt.qx[:-1],
                                       rtol=1e-12, atol=1e-15)
            # 5q0 spans the infant and 1-4 groups
            assert 1.0 - lt.lx[2] == pytest.approx(
                1.0 - (1.0 - lt.qx[0]) * (1.0 - lt.qx[1]), abs=1e-15
            )

    @pytest.mark.parametrize("name", ["agincourt_mx_female.csv", "agincourt_mx_male.csv"])
    @pytest.mark.parametrize("start, end", [(0, 5), (15, 60)])
    def test_interval_death_probabilities_against_oracle(self, data_dir, name, start, end):
        # 5q0 and 45q15, the paper's mortality covariates, read off the survivor column
        table = load_schedule_csv(data_dir / name)
        i, j = ABRIDGED_STARTS.index(start), ABRIDGED_STARTS.index(end)
        for label in table.schedule_labels:
            lt = measures.life_table_from_mx(table, ABRIDGED_STARTS, label)
            oracle = oracle_life_table(list(table.column(label).values), ABRIDGED_STARTS)
            assert 1.0 - lt.lx[j] / lt.lx[i] == pytest.approx(
                1.0 - oracle[j]["l"] / oracle[i]["l"], abs=1e-12
            )

    def test_sub_year_grid_against_oracle(self):
        # 0.3 - 0.1 is 0.19999999999999998; both sides take widths as differences
        starts = [0, 0.1, 0.3, 1, 5, 10]
        rates = [0.05, 0.04, 0.03, 0.01, 0.005, 0.2]
        lt = one_column(rates, starts)
        oracle = oracle_life_table(rates, starts)
        for column, key in ((lt.qx, "q"), (lt.lx, "l"), (lt.Lx, "L"), (lt.Tx, "T"),
                            (lt.ex, "e")):
            np.testing.assert_allclose(column, [row[key] for row in oracle], rtol=1e-14)
        assert lt.ax[1] == pytest.approx(0.1)
        # no closed interval credits its deaths, or its survivors, more years than it holds
        widths = np.diff(starts)
        assert np.all(lt.ax[:-1] <= widths)
        assert np.all(lt.Lx[:-1] <= widths * lt.lx[:-1])

    @pytest.mark.parametrize("name", ["agincourt_mx_female.csv", "agincourt_mx_male.csv"])
    def test_deaths_sum_to_the_radix(self, data_dir, name):
        table = load_schedule_csv(data_dir / name)
        for label in table.schedule_labels:
            lt = measures.life_table_from_mx(table, ABRIDGED_STARTS, label)
            assert float(np.sum(lt.lx * lt.qx)) == pytest.approx(1.0, abs=1e-12)


def test_bundled_1993_fertility_sums_below_the_printed_tfr(data_dir, fertility_covariates):
    # the printed TFR for 1993 is 3.47; the smoothed rates sum lower, so
    # regressions consume the printed covariate column instead
    asfr = load_schedule_csv(data_dir / "agincourt_fx.csv").column("1993")
    assert 5.0 * asfr.values.sum() == pytest.approx(2.985, abs=0.001)
    tfr = fertility_covariates.column("tfr")
    assert tfr[fertility_covariates.labels.index("1993")] == 3.47


def loop_ax_lx(starts, qx):
    """The average-years rule and survivor column one interval at a time."""
    ax, lx = [], [1.0]
    for start, width, q in zip(starts[:-1], np.diff(starts), qx[:-1]):
        if start == 0.0 and width == 1.0:
            ax.append(0.3)
        elif start == 1.0 and width == 4.0:
            ax.append(1.5)
        else:
            ax.append(width / 2.0)
        lx.append(lx[-1] * (1.0 - q))
    return np.array(ax), np.array(lx)


class TestLifeTableVectorized:
    def test_every_bundled_schedule_matches_the_loops_bit_for_bit(self, data_dir):
        starts = np.asarray(ABRIDGED_STARTS, dtype=float)
        for name in ("agincourt_mx_female.csv", "agincourt_mx_male.csv"):
            table = load_schedule_csv(data_dir / name)
            for label in table.schedule_labels:
                lt = measures.life_table_from_mx(table, starts, label)
                ax, lx = loop_ax_lx(starts, lt.qx)
                np.testing.assert_array_equal(lt.ax[:-1], ax)
                assert lt.ax[-1] == 1.0 / lt.mx[-1]
                np.testing.assert_array_equal(lt.lx, lx)

    def test_random_rates_and_grids_match_the_loops_bit_for_bit(self, rng):
        for _ in range(200):
            starts = np.concatenate(([0.0], np.cumsum(rng.choice([0.5, 1.0, 4.0, 5.0], size=9))))
            rates = rng.uniform(0.0, 3.0, size=starts.size)
            rates[-1] += 0.1
            lt = one_column(rates, starts)
            ax, lx = loop_ax_lx(starts, lt.qx)
            np.testing.assert_array_equal(lt.ax[:-1], ax)
            np.testing.assert_array_equal(lt.lx, lx)


class TestLifeTablesOfAMatrix:
    """Every column's table comes from one pass over the matrix, which is kept."""

    @pytest.mark.parametrize("name", ["agincourt_mx_female.csv", "agincourt_mx_male.csv"])
    def test_every_column_equals_its_one_column_table(self, data_dir, name):
        table = load_schedule_csv(data_dir / name)
        for h, label in enumerate(table.schedule_labels):
            got = measures.life_table_from_mx(table, ABRIDGED_STARTS, label)
            want = one_column(table.data[:, h], ABRIDGED_STARTS)
            for key in ("mx", "ax", "qx", "lx", "Lx", "Tx", "ex"):
                np.testing.assert_array_equal(getattr(got, key), getattr(want, key), err_msg=key)

    @pytest.mark.parametrize("age, rate, error, message", [
        (1, -0.01, DataError, "mortality rates must be nonnegative and finite"),
        (3, 0.0, DataError, "open-ended age group needs a positive rate"),
        (1, 1e308, NumericalError, "life table qx is not finite at age '1'"),
        (3, 1e-320, NumericalError, "life table ax is not finite at age '10+'"),
    ], ids=["negative", "zero-open-rate", "closed-overflow", "subnormal-open-rate"])
    def test_a_fault_fails_only_its_own_column(self, age, rate, error, message):
        starts = [0, 1, 5, 10]
        rates = np.tile([[0.01], [0.002], [0.001], [0.2]], 3)
        rates[:, 2] *= 1.5
        rates[age, 1] = rate
        matrix = ScheduleMatrix(["0", "1", "5", "10+"], ["a", "b", "c"], rates)
        with pytest.raises(error) as raised:
            measures.life_table_from_mx(matrix, starts, "b")
        assert str(raised.value) == message
        for h, label in ((0, "a"), (2, "c")):
            got = measures.life_table_from_mx(matrix, starts, label)
            np.testing.assert_array_equal(got.ex, one_column(rates[:, h], starts).ex)

    def test_a_repeat_of_the_rates_and_grid_reads_the_kept_tables(self, data_dir, monkeypatch):
        builds, cumprod = [], np.cumprod
        monkeypatch.setattr(np, "cumprod", lambda *a, **k: builds.append(1) or cumprod(*a, **k))
        table = load_schedule_csv(data_dir / "agincourt_mx_female.csv")
        first = measures.life_table_from_mx(table, ABRIDGED_STARTS, "1993")
        measures.life_table_from_mx(table, ABRIDGED_STARTS, "2011")
        # another matrix of the same bits, under other labels
        relabeled = ScheduleMatrix([g + "y" for g in table.group_labels],
                                   [f"s{label}" for label in table.schedule_labels], table.data)
        again = measures.life_table_from_mx(relabeled, ABRIDGED_STARTS, "s1993")
        assert len(builds) == 1
        np.testing.assert_array_equal(again.ex, first.ex)
        assert not (first.ex.flags.writeable or first.mx.flags.writeable)
        # other rates, then another grid, then the first rates again: each is built
        measures.life_table_from_mx(replace(table, data=table.data * 2.0), ABRIDGED_STARTS, "1993")
        measures.life_table_from_mx(table, [0, 1] + list(range(6, 91, 5)), "1993")
        measures.life_table_from_mx(table, ABRIDGED_STARTS, "1993")
        assert len(builds) == 4

    def test_a_kept_fault_names_the_callers_age_label(self):
        rates = np.array([[0.01, 0.01], [1e308, 0.01], [0.2, 0.2]])
        for groups in (["0", "1", "5+"], ["0-1", "1-4", "5+"]):
            matrix = ScheduleMatrix(groups, ["a", "b"], rates)
            with pytest.raises(NumericalError, match=f"at age '{groups[1]}'$"):
                measures.life_table_from_mx(matrix, [0, 1, 5], "a")

    def test_a_grid_that_fails_keeps_nothing(self, data_dir, monkeypatch):
        table = load_schedule_csv(data_dir / "agincourt_mx_female.csv")
        measures.life_table_from_mx(table, ABRIDGED_STARTS, "1993")
        builds, cumprod = [], np.cumprod
        monkeypatch.setattr(np, "cumprod", lambda *a, **k: builds.append(1) or cumprod(*a, **k))
        with pytest.raises(DataError, match="finite and strictly ascending"):
            measures.life_table_from_mx(table, ABRIDGED_STARTS[::-1], "1993")
        measures.life_table_from_mx(table, ABRIDGED_STARTS, "2011")
        assert builds == []
