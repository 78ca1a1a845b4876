import numpy as np
import pytest

from agecomp import measures
from agecomp.errors import DataError
from agecomp.io import load_schedule_csv
from agecomp.schedule import AgeSchedule

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


class TestLifeTable:
    def test_single_open_group(self):
        lt = measures.life_table_from_mx(AgeSchedule(["0+"], [0.02]), [0.0])
        assert lt.e0 == pytest.approx(50.0)
        assert lt.qx[0] == 1.0

    def test_zero_rate_closed_interval(self):
        lt = measures.life_table_from_mx(
            AgeSchedule(["0", "5", "10+"], [0.0, 0.0, 0.05]), [0.0, 5.0, 10.0]
        )
        np.testing.assert_allclose(lt.qx[:2], [0.0, 0.0])
        np.testing.assert_allclose(lt.lx, [1.0, 1.0, 1.0])

    def test_female_2011_against_oracle(self, data_dir):
        mx = load_schedule_csv(data_dir / "agincourt_mx_female.csv").column("2011")
        lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
        oracle = oracle_life_table(list(mx.values), ABRIDGED_STARTS)
        assert lt.e0 == pytest.approx(oracle[0]["e"], abs=0.01)
        np.testing.assert_allclose(lt.lx, [row["l"] for row in oracle], atol=1e-12)
        np.testing.assert_allclose(lt.Lx, [row["L"] for row in oracle], atol=1e-12)

    def test_invariants(self, data_dir):
        mx = load_schedule_csv(data_dir / "agincourt_mx_male.csv").column("2005")
        lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
        assert np.all(np.diff(lt.lx) <= 0)
        assert np.all(np.diff(lt.Tx) < 0)
        np.testing.assert_allclose(lt.ex, lt.Tx / lt.lx, atol=1e-12)
        assert np.all(lt.qx >= 0) and np.all(lt.qx <= 1) and lt.qx[-1] == 1.0

    def test_e0_decreases_when_any_rate_increases(self, rng):
        for _ in range(5):
            rates = np.exp(rng.normal(-4.0, 0.8, size=len(ABRIDGED_STARTS)))
            base = measures.life_table_from_mx(
                AgeSchedule([str(s) for s in ABRIDGED_STARTS], rates), ABRIDGED_STARTS
            ).e0
            bump = int(rng.integers(len(ABRIDGED_STARTS)))
            bumped = rates.copy()
            bumped[bump] *= 1.5
            worse = measures.life_table_from_mx(
                AgeSchedule([str(s) for s in ABRIDGED_STARTS], bumped), ABRIDGED_STARTS
            ).e0
            assert worse < base

    def test_errors(self):
        with pytest.raises(DataError):
            measures.life_table_from_mx(AgeSchedule(["0", "5+"], [0.1, -0.1]), [0, 5])
        with pytest.raises(DataError):
            measures.life_table_from_mx(AgeSchedule(["0", "5+"], [0.1, 0.1]), [5, 0])
        with pytest.raises(DataError):
            measures.life_table_from_mx(AgeSchedule(["0", "5+"], [0.1, 0.0]), [0, 5])
        with pytest.raises(DataError, match="natural-scale rates"):
            measures.life_table_from_mx(AgeSchedule(["0", "5+"], [0.1, 0.1], "log"), [0, 5])
        with pytest.raises(DataError, match="age grid does not match the rate schedule"):
            measures.life_table_from_mx(AgeSchedule(["0", "5+"], [0.1, 0.1]), [0, 5, 10])

    def test_a_certain_death_interval_leaves_no_survivors(self):
        # 5 m = 5 >= 2 makes q = 1 in the closed interval 5-10, so l(10) = 0
        starts = [0, 5, 10, 15]
        lt = measures.life_table_from_mx(AgeSchedule(list("abcd"), [0.1, 1.0, 0.1, 0.2]), starts)
        assert lt.qx[1] == 1.0
        np.testing.assert_array_equal(lt.lx[2:], [0.0, 0.0])
        np.testing.assert_array_equal(lt.ex[2:], [0.0, 0.0])

    @pytest.mark.parametrize("starts", [[0, np.nan, 5], [np.nan, 1, 5], [0, 1, np.nan],
                                        [0, 1, np.inf], [-np.inf, 1, 5]])
    def test_non_finite_age_start(self, starts):
        with pytest.raises(DataError, match="finite and strictly ascending"):
            measures.life_table_from_mx(AgeSchedule(["a", "b", "c"], [0.1, 0.1, 0.2]), starts)

    def test_near_zero_mortality_keeps_survivors_from_15_to_60(self):
        rates = np.full(len(ABRIDGED_STARTS), 1e-9)
        rates[-1] = 0.1
        lt = measures.life_table_from_mx(
            AgeSchedule([str(s) for s in ABRIDGED_STARTS], rates), ABRIDGED_STARTS
        )
        l15, l60 = lt.lx[ABRIDGED_STARTS.index(15)], lt.lx[ABRIDGED_STARTS.index(60)]
        assert 1.0 - l60 / l15 == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["agincourt_mx_female.csv", "agincourt_mx_male.csv"])
    def test_closed_interval_qx_is_one_minus_the_survivor_ratio(self, data_dir, name):
        table = load_schedule_csv(data_dir / name)
        for label in table.schedule_labels:
            lt = measures.life_table_from_mx(table.column(label), ABRIDGED_STARTS)
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
            mx = table.column(label)
            lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
            oracle = oracle_life_table(list(mx.values), ABRIDGED_STARTS)
            assert 1.0 - lt.lx[j] / lt.lx[i] == pytest.approx(
                1.0 - oracle[j]["l"] / oracle[i]["l"], abs=1e-12
            )

    def test_sub_year_grid_against_oracle(self):
        # 0.3 - 0.1 is 0.19999999999999998; both sides take widths as differences
        starts = [0, 0.1, 0.3, 1, 5, 10]
        rates = [0.05, 0.04, 0.03, 0.01, 0.005, 0.2]
        lt = measures.life_table_from_mx(AgeSchedule([str(s) for s in starts], rates), starts)
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
            lt = measures.life_table_from_mx(table.column(label), ABRIDGED_STARTS)
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
                lt = measures.life_table_from_mx(table.column(label), starts)
                ax, lx = loop_ax_lx(starts, lt.qx)
                np.testing.assert_array_equal(lt.ax[:-1], ax)
                assert lt.ax[-1] == 1.0 / lt.mx[-1]
                np.testing.assert_array_equal(lt.lx, lx)

    def test_random_rates_and_grids_match_the_loops_bit_for_bit(self, rng):
        for _ in range(200):
            starts = np.concatenate(([0.0], np.cumsum(rng.choice([0.5, 1.0, 4.0, 5.0], size=9))))
            rates = rng.uniform(0.0, 3.0, size=starts.size)
            rates[-1] += 0.1
            lt = measures.life_table_from_mx(AgeSchedule([str(s) for s in starts], rates), starts)
            ax, lx = loop_ax_lx(starts, lt.qx)
            np.testing.assert_array_equal(lt.ax[:-1], ax)
            np.testing.assert_array_equal(lt.lx, lx)
