import warnings

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
            if starts[i] == 0 and width <= 1:
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

    @pytest.mark.parametrize("starts", [[0, np.nan, 5], [np.nan, 1, 5], [0, 1, np.nan],
                                        [0, 1, np.inf], [-np.inf, 1, 5]])
    def test_non_finite_age_start(self, starts):
        with pytest.raises(DataError, match="finite and strictly ascending"):
            measures.life_table_from_mx(AgeSchedule(["a", "b", "c"], [0.1, 0.1, 0.2]), starts)


class TestIntervalDeathProb:
    def _table(self, rates):
        labels = [str(s) for s in ABRIDGED_STARTS]
        return measures.life_table_from_mx(AgeSchedule(labels, rates), ABRIDGED_STARTS)

    def test_zero_mortality_interval(self):
        rates = np.full(len(ABRIDGED_STARTS), 1e-9)
        rates[-1] = 0.1
        lt = self._table(rates)
        assert measures.interval_death_prob(lt, 15, 45) == pytest.approx(0.0, abs=1e-6)

    def test_q5_is_one_minus_l5(self, data_dir):
        mx = load_schedule_csv(data_dir / "agincourt_mx_female.csv").column("2011")
        lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
        q5 = measures.interval_death_prob(lt, 0, 5)
        assert q5 == pytest.approx(1.0 - lt.lx[2], abs=1e-15)

    def test_against_oracle(self, data_dir):
        mx = load_schedule_csv(data_dir / "agincourt_mx_female.csv").column("2011")
        lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
        oracle = oracle_life_table(list(mx.values), ABRIDGED_STARTS)
        l15 = oracle[ABRIDGED_STARTS.index(15)]["l"]
        l60 = oracle[ABRIDGED_STARTS.index(60)]["l"]
        assert measures.interval_death_prob(lt, 15, 45) == pytest.approx(
            1.0 - l60 / l15, abs=1e-6
        )

    def test_sub_year_grid_ages_match_within_tolerance(self):
        # 0.1 + 0.2 is 0.30000000000000004, which is not the grid age 0.3
        starts = [0, 0.1, 0.3, 1, 5, 10]
        rates = [0.05, 0.04, 0.03, 0.01, 0.005, 0.2]
        lt = measures.life_table_from_mx(AgeSchedule([str(s) for s in starts], rates), starts)
        got = measures.interval_death_prob(lt, 0.1, 0.2)
        assert got == pytest.approx(1.0 - lt.lx[2] / lt.lx[1], rel=1e-15)
        with pytest.raises(DataError):
            measures.interval_death_prob(lt, 0.1, 0.2 + 1e-6)

    def test_off_grid_errors(self, data_dir):
        mx = load_schedule_csv(data_dir / "agincourt_mx_female.csv").column("2011")
        lt = measures.life_table_from_mx(mx, ABRIDGED_STARTS)
        with pytest.raises(DataError):
            measures.interval_death_prob(lt, 2, 5)


class TestTfr:
    def test_uniform_rates(self):
        asfr = AgeSchedule([f"g{i}" for i in range(7)], [0.1] * 7)
        assert measures.tfr(asfr, 5.0) == pytest.approx(3.5)

    def test_zero_rates(self):
        asfr = AgeSchedule(["a", "b"], [0.0, 0.0])
        assert measures.tfr(asfr, 5.0) == 0.0

    def test_published_1993_column_sum(self, data_dir):
        # the printed TFR for 1993 is 3.47; the smoothed rates sum lower,
        # so regressions consume the printed covariate column instead
        asfr = load_schedule_csv(data_dir / "agincourt_fx.csv").column("1993")
        assert measures.tfr(asfr, 5.0) == pytest.approx(2.985, abs=0.001)

    def test_linearity(self, rng):
        labels = [f"g{i}" for i in range(7)]
        a = rng.uniform(0, 0.2, size=7)
        b = rng.uniform(0, 0.2, size=7)
        total = measures.tfr(AgeSchedule(labels, a + b), 5.0)
        assert total == pytest.approx(
            measures.tfr(AgeSchedule(labels, a), 5.0)
            + measures.tfr(AgeSchedule(labels, b), 5.0)
        )

    def test_negative_rate_errors(self):
        with pytest.raises(DataError):
            measures.tfr(AgeSchedule(["a"], [-0.1]), 5.0)


class TestDeriveDelta:
    def test_published_1993(self):
        assert measures.derive_delta(0.03243, 0.0) == pytest.approx(0.03243)

    def test_published_2011(self):
        assert measures.derive_delta(0.17586, 0.02192) == pytest.approx(0.15394)

    def test_equal_inputs(self):
        assert measures.derive_delta(0.1, 0.1) == 0.0

    def test_clamps_negative_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert measures.derive_delta(0.05, 0.08) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DataError):
            measures.derive_delta(1.2, 0.0)
        with pytest.raises(DataError):
            measures.derive_delta(0.5, -0.1)


def loop_ax_lx(starts, qx):
    """The average-years rule and survivor column one interval at a time."""
    ax, lx = [], [1.0]
    for start, width, q in zip(starts[:-1], np.diff(starts), qx[:-1]):
        if start == 0.0 and width <= 1.0:
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
                assert np.isnan(lt.ax[-1])
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


class TestDeriveDeltaOnArrays:
    def test_arrays_equal_scalar_results_elementwise(self, rng):
        hiv = rng.uniform(0.0, 0.3, size=50)
        art = rng.uniform(0.0, 0.2, size=50) * (hiv > 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            delta = measures.derive_delta(hiv, art)
            scalars = [measures.derive_delta(float(h), float(a)) for h, a in zip(hiv, art)]
        assert isinstance(delta, np.ndarray) and delta.shape == (50,)
        np.testing.assert_array_equal(delta, scalars)
        assert isinstance(measures.derive_delta(0.2, 0.1), float)

    def test_several_clamped_rows_give_one_warning_with_the_count(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta = measures.derive_delta([0.05, 0.2, 0.01, 0.3], [0.08, 0.1, 0.02, 0.4])
        assert len(caught) == 1
        assert "clamped" in str(caught[0].message) and "3 of 4" in str(caught[0].message)
        np.testing.assert_array_equal(delta, [0.0, 0.2 - 0.1, 0.0, 0.0])

    @pytest.mark.parametrize("hiv, art", [
        ([0.1, np.nan], [0.0, 0.0]),
        ([0.1, 0.2], [np.nan, 0.0]),
        ([0.1, 1.2], [0.0, 0.0]),
        ([0.1, 0.2], [0.0, -0.1]),
        ([0.1, np.inf], [0.0, 0.0]),
    ])
    def test_nan_and_out_of_range_entries_raise(self, hiv, art):
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            measures.derive_delta(np.array(hiv), np.array(art))
