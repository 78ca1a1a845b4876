import warnings

import numpy as np
import pytest
import scipy.stats

from agecomp import linalg, regress, schedule
from agecomp.errors import DataError, NumericalError
from agecomp.regress import CovariateTable


def mortality_weight_fit(mortality_log, covariates, predictors):
    weights = schedule.svd_weights(mortality_log, 2)
    return regress.fit_weight_models(weights, covariates, predictors)


def assert_joint_sign_match(coefs, expected, atol):
    direct = np.abs(np.asarray(coefs) - np.asarray(expected)).max()
    flipped = np.abs(np.asarray(coefs) + np.asarray(expected)).max()
    assert min(direct, flipped) < atol, (coefs, expected)


class TestCovariateTable:
    def test_range_validation(self):
        with pytest.raises(DataError):
            CovariateTable(["1993"], {"hiv_prev": [1.5]})
        with pytest.raises(DataError):
            CovariateTable(["1993"], {"e0": [-1.0]})
        with pytest.raises(DataError):
            CovariateTable(["1993", "1993"], {"e0": [60.0, 61.0]})
        with pytest.raises(DataError, match="covariate column 'e0' has wrong length"):
            CovariateTable(["1993"], {"e0": [60.0, 61.0]})
        with pytest.raises(DataError, match="covariate column 'e0' has non-finite entries"):
            CovariateTable(["1993"], {"e0": [np.nan]})

    def test_any_positive_e0_is_accepted_and_zero_is_refused(self):
        table = CovariateTable(["a", "b", "c"], {"e0": [1e-300, 0.5, 1.0]})
        assert table.column("e0").tolist() == [1e-300, 0.5, 1.0]
        with pytest.raises(DataError, match="life expectancy e0 must be positive"):
            CovariateTable(["a", "b"], {"e0": [0.5, 0.0]})

    def test_delta_is_percentage_points(self):
        table = CovariateTable(
            ["1993", "2011"],
            {"hiv_prev": [0.03243, 0.17586], "art_cov": [0.0, 0.02192]},
        ).with_delta()
        np.testing.assert_allclose(table.column("delta"), [3.243, 15.394], atol=1e-9)
        with pytest.raises(DataError, match="delta needs both hiv_prev and art_cov"):
            CovariateTable(["1993"], {"hiv_prev": [0.03243]}).with_delta()

    def test_row_access(self, covariates):
        i = covariates.labels.index("1993")
        row = {name: float(col[i]) for name, col in covariates.columns.items()}
        assert row["e0"] == pytest.approx(70.13)
        with pytest.raises(DataError, match="no covariate column named 'nope'"):
            covariates.column("nope")

    def test_labels_are_kept_as_strings(self):
        table = CovariateTable([1993, 1994], {"e0": [60.0, 61.0]})
        assert table.labels == ("1993", "1994")
        assert table.labels.index("1993") == 0
        with pytest.raises(DataError, match="duplicate covariate row label '1994'"):
            CovariateTable([1993, 1994, "1994"], {"e0": [60.0, 61.0, 62.0]})

    def test_duplicate_row_label_named(self):
        with pytest.raises(DataError, match="duplicate covariate row label '1994'"):
            CovariateTable(["1993", "1994", "1994"], {"e0": [60.0, 61.0, 62.0]})


def delta_of(hiv_prev, art_cov):
    """The delta column of a table holding these hiv_prev and art_cov columns."""
    labels = [str(1993 + i) for i in range(len(hiv_prev))]
    return CovariateTable(labels, {"hiv_prev": hiv_prev, "art_cov": art_cov}).with_delta().column("delta")


class TestWithDelta:
    def test_published_1993(self):
        assert delta_of([0.03243], [0.0]) == pytest.approx([3.243])

    def test_published_2011(self):
        assert delta_of([0.17586], [0.02192]) == pytest.approx([15.394])

    def test_equal_inputs(self):
        assert delta_of([0.1], [0.1]) == [0.0]

    def test_clamps_negative_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert delta_of([0.05], [0.08]) == [0.0]

    def test_out_of_range(self):
        with pytest.raises(DataError):
            delta_of([1.2], [0.0])
        with pytest.raises(DataError):
            delta_of([0.5], [-0.1])

    def test_several_clamped_rows_give_one_warning_with_the_count(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta = delta_of([0.05, 0.2, 0.01, 0.3], [0.08, 0.1, 0.02, 0.4])
        assert len(caught) == 1
        assert "clamped" in str(caught[0].message) and "3 of 4" in str(caught[0].message)
        np.testing.assert_array_equal(delta, [0.0, 100.0 * (0.2 - 0.1), 0.0, 0.0])

    @pytest.mark.parametrize("hiv, art, message", [
        ([0.1, np.nan], [0.0, 0.0], "covariate column 'hiv_prev' has non-finite entries"),
        ([0.1, 0.2], [np.nan, 0.0], "covariate column 'art_cov' has non-finite entries"),
        ([0.1, 1.2], [0.0, 0.0], r"covariate 'hiv_prev' must lie in \[0, 1\]"),
        ([0.1, 0.2], [0.0, -0.1], r"covariate 'art_cov' must lie in \[0, 1\]"),
        ([0.1, np.inf], [0.0, 0.0], "covariate column 'hiv_prev' has non-finite entries"),
    ])
    def test_nan_and_out_of_range_entries_raise(self, hiv, art, message):
        # the table checks both columns when it is built, before any delta
        with pytest.raises(DataError, match=message):
            delta_of(hiv, art)


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(1.0, 6.0)
        model = regress.ols_fit(2 * x, {"x": x})
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert model.coefficients[1] == pytest.approx(2.0, abs=1e-12)
        assert model.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_hand_normal_equations(self):
        model = regress.ols_fit([1.0, 3.0, 4.0], {"x": [0.0, 1.0, 2.0]})
        assert model.coefficients[1] == pytest.approx(1.5)
        assert model.coefficients[0] == pytest.approx(7.0 / 6.0)

    def test_mortality_v1_reproduces_published_estimates(self, mortality_log, covariates):
        m1, _ = mortality_weight_fit(mortality_log, covariates, ["e0", "delta"])
        assert_joint_sign_match(m1.coefficients, [0.1024, 0.0021, -0.0005], atol=5e-4)
        assert m1.r_squared == pytest.approx(0.9961, abs=0.002)
        np.testing.assert_allclose(
            m1.standard_errors, [0.0056, 0.0001, 0.0001], atol=5e-4
        )
        np.testing.assert_allclose(m1.t_values, [18.26, 29.73, -5.09], atol=0.15)
        assert m1.p_values[0] < 5e-4 and m1.p_values[1] < 5e-4
        assert m1.p_values[2] == pytest.approx(0.0001, abs=5e-4)

    def test_mortality_v2_reproduces_published_estimates(self, mortality_log, covariates):
        _, m2 = mortality_weight_fit(mortality_log, covariates, ["e0", "delta"])
        assert_joint_sign_match(m2.coefficients, [-0.8532, 0.0192, -0.0253], atol=5e-3)
        assert m2.r_squared == pytest.approx(0.9779, abs=0.005)

    def test_fertility_v1_reproduces_published_estimates(
        self, fertility_log, fertility_covariates
    ):
        weights = schedule.svd_weights(fertility_log, 2)
        m1, m2 = regress.fit_weight_models(weights, fertility_covariates, ["tfr"])
        assert_joint_sign_match(m1.coefficients, [0.344799, -0.039329], atol=3e-3)
        assert m1.r_squared == pytest.approx(0.746, abs=0.01)
        np.testing.assert_allclose(
            m1.standard_errors, [0.016529, 0.005566], atol=5e-4
        )
        # second-component slope; the intercept is checked in the acceptance
        # suite where the fixture-precision limit is documented
        assert_joint_sign_match([m2.coefficients[1]], [0.424483], atol=3e-3)
        assert m2.r_squared == pytest.approx(0.431, abs=0.01)

    def test_errors(self):
        with pytest.raises(NumericalError):
            regress.ols_fit([1.0, 2.0], {"x": [1.0, 2.0]})  # n <= p
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # exactly collinear, and nearly so: design condition ~1e14 lies
        # beyond the rank cutoff that ols_fit shares with linalg.svd
        near = 2.0 * x + 1.5e-13 * np.array([1.0, -1.0, -1.0, 1.0])
        for b in (2.0 * x, near):
            with pytest.raises(NumericalError, match="rank-deficient"):
                regress.ols_fit([1.0, 2.0, 3.0, 4.0], {"a": x, "b": b})
        with pytest.raises(DataError, match="predictor 'x' length mismatch"):
            regress.ols_fit([1.0, 2.0, 3.0, 4.0], {"x": x[:3]})
        with pytest.raises(DataError, match="response must be a vector"):
            regress.ols_fit(np.ones((4, 2)), {"x": x})

    def test_residual_orthogonality_and_zero_sum(self, rng):
        x1 = rng.normal(size=30)
        x2 = rng.normal(size=30)
        y = 1.0 + 2.0 * x1 - 0.5 * x2 + rng.normal(size=30)
        model = regress.ols_fit(y, {"x1": x1, "x2": x2})
        assert abs(model.residuals.sum()) < 1e-8 * np.abs(y).sum()
        for col in (x1, x2):
            dot = abs(model.residuals @ col)
            assert dot < 1e-8 * np.linalg.norm(model.residuals) * np.linalg.norm(col) + 1e-12

    def test_r_squared_equals_squared_correlation(self, rng):
        x = rng.normal(size=25)
        y = 3.0 - x + 0.4 * rng.normal(size=25)
        model = regress.ols_fit(y, {"x": x})
        fitted = y - model.residuals
        corr = np.corrcoef(fitted, y)[0, 1]
        assert model.r_squared == pytest.approx(corr**2, abs=1e-10)


class TestScaleSafeStatistics:
    Y = np.array([2.0, 3.0, 5.0, 4.0, 7.0])  # R^2 0.8694 on X unscaled
    X = np.array([1.0, 2.0, 3.0, 4.0, 6.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_statistics_follow_a_weight_scale_out_of_the_squares_range(self, scale):
        # the squared residuals and totals underflow (1e-170) or overflow (1e160);
        # run with warnings as errors
        ref = regress.ols_fit(self.Y, {"x": self.X})
        got = regress.ols_fit(self.Y * scale, {"x": self.X})
        assert got.r_squared == pytest.approx(ref.r_squared, rel=1e-13)
        np.testing.assert_allclose(got.standard_errors, ref.standard_errors * scale, rtol=1e-13)
        np.testing.assert_allclose(got.t_values, ref.t_values, rtol=1e-13)
        np.testing.assert_allclose(got.p_values, ref.p_values, rtol=1e-9)


class TestStudentT:
    def test_against_scipy_oracle(self):
        for df in (1, 2, 5, 16, 17, 50, 200):
            for t in (0.0, 0.5, 1.0, 2.0, 5.09, 7.53, 18.26, 29.73, 50.0):
                mine = regress.student_t_p_value(t, df)
                oracle = 2.0 * scipy.stats.t.sf(abs(t), df)
                assert mine == pytest.approx(oracle, abs=1e-8), (t, df)
            for t in (np.inf, -np.inf):  # x = df / (df + t^2) is 0.0, where I_x is 0.0
                assert regress.student_t_p_value(t, df) == 0.0 == 2.0 * scipy.stats.t.sf(abs(t), df)

    def test_incomplete_beta_edge_cases(self):
        assert regress.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regress.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        mine = regress.regularized_incomplete_beta(2.5, 1.5, 0.3)
        oracle = scipy.stats.beta.cdf(0.3, 2.5, 1.5)
        assert mine == pytest.approx(oracle, abs=1e-10)
        for x in (-0.1, 1.5):
            with pytest.raises(NumericalError, match="outside"):
                regress.regularized_incomplete_beta(2.0, 3.0, x)
        with pytest.raises(NumericalError, match="degrees of freedom must be >= 1"):
            regress.student_t_p_value(1.0, 0)


class TestPredictWeights:
    def _table3_models(self):
        return [
            regress.LinearModel(
                predictor_names=("e0", "delta"),
                coefficients=np.array([0.1024, 0.0021, -0.0005]),
                standard_errors=np.zeros(3),
                t_values=np.zeros(3),
                p_values=np.zeros(3),
                r_squared=1.0,
                n=19,
                residuals=np.array([]),
            )
        ]

    def test_zero_covariates_give_intercepts(self):
        models = self._table3_models()
        out = regress.predict_weights(models, {"e0": 0.0, "delta": 0.0})
        np.testing.assert_allclose(out, [0.1024])

    def test_published_mortality_coefficients(self):
        models = self._table3_models()
        out = regress.predict_weights(models, {"e0": 70.13, "delta": 0.03243})
        assert out[0] == pytest.approx(0.24965, abs=1e-5)

    def test_published_fertility_coefficients(self):
        model = regress.LinearModel(
            predictor_names=("tfr",),
            coefficients=np.array([0.344799, -0.039329]),
            standard_errors=np.zeros(2),
            t_values=np.zeros(2),
            p_values=np.zeros(2),
            r_squared=1.0,
            n=19,
            residuals=np.array([]),
        )
        out = regress.predict_weights([model], {"tfr": 3.47})
        assert out[0] == pytest.approx(0.20833, abs=1e-5)

    def test_missing_covariate(self):
        with pytest.raises(DataError):
            regress.predict_weights(self._table3_models(), {"e0": 60.0})


class TestPredictSchedule:
    def test_constant_models_reproduce_smoothed_column(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        w = schedule.svd_weights(mortality_log, 2)
        year = 6
        models = [
            regress.LinearModel(
                predictor_names=(),
                coefficients=np.array([w[year, i]]),
                standard_errors=np.zeros(1),
                t_values=np.zeros(1),
                p_values=np.zeros(1),
                r_squared=1.0,
                n=19,
                residuals=np.array([]),
            )
            for i in range(2)
        ]
        pred = regress.predict_schedule(basis, models, {})
        smoothed = schedule.smooth_matrix(mortality_log, 2)
        np.testing.assert_allclose(pred.values, smoothed.data[:, year], atol=1e-10)

    def _predicted_matrix(self, matrix, covariates, predictors):
        basis = schedule.build_basis(matrix, 2)
        weights = schedule.svd_weights(matrix, 2)
        models = regress.fit_weight_models(weights, covariates, predictors)
        table = covariates.with_delta() if "delta" in predictors else covariates
        rows = [{name: float(col[i]) for name, col in table.columns.items()}
                for i in map(table.labels.index, matrix.schedule_labels)]
        columns = [regress.predict_schedule(basis, models, row).values for row in rows]
        return schedule.ScheduleMatrix(
            matrix.group_labels, matrix.schedule_labels, np.column_stack(columns), "log"
        )

    def test_mortality_e0_delta_prediction_errors(self, mortality_log, covariates):
        pred = self._predicted_matrix(mortality_log, covariates, ["e0", "delta"])
        m = schedule.error_metrics(pred, mortality_log)
        assert m.mae == pytest.approx(0.083, abs=0.003)
        expected = [0.0022, 0.0312, 0.0697, 0.1169, 0.2990]
        np.testing.assert_allclose(m.quantiles, expected, atol=0.004)

    def test_fertility_tfr_prediction_errors(self, fertility_log, fertility_covariates):
        pred = self._predicted_matrix(fertility_log, fertility_covariates, ["tfr"])
        m = schedule.error_metrics(pred, fertility_log)
        assert m.mae == pytest.approx(0.0834, abs=0.004)

    def test_prediction_invariant_under_joint_sign_flip(self, mortality_log, covariates):
        basis = schedule.build_basis(mortality_log, 2)
        weights = schedule.svd_weights(mortality_log, 2)
        flipped_basis = schedule.ComponentBasis(
            basis.group_labels,
            basis.components * [1.0, -1.0],
            basis.singular_values,
            basis.scale,
        )
        flipped_weights = weights * [1.0, -1.0]
        table = covariates.with_delta()
        models = regress.fit_weight_models(weights, table, ["e0", "delta"])
        flipped_models = regress.fit_weight_models(flipped_weights, table, ["e0", "delta"])
        for i in map(table.labels.index, mortality_log.schedule_labels):
            row = {name: float(col[i]) for name, col in table.columns.items()}
            a = regress.predict_schedule(basis, models, row)
            b = regress.predict_schedule(flipped_basis, flipped_models, row)
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_model_count_mismatch(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        with pytest.raises(DataError):
            regress.predict_schedule(basis, [], {})


class TestTableFivePredictorOrdering:
    def test_median_error_ordering_matches_publication(self, mortality_log, covariates):
        # published |error| medians rank SVD (0.0651) <= e0&delta (0.0697)
        # <= q5_0&q45_15 (0.0704) <= q45_15 (0.0752) <= q5_0 (0.0916)
        table = covariates.with_delta()
        weights = schedule.svd_weights(mortality_log, 2)
        basis = schedule.build_basis(mortality_log, 2)
        rows = [{name: float(col[i]) for name, col in table.columns.items()}
                for i in map(table.labels.index, mortality_log.schedule_labels)]

        def median_for(predictors):
            if predictors is None:
                pred = schedule.smooth_matrix(mortality_log, 2)
            else:
                models = regress.fit_weight_models(weights, table, predictors)
                cols = [regress.predict_schedule(basis, models, row).values for row in rows]
                pred = schedule.ScheduleMatrix(
                    mortality_log.group_labels,
                    mortality_log.schedule_labels,
                    np.column_stack(cols),
                    "log",
                )
            return float(np.median(np.abs(pred.data - mortality_log.data)))

        medians = {
            "svd": median_for(None),
            "e0_delta": median_for(["e0", "delta"]),
            "q5": median_for(["q5_0"]),
            "q45": median_for(["q45_15"]),
            "q5_q45": median_for(["q5_0", "q45_15"]),
        }
        tol = 0.002
        assert medians["svd"] <= medians["e0_delta"] + tol
        assert medians["e0_delta"] <= medians["q5_q45"] + tol
        assert medians["q5_q45"] <= medians["q45"] + tol
        assert medians["q45"] <= medians["q5"] + tol


class TestColumnEvaluation:
    def test_columns_equal_per_row_predictions_bit_for_bit(self, mortality_log, covariates):
        table = covariates.with_delta()
        weights = schedule.svd_weights(mortality_log, 2)
        models = regress.fit_weight_models(weights, table, ["e0", "delta"])
        rows = [{name: float(col[i]) for name, col in table.columns.items()}
                for i in range(len(table.labels))]
        for model in models:
            by_column = model.predict_one(table.columns)
            by_row = [model.predict_one(row) for row in rows]
            np.testing.assert_array_equal(by_column, by_row)
        by_column = regress.predict_weights(models, table.columns)
        by_row = [regress.predict_weights(models, row) for row in rows]
        np.testing.assert_array_equal(by_column.T, by_row)


def per_column_reference(y, predictors):
    """One column fitted on its own factorization of the design, step by step
    as a single-response OLS fit; kept here as the oracle for the shared one."""
    yv = np.asarray(y, dtype=float)
    cols = [np.asarray(predictors[name], dtype=float) for name in predictors]
    design = np.column_stack([np.ones_like(yv)] + cols)
    n, p = design.shape
    f = linalg.svd(design)
    coefs = f.v @ ((f.u.T @ yv) / f.s)
    residuals = yv - design @ coefs
    rss = float(residuals @ residuals)
    sigma2 = rss / (n - p)
    se = np.sqrt(sigma2 * ((f.v / f.s) ** 2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(se > 0, coefs / se, np.inf)
    p_values = np.array([regress.student_t_p_value(t, n - p) for t in t_values])
    tss = float(((yv - yv.mean()) ** 2).sum())
    return coefs, se, t_values, p_values, float(1.0 - rss / tss), residuals


def spy_svd(monkeypatch):
    """The shapes LAPACK factors: the design goes to it without the kept SVD."""
    calls = []
    real = np.linalg.svd

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestOneFactorizationPerDesign:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_fit_weight_models_factorizes_once(self, c, mortality_log, covariates, monkeypatch):
        weights = schedule.svd_weights(mortality_log, c)
        calls = spy_svd(monkeypatch)
        models = regress.fit_weight_models(weights, covariates, ["e0", "delta"])
        assert len(models) == c
        assert calls == [(19, 3)]

    @pytest.mark.parametrize("data, predictors, c", [
        *(("mortality", ["e0", "delta"], c) for c in range(1, 6)),
        *(("fertility", ["tfr"], c) for c in range(1, 4)),
    ])
    def test_models_equal_the_per_column_reference_bit_for_bit(self, data, predictors, c, request):
        matrix = request.getfixturevalue(f"{data}_log")
        table = request.getfixturevalue("covariates" if data == "mortality" else "fertility_covariates")
        weights = schedule.svd_weights(matrix, c)
        models = regress.fit_weight_models(weights, table, predictors)
        columns = {name: table.with_delta().column(name) if name == "delta" else table.column(name)
                   for name in predictors}
        for i, model in enumerate(models):
            coefs, se, t, p, r2, residuals = per_column_reference(weights[:, i], columns)
            np.testing.assert_array_equal(model.coefficients, coefs)
            np.testing.assert_array_equal(model.standard_errors, se)
            np.testing.assert_array_equal(model.t_values, t)
            np.testing.assert_array_equal(model.p_values, p)
            assert model.r_squared == r2
            np.testing.assert_array_equal(model.residuals, residuals)

    def test_repeated_predictor_is_rejected(self, mortality_log, covariates):
        weights = schedule.svd_weights(mortality_log, 2)
        with pytest.raises(DataError, match="duplicate predictor label 'e0'"):
            regress.fit_weight_models(weights, covariates, ["e0", "delta", "e0"])
        with pytest.raises(DataError, match="weight rows do not match covariate rows"):
            regress.fit_weight_models(weights[:18], covariates, ["e0"])
