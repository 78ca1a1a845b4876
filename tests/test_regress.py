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

    def test_delta_is_percentage_points(self):
        table = CovariateTable(
            ["1993", "2011"],
            {"hiv_prev": [0.03243, 0.17586], "art_cov": [0.0, 0.02192]},
        ).with_delta()
        np.testing.assert_allclose(table.column("delta"), [3.243, 15.394], atol=1e-9)

    def test_row_access(self, covariates):
        row = covariates.row("1993")
        assert row["e0"] == pytest.approx(70.13)
        with pytest.raises(DataError):
            covariates.row("1900")

    def test_row_lookup_every_label(self, covariates):
        for i, label in enumerate(covariates.labels):
            row = covariates.row(label)
            assert row == {name: col[i] for name, col in covariates.columns.items()}
        assert covariates.row(1993) == covariates.row("1993")

    def test_duplicate_row_label_named(self):
        with pytest.raises(DataError, match="duplicate covariate row label '1994'"):
            CovariateTable(["1993", "1994", "1994"], {"e0": [60.0, 61.0, 62.0]})


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

    def test_no_intercept_fit(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        model = regress.ols_fit(2.5 * x, {"x": x}, with_intercept=False)
        assert model.coefficients.shape == (1,)
        assert model.coefficients[0] == pytest.approx(2.5)
        assert model.r_squared == pytest.approx(1.0)


class TestStudentT:
    def test_against_scipy_oracle(self):
        for df in (1, 2, 5, 16, 17, 50, 200):
            for t in (0.0, 0.5, 1.0, 2.0, 5.09, 7.53, 18.26, 29.73, 50.0):
                mine = regress.student_t_p_value(t, df)
                oracle = 2.0 * scipy.stats.t.sf(abs(t), df)
                assert mine == pytest.approx(oracle, abs=1e-8), (t, df)

    def test_incomplete_beta_edge_cases(self):
        assert regress.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regress.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        mine = regress.regularized_incomplete_beta(2.5, 1.5, 0.3)
        oracle = scipy.stats.beta.cdf(0.3, 2.5, 1.5)
        assert mine == pytest.approx(oracle, abs=1e-10)


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
        columns = [
            regress.predict_schedule(basis, models, table.row(lbl)).values
            for lbl in matrix.schedule_labels
        ]
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
        for label in mortality_log.schedule_labels:
            row = table.row(label)
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

        def median_for(predictors):
            if predictors is None:
                pred = schedule.smooth_matrix(mortality_log, 2)
            else:
                models = regress.fit_weight_models(weights, table, predictors)
                cols = [
                    regress.predict_schedule(basis, models, table.row(lbl)).values
                    for lbl in mortality_log.schedule_labels
                ]
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
        models.append(regress.ols_fit(weights[:, 0], {"e0": table.column("e0")}, with_intercept=False))
        for model in models:
            by_column = model.predict_one(table.columns)
            by_row = [model.predict_one(table.row(label)) for label in table.labels]
            np.testing.assert_array_equal(by_column, by_row)
        by_column = regress.predict_weights(models, table.columns)
        by_row = [regress.predict_weights(models, table.row(label)) for label in table.labels]
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
    calls = []
    real = linalg.svd

    def counted(x):
        calls.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(linalg, "svd", counted)
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
