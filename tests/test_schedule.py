from dataclasses import replace

import numpy as np
import pytest

from agecomp import linalg, schedule
from agecomp.errors import DataError, NumericalError
from agecomp.io import load_schedule_csv
from agecomp.schedule import AgeSchedule, ScheduleMatrix

X32 = ScheduleMatrix(["a", "b", "c"], ["s1", "s2"], [[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]])


def random_schedule_matrix(rng, n_groups=8, n_scheds=5):
    data = np.exp(rng.normal(size=(n_groups, n_scheds)))
    return ScheduleMatrix(
        [f"g{i}" for i in range(n_groups)],
        [f"s{j}" for j in range(n_scheds)],
        data,
    )


class TestTypes:
    def test_schedule_validation(self):
        with pytest.raises(DataError):
            AgeSchedule(["0", "1-4"], [0.1])
        with pytest.raises(DataError):
            AgeSchedule(["0"], [np.nan])
        with pytest.raises(DataError):
            AgeSchedule(["0"], [0.1], scale="weird")
        with pytest.raises(DataError, match="nonempty vector"):
            AgeSchedule([], [])
        with pytest.raises(DataError, match="nonempty vector"):
            AgeSchedule(["0"], [[0.1]])

    def test_log_transform_requires_positive_rates(self):
        with pytest.raises(DataError, match=r"non-positive rate 0.0 at \('1-4', 's2'\)"):
            ScheduleMatrix(["0", "1-4"], ["s1", "s2"], [[0.1, 0.2], [0.1, 0.0]]).to_log()
        logged = ScheduleMatrix(["0"], ["s1"], [[np.e]]).to_log()
        assert logged.scale == "log"
        assert logged.data[0, 0] == pytest.approx(1.0)
        assert logged.to_log() is logged  # a LOG matrix is returned as it is

    def test_matrix_label_shape_consistency(self):
        with pytest.raises(DataError):
            ScheduleMatrix(["a"], ["x", "y"], [[1.0], [2.0]])
        with pytest.raises(DataError, match="component length does not match group labels"):
            schedule.ComponentBasis(["a", "b"], np.ones((3, 1)), [1.0], "log")
        with pytest.raises(DataError, match="component count does not match singular values"):
            schedule.ComponentBasis(["a", "b", "c"], np.ones((3, 1)), [2.0, 1.0], "log")

    def test_column_lookup(self):
        col = X32.column("s2")
        np.testing.assert_allclose(col.values, [1.0, 1.0, 2.0])
        with pytest.raises(DataError):
            X32.column("nope")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError, match="duplicate schedule label 's1'"):
            ScheduleMatrix(["a", "b"], ["s1", "s2", "s1"], np.ones((2, 3)))
        with pytest.raises(DataError, match="duplicate age-group label 'b'"):
            ScheduleMatrix(["a", "b", "b"], ["s1"], np.ones((3, 1)))
        with pytest.raises(DataError, match="duplicate age-group label 'b'"):
            schedule.ComponentBasis(["a", "b", "b"], np.ones((3, 1)), [1.0], "log")

    def test_basis_components_are_read_only(self, rng):
        raw = rng.normal(size=(6, 3))
        b = schedule.ComponentBasis(list("abcdef"), raw, [3.0, 2.0, 1.0], "log")
        assert np.shares_memory(b.components, raw) and raw.flags.writeable  # a view, not a copy
        with pytest.raises(ValueError, match="read-only"):
            b.components[:] *= 2

    def test_column_lookup_every_label(self, rng):
        m = random_schedule_matrix(rng, n_scheds=50)
        for h, label in enumerate(m.schedule_labels):
            np.testing.assert_array_equal(m.column(label).values, m.data[:, h])


class TestBuildBasis:
    def test_single_column_matrix(self):
        a = ScheduleMatrix(["a", "b"], ["only"], [[3.0], [4.0]])
        basis = schedule.build_basis(a, 1)
        lam = basis.components[:, 0]
        assert np.linalg.norm(lam) == pytest.approx(5.0)
        direction = lam / np.linalg.norm(lam)
        target = np.array([3.0, 4.0]) / 5.0
        assert abs(direction @ target) == pytest.approx(1.0)

    def test_mortality_singular_values(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        assert basis.singular_values[0] == pytest.approx(123.8, abs=0.1)
        assert basis.singular_values[1] == pytest.approx(5.1, abs=0.05)

    def test_fertility_singular_values(self, fertility_log):
        basis = schedule.build_basis(fertility_log, 2)
        assert basis.singular_values[0] == pytest.approx(33.64, abs=0.05)
        assert basis.singular_values[1] == pytest.approx(1.76, abs=0.05)

    def test_component_count_exceeding_rank(self):
        with pytest.raises(NumericalError):
            schedule.build_basis(X32, 3)

    def test_components_are_scaled_left_vectors(self, rng):
        a = random_schedule_matrix(rng)
        basis = schedule.build_basis(a, 3)
        f = linalg.svd(a.data)
        np.testing.assert_allclose(basis.components, f.u[:, :3] * f.s[:3], atol=1e-12)
        # orthogonal after unscaling
        unscaled = basis.components / basis.singular_values
        np.testing.assert_allclose(unscaled.T @ unscaled, np.eye(3), atol=1e-8)


class TestSvdWeights:
    def test_worked_example_after_canonicalization(self):
        w = schedule.svd_weights(X32, 2)
        np.testing.assert_allclose(w[0], [0.70710678, 0.70710678], atol=1e-8)
        np.testing.assert_allclose(w[1], [0.70710678, -0.70710678], atol=1e-8)

    def test_full_rank_weights_reproduce_columns(self, rng):
        a = random_schedule_matrix(rng)
        f = linalg.svd(a.data)
        basis = schedule.build_basis(a, f.rank)
        w = schedule.svd_weights(a, f.rank)
        for h in range(len(a.schedule_labels)):
            recon = schedule.reconstruct(basis, w[h])
            np.testing.assert_allclose(
                recon.values, a.data[:, h], atol=1e-8 * np.abs(a.data[:, h]).max()
            )

    def test_mortality_weights_vary_smoothly_by_year(self, mortality_log):
        w = schedule.svd_weights(mortality_log, 2)
        adjacent = np.linalg.norm(np.diff(w, axis=0), axis=1)
        all_pairs = [
            np.linalg.norm(w[i] - w[j])
            for i in range(len(w))
            for j in range(i + 1, len(w))
        ]
        assert adjacent.max() < max(all_pairs)


class TestFitWeights:
    def test_projection_onto_complete_basis(self, rng):
        a = random_schedule_matrix(rng)
        f = linalg.svd(a.data)
        basis = schedule.build_basis(a, f.rank)
        w = schedule.svd_weights(a, f.rank)
        for h, label in enumerate(a.schedule_labels):
            fit = schedule.fit_weights(a.column(label), basis)
            np.testing.assert_allclose(fit.betas, w[h], atol=1e-8)
            assert fit.residual_norm == pytest.approx(0.0, abs=1e-8)

    def test_component_recovers_unit_weight(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        lam1 = AgeSchedule(basis.group_labels, basis.components[:, 0], basis.scale)
        fit = schedule.fit_weights(lam1, basis)
        np.testing.assert_allclose(fit.betas, [1.0, 0.0], atol=1e-10)

    def test_orthogonality_and_residual_decomposition(self, mortality_log):
        f = linalg.svd(mortality_log.data)
        basis1 = schedule.build_basis(mortality_log, 1)
        basis2 = schedule.build_basis(mortality_log, 2)
        h = 4
        col = mortality_log.column(mortality_log.schedule_labels[h])
        fit1 = schedule.fit_weights(col, basis1)
        fit2 = schedule.fit_weights(col, basis2)
        assert fit1.betas[0] == pytest.approx(fit2.betas[0], abs=1e-12)
        expected = fit2.residual_norm**2 + (f.s[1] * f.v[h, 1]) ** 2
        assert fit1.residual_norm**2 == pytest.approx(expected, rel=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        a = random_schedule_matrix(rng)
        basis = schedule.build_basis(a, 3)
        y = rng.normal(size=len(a.group_labels))
        target = AgeSchedule(a.group_labels, y)
        fit = schedule.fit_weights(target, basis)
        design = basis.components
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(fit.betas, oracle, atol=1e-10)

    def test_residual_norm_nonincreasing_in_c(self, mortality_log, rng):
        y = AgeSchedule(
            mortality_log.group_labels,
            mortality_log.data[:, 3] + 0.05 * rng.normal(size=38),
            scale="log",
        )
        norms = [
            schedule.fit_weights(y, schedule.build_basis(mortality_log, c)).residual_norm
            for c in range(1, 6)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_length_and_scale_mismatch(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        with pytest.raises(DataError):
            schedule.fit_weights(AgeSchedule(["0"], [0.1], scale="log"), basis)
        wrong_scale = AgeSchedule(
            mortality_log.group_labels, np.abs(mortality_log.data[:, 0])
        )
        with pytest.raises(DataError):
            schedule.fit_weights(wrong_scale, basis)


class TestReconstruct:
    def test_zero_weights_zero_schedule(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        out = schedule.reconstruct(basis, [0.0, 0.0])
        np.testing.assert_array_equal(out.values, np.zeros(38))
        assert out.scale == "log"

    def test_weights_row_equals_truncated_column(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        w = schedule.svd_weights(mortality_log, 2)
        smoothed = schedule.smooth_matrix(mortality_log, 2)
        recon = schedule.reconstruct(basis, w[7])
        np.testing.assert_allclose(recon.values, smoothed.data[:, 7], atol=1e-10)

    def test_three_period_exact_at_full_rank(self, three_period_log):
        basis = schedule.build_basis(three_period_log, 3)
        w = schedule.svd_weights(three_period_log, 3)
        for h in range(3):
            recon = schedule.reconstruct(basis, w[h])
            np.testing.assert_allclose(
                recon.values, three_period_log.data[:, h], atol=1e-6
            )

    def test_weight_count_mismatch(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2)
        with pytest.raises(DataError):
            schedule.reconstruct(basis, [1.0])


class TestSmoothMatrix:
    def test_identity_at_full_rank(self, rng):
        a = random_schedule_matrix(rng)
        rank = linalg.svd(a.data).rank
        out = schedule.smooth_matrix(a, rank)
        np.testing.assert_allclose(out.data, a.data, atol=1e-10)

    def test_mortality_two_component_median_error(self, mortality_log):
        smoothed = schedule.smooth_matrix(mortality_log, 2)
        median = float(np.median(np.abs(smoothed.data - mortality_log.data)))
        assert median == pytest.approx(0.065, abs=0.003)

    def test_rank_one_columns_proportional(self, rng):
        a = random_schedule_matrix(rng)
        out = schedule.smooth_matrix(a, 1)
        assert np.linalg.matrix_rank(out.data, tol=1e-10) == 1

    def test_smoothed_rank_at_most_c(self, rng):
        a = random_schedule_matrix(rng, n_groups=10, n_scheds=7)
        for c in (1, 2, 3):
            out = schedule.smooth_matrix(a, c)
            assert np.linalg.matrix_rank(out.data, tol=1e-10) <= c


class TestErrorMetrics:
    def test_identical_matrices(self, mortality_log):
        m = schedule.error_metrics(mortality_log, mortality_log)
        assert m.mae == 0.0
        np.testing.assert_array_equal(m.quantiles, np.zeros(5))

    def test_two_cell_mae(self):
        pred = ScheduleMatrix(["a"], ["x", "y"], [[0.1, 0.3]])
        obs = ScheduleMatrix(["a"], ["x", "y"], [[0.0, 0.0]])
        assert schedule.error_metrics(pred, obs).mae == pytest.approx(0.2)

    def test_mortality_two_component_table_values(self, mortality_log):
        smoothed = schedule.smooth_matrix(mortality_log, 2)
        m = schedule.error_metrics(smoothed, mortality_log)
        assert m.mae == pytest.approx(0.080, abs=0.003)
        expected = [0.0013, 0.0322, 0.0651, 0.1100, 0.3000]
        np.testing.assert_allclose(m.quantiles, expected, atol=0.003)

    def test_quantiles_nondecreasing_and_mae_bracketed(self, mortality_log):
        smoothed = schedule.smooth_matrix(mortality_log, 2)
        m = schedule.error_metrics(smoothed, mortality_log)
        assert np.all(np.diff(m.quantiles) >= 0)
        assert m.quantiles[1] <= m.mae <= m.quantiles[4]

    def test_shape_mismatch(self, mortality_log, fertility_log):
        with pytest.raises(DataError):
            schedule.error_metrics(mortality_log, fertility_log)
        with pytest.raises(DataError, match="scale mismatch: natural vs log"):
            schedule.error_metrics(replace(mortality_log, scale="natural"), mortality_log)

    @pytest.mark.parametrize("pred, obs", [
        ([[1e308, -1e308]], [[-1e308, 1e308]]),  # a difference overflows
        ([[1.5e308, 1.5e308]], [[0.0, 0.0]]),  # every difference is finite, their sum is not
    ])
    def test_overflow_is_a_numerical_error_without_warnings(self, pred, obs):
        # the suite turns warnings into errors, so a stray overflow warning fails here too
        with pytest.raises(NumericalError, match="overflow"):
            schedule.error_metrics(ScheduleMatrix(["a"], ["x", "y"], pred),
                                   ScheduleMatrix(["a"], ["x", "y"], obs))

    def test_largest_finite_errors_pass(self):
        m = schedule.error_metrics(ScheduleMatrix(["a"], ["x", "y"], [[1e308, 0.0]]),
                                   ScheduleMatrix(["a"], ["x", "y"], [[0.0, 0.0]]))
        assert m.mae == 5e307 and np.all(np.isfinite(m.quantiles))


class TestConcatSexes:
    def test_appendix_shapes(self, mortality_log):
        assert mortality_log.data.shape == (38, 19)
        assert mortality_log.group_labels[0] == "F_0"
        assert mortality_log.group_labels[19] == "M_0"

    def test_round_trip_split(self, rng):
        female = random_schedule_matrix(rng)
        male = ScheduleMatrix(
            female.group_labels,
            female.schedule_labels,
            np.exp(rng.normal(size=female.data.shape)),
        )
        both = schedule.concat_sexes(female, male)
        g = len(female.group_labels)
        np.testing.assert_array_equal(both.data[:g], female.data)
        np.testing.assert_array_equal(both.data[g:], male.data)
        assert all(lbl.startswith("F_") for lbl in both.group_labels[:g])
        assert all(lbl.startswith("M_") for lbl in both.group_labels[g:])

    def test_mismatched_year_sets_error(self, rng):
        female = random_schedule_matrix(rng)
        male = ScheduleMatrix(
            female.group_labels,
            [f"other{j}" for j in range(len(female.schedule_labels))],
            female.data,
        )
        with pytest.raises(DataError):
            schedule.concat_sexes(female, male)
        with pytest.raises(DataError, match="age-group grids differ"):
            schedule.concat_sexes(female, replace(female, group_labels=female.group_labels[::-1]))
        with pytest.raises(DataError, match="different scales"):
            schedule.concat_sexes(female, replace(female, scale="log"))


class TestCorrelationSanity:
    def test_mortality_pairwise_correlations(self, mortality_log):
        corr = np.corrcoef(mortality_log.data.T)
        off = corr[np.triu_indices_from(corr, k=1)]
        assert off.min() >= 0.90

    def test_fertility_pairwise_correlations(self, fertility_log):
        corr = np.corrcoef(fertility_log.data.T)
        off = corr[np.triu_indices_from(corr, k=1)]
        assert off.min() >= 0.99


class TestDecomposition:
    """build_basis, svd_weights and smooth_matrix read the matrix's one cached SVD."""

    def test_default_component_count_is_the_numerical_rank(self, mortality_log, rng):
        assert schedule.build_basis(mortality_log, None).c == 19
        low = ScheduleMatrix(
            list("abcdef"), list("vwxyz"), rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
        )
        assert schedule.build_basis(low, None).c == 2
        assert schedule.svd_weights(low, None).shape == (5, 2)
        ref = schedule.smooth_matrix(low, 2).data
        np.testing.assert_array_equal(schedule.smooth_matrix(low, None).data, ref)

    def test_component_count_out_of_range(self):
        zero = ScheduleMatrix(["a", "b"], ["s"], [[0.0], [0.0]])
        for fn in (schedule.build_basis, schedule.svd_weights, schedule.smooth_matrix):
            for c in (0, 3):
                message = f"requested {c} components, numerical rank is 2"
                with pytest.raises(NumericalError, match=message):
                    fn(X32, c)
            for c in (None, 1, 2):
                with pytest.raises(NumericalError, match=r"all zeros \(numerical rank 0\)$"):
                    fn(zero, c)

    def test_one_svd_and_nothing_unasked(self, mortality_log, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(linalg, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(linalg, name, counted)

        for name in ("svd", "explained_share", "reconstruct_rank"):
            spy(name)
        m = replace(mortality_log)  # a fresh matrix: the session fixture may be factored already
        schedule.build_basis(m, 2)
        schedule.svd_weights(m, 2)
        assert calls == ["svd"]
        schedule.smooth_matrix(m, 2)
        assert calls == ["svd", "reconstruct_rank"]

    def test_every_decomposition_of_a_matrix_shares_one_svd(self, rng, monkeypatch):
        calls = []
        real = linalg.svd

        def counted(x):
            calls.append(np.shape(x))
            return real(x)

        monkeypatch.setattr(linalg, "svd", counted)
        m = random_schedule_matrix(rng)
        for c in (None, 2):
            schedule.build_basis(m, c)
            schedule.svd_weights(m, c)
            schedule.smooth_matrix(m, c)
        assert calls == [(8, 5)]

    def test_replaced_data_gets_its_own_factorization(self, rng):
        m = random_schedule_matrix(rng)
        other = np.exp(rng.normal(size=m.data.shape))
        first = m.factors
        m2 = replace(m, data=other)
        basis = schedule.build_basis(m2, None)
        assert m2.factors is not first and m.factors is first
        ref = linalg.svd(other)
        for got, want in zip((m2.factors.u, m2.factors.s, m2.factors.v), (ref.u, ref.s, ref.v)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(basis.singular_values, ref.s)
        np.testing.assert_array_equal(schedule.svd_weights(m2, None), ref.v)

    def test_matrix_and_factors_are_read_only(self, rng):
        raw = np.exp(rng.normal(size=(4, 3)))
        m = ScheduleMatrix(list("abcd"), list("xyz"), raw)
        assert np.shares_memory(m.data, raw) and raw.flags.writeable  # a view, not a copy
        with pytest.raises(ValueError, match="read-only"):
            m.data[0, 0] = 1.0
        schedule.build_basis(m, None)
        f = m.factors
        for x in (f.u, f.s, f.v):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0

    def test_results_are_fresh_arrays(self, rng):
        m = random_schedule_matrix(rng)
        ref = linalg.svd(m.data)
        schedule.svd_weights(m, 2)[:] = 0.0
        schedule.build_basis(m, 2).singular_values[:] = 0.0
        np.testing.assert_array_equal(schedule.svd_weights(m, 2), ref.v[:, :2])
        np.testing.assert_array_equal(schedule.build_basis(m, 2).singular_values, ref.s[:2])
        np.testing.assert_array_equal(m.factors.s, ref.s)


def _within(actual, expected, tol=1e-13):
    expected = np.asarray(expected)
    bound = tol * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(np.asarray(actual) - expected) <= bound)


class TestWholeMatrixFit:
    def test_agrees_with_per_column_fit_weights(self, mortality_log, rng):
        for c in (1, 2, 5):
            basis = schedule.build_basis(mortality_log, c)
            noisy = ScheduleMatrix(
                mortality_log.group_labels, mortality_log.schedule_labels,
                mortality_log.data + rng.normal(0.0, 0.05, mortality_log.data.shape), "log",
            )
            betas, norms = schedule.fit_matrix(noisy, basis)
            assert betas.shape == (19, c) and norms.shape == (19,)
            for h, label in enumerate(noisy.schedule_labels):
                fit = schedule.fit_weights(noisy.column(label), basis)
                _within(betas[h], fit.betas)
                _within(norms[h], fit.residual_norm)

    def test_group_count_and_scale_are_checked(self, mortality_log, fertility_log):
        basis = schedule.build_basis(mortality_log, 2)
        with pytest.raises(DataError, match="schedule has 7 groups, basis has 38"):
            schedule.fit_matrix(fertility_log, basis)
        natural = ScheduleMatrix(
            mortality_log.group_labels, mortality_log.schedule_labels, mortality_log.data
        )
        with pytest.raises(DataError, match="scale mismatch"):
            schedule.fit_matrix(natural, basis)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_residual_norms_at_extreme_magnitudes(self, mortality_log, scale):
        # the squared residuals of rates near 1e200 overflow, and near 1e-200 underflow
        natural = ScheduleMatrix(
            mortality_log.group_labels, mortality_log.schedule_labels, np.exp(mortality_log.data)
        )
        basis = schedule.build_basis(natural, 2)
        ref = schedule.fit_matrix(natural, basis)[1]
        scaled = replace(natural, data=natural.data * scale)
        np.testing.assert_allclose(schedule.fit_matrix(scaled, basis)[1], ref * scale, rtol=1e-12)
        for h, label in enumerate(scaled.schedule_labels):
            fit = schedule.fit_weights(scaled.column(label), basis)
            assert fit.residual_norm == pytest.approx(ref[h] * scale, rel=1e-12, abs=0.0)

    def test_columns_far_apart_in_magnitude_are_each_fitted_as_alone(self, mortality_log):
        # one power of two for the whole matrix would take the 1e-250 column to 1e-350, or 0
        natural = ScheduleMatrix(
            mortality_log.group_labels, mortality_log.schedule_labels, np.exp(mortality_log.data)
        )
        basis = schedule.build_basis(natural, 2)
        mixed = replace(natural, data=natural.data[:, :2] * [1e100, 1e-250],
                        schedule_labels=natural.schedule_labels[:2])
        betas, norms = schedule.fit_matrix(mixed, basis)
        ref_betas, ref_norms = schedule.fit_matrix(replace(mixed, data=natural.data[:, :2]), basis)
        for h, (label, scale) in enumerate(zip(mixed.schedule_labels, [1e100, 1e-250])):
            fit = schedule.fit_weights(mixed.column(label), basis)
            np.testing.assert_allclose(betas[h], fit.betas, rtol=1e-12, atol=0.0)
            assert norms[h] == pytest.approx(fit.residual_norm, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(betas[h], ref_betas[h] * scale, rtol=1e-12, atol=0.0)
            assert norms[h] == pytest.approx(ref_norms[h] * scale, rel=1e-12, abs=0.0)

    def test_weights_that_overflow_are_an_error(self, mortality_log):
        # rates near 1e308 on components of norm near 1e-10 give weights beyond the float range
        natural = ScheduleMatrix(
            mortality_log.group_labels, mortality_log.schedule_labels, np.exp(mortality_log.data)
        )
        basis = schedule.build_basis(natural, 2)
        small = schedule.ComponentBasis(
            basis.group_labels, basis.components * 1e-10, basis.singular_values, basis.scale
        )
        big = replace(natural, data=natural.data * 1e308)
        with pytest.raises(NumericalError, match="fitted weights or residuals overflow float64"):
            schedule.fit_matrix(big, small)  # with warnings as errors: no warning either
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="fitted weights or residuals overflow"):
                schedule.fit_weights(big.column(big.schedule_labels[0]), small)

    def test_weights_near_the_float_ceiling_match_the_whole_matrix_fit(self):
        # the products y'comp of cells up to 1.7e308 overflow float64, the weights do not
        cells = np.random.default_rng(0).uniform(1.0, 1.7, size=(6, 5))
        basis = schedule.build_basis(ScheduleMatrix(list("uvwxyz"), list("abcde"), cells), 2)
        big = ScheduleMatrix(list("uvwxyz"), list("abcde"), cells * 1e308)
        betas, norms = schedule.fit_matrix(big, basis)
        assert np.isfinite(betas).all() and np.isfinite(norms).all()
        for h, label in enumerate(big.schedule_labels):
            with pytest.warns(RuntimeWarning, match="overflow"):  # the first projection's
                fit = schedule.fit_weights(big.column(label), basis)
            np.testing.assert_allclose(fit.betas, betas[h], rtol=1e-12, atol=0.0)
            assert fit.residual_norm == pytest.approx(norms[h], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("last", [1.0, 1.5])
    def test_a_residual_norm_past_the_float_maximum_is_an_error(self, last):
        # the residual of +-1.7e308 cells is finite or, on the 1.5 basis, overflows;
        # its 2-norm does not fit a float either way
        ones = ScheduleMatrix(list("abcd"), ["x"], [[1.0], [1.0], [1.0], [last]])
        basis = schedule.build_basis(ones, 1)
        big = ScheduleMatrix(list("abcd"), ["x"], [[1.7e308], [-1.7e308], [1.7e308], [-1.7e308]])
        with pytest.raises(NumericalError, match="fitted weights or residuals overflow float64"):
            schedule.fit_matrix(big, basis)  # with warnings as errors: no warning either
        with np.errstate(over="ignore"):  # the first projection's residual overflows on 1.5
            with pytest.raises(NumericalError, match="fitted weights or residuals overflow"):
                schedule.fit_weights(big.column("x"), basis)

    @pytest.mark.parametrize("scale", [1e-310, 1e-318])
    def test_subnormal_schedules_match_the_whole_matrix_fit(self, data_dir, scale):
        # y . c of subnormal rates loses bits, and the residual's sum of squares
        # is below 2**-512 (a finite 0 at 1e-318), so fit_weights fits as fit_matrix
        female = load_schedule_csv(data_dir / "agincourt_mx_female.csv")
        tiny = replace(female, data=female.data * scale)
        basis = schedule.build_basis(tiny, 2)
        betas, norms = schedule.fit_matrix(tiny, basis)
        for h, label in enumerate(tiny.schedule_labels):
            fit = schedule.fit_weights(tiny.column(label), basis)
            np.testing.assert_allclose(fit.betas, betas[h], rtol=1e-13, atol=0.0)
            assert fit.residual_norm == pytest.approx(norms[h], rel=1e-13, abs=0.0)

    def test_an_exact_fit_in_range_keeps_the_bits_of_project(self, mortality_log):
        # a zero residual's sum of squares is below 2**-512, but a y in range
        # keeps project's betas and is not fitted again
        exact = ScheduleMatrix(["a", "b", "c"], ["s1", "s2"], [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        for basis in (schedule.build_basis(exact, 2), schedule.build_basis(mortality_log, 2)):
            c = basis.components
            for y in (np.zeros(len(c)), 3 * c[:, 0] + c[:, 1]):
                fit = schedule.fit_weights(AgeSchedule(basis.group_labels, y, basis.scale), basis)
                assert np.array_equal(fit.betas, basis.project(y, basis.scale))
                residual = y - c @ fit.betas
                assert fit.residual_norm == np.sqrt(np.vdot(residual, residual))

    @pytest.mark.parametrize("factor", [1e-200, 1e-160, 1e200, 1e300])
    def test_a_component_whose_squared_norm_is_out_of_range_projects(
        self, mortality_log, factor
    ):
        # the squared norm is 0, subnormal (1e-160) or inf as a float; the
        # component is projected on prescaled, so its weights are the
        # unscaled ones over the factor
        basis = schedule.build_basis(mortality_log, 2)
        components = basis.components * [1.0, factor]
        scaled = schedule.ComponentBasis(
            basis.group_labels, components, basis.singular_values, basis.scale
        )
        np.testing.assert_array_equal(scaled.components, components)
        ref_betas, ref_norms = schedule.fit_matrix(mortality_log, basis)
        betas, norms = schedule.fit_matrix(mortality_log, scaled)
        assert np.isfinite(betas).all() and np.isfinite(norms).all()
        np.testing.assert_array_equal(betas[:, 0], ref_betas[:, 0])
        np.testing.assert_allclose(betas[:, 1], ref_betas[:, 1] / factor, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0.0)
        for h, label in enumerate(mortality_log.schedule_labels):
            fit = schedule.fit_weights(mortality_log.column(label), scaled)
            np.testing.assert_allclose(fit.betas, betas[h], rtol=1e-13, atol=0.0)
            assert fit.residual_norm == pytest.approx(norms[h], rel=1e-13, abs=0.0)

    def test_reconstruct_matrix_matches_per_column_reconstruct(self, mortality_log, rng):
        basis = schedule.build_basis(mortality_log, 3)
        w = rng.normal(size=(4, 3))
        out = schedule.reconstruct_matrix(basis, list("abcd"), w)
        assert out.schedule_labels == tuple("abcd") and out.scale == "log"
        for h in range(4):
            _within(out.data[:, h], schedule.reconstruct(basis, w[h]).values)
        with pytest.raises(DataError, match="weights have 2 components, basis has 3"):
            schedule.reconstruct_matrix(basis, list("abcd"), w[:, :2])
