import ast
from pathlib import Path

import numpy as np
import pytest

from agecomp import linalg, schedule
from agecomp.errors import DataError, NumericalError
from agecomp.schedule import ScheduleMatrix

X32 = np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]])


def random_matrix(rng, max_side=50):
    shape = rng.integers(2, max_side + 1, size=2)
    return rng.normal(size=shape)


class TestSvd:
    def test_worked_3x2_example(self):
        f = linalg.svd(X32)
        np.testing.assert_allclose(f.s, [np.sqrt(11.0), 1.0], atol=1e-10)
        # canonical signs: column sums of v positive (second column tie-broken)
        np.testing.assert_allclose(f.v[:, 0], [0.70710678, 0.70710678], atol=1e-8)
        np.testing.assert_allclose(f.u[:, 0], [0.6396021, 0.4264014, 0.6396021], atol=1e-6)
        # second component up to the documented tie-break
        np.testing.assert_allclose(f.v[:, 1], [0.70710678, -0.70710678], atol=1e-8)
        np.testing.assert_allclose(np.abs(f.u[:, 1]), [0.70710678, 0.0, 0.70710678], atol=1e-8)

    def test_diagonal_matrix(self):
        f = linalg.svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(f.s, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(f.v), np.eye(2), atol=1e-12)

    def test_zero_matrix_has_rank_zero(self):
        f = linalg.svd(np.zeros((2, 2)))
        assert f.rank == 0
        assert f.s.size == 0
        assert f.u.shape == (2, 0) and f.v.shape == (2, 0)

    def test_reconstruction_oracle_random(self, rng):
        x = rng.normal(size=(5, 4))
        f = linalg.svd(x)
        np.testing.assert_allclose((f.u * f.s) @ f.v.T, x, atol=1e-10)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DataError):
            linalg.svd(np.empty((0, 3)))
        with pytest.raises(DataError):
            linalg.svd([[1.0, np.nan]])
        with pytest.raises(DataError):
            linalg.svd([[np.inf, 1.0]])

    def test_orthonormality_and_roundtrip_properties(self, rng):
        for _ in range(12):
            x = random_matrix(rng, max_side=24)
            f = linalg.svd(x)
            if f.rank == 0:
                continue
            eye = np.eye(f.rank)
            assert np.abs(f.u.T @ f.u - eye).max() < 1e-10
            assert np.abs(f.v.T @ f.v - eye).max() < 1e-10
            rel = float(np.sqrt(((x - linalg.reconstruct_rank(f, f.rank)) ** 2).sum()))
            assert rel / np.linalg.norm(x) < 1e-8
            assert np.all(np.diff(f.s) <= 1e-15)
            assert np.all(f.s > 0)

    def test_roundtrip_50x50(self, rng):
        x = rng.normal(size=(50, 50))
        f = linalg.svd(x)
        rel = float(np.sqrt(((x - linalg.reconstruct_rank(f, f.rank)) ** 2).sum()))
        assert rel / np.linalg.norm(x) < 1e-8

    def test_pca_equivalence_with_eigen_oracle(self, rng):
        # right singular vectors of centered data = Gram eigenvectors (up to sign)
        x = rng.normal(size=(20, 3)) * [1.0, 2.5, 0.5] + [4.0, -1.0, 2.0]
        c = (x - x.mean(axis=0)) / np.sqrt(x.shape[0] - 1)
        f = linalg.svd(c)
        eigvals, eigvecs = np.linalg.eigh(c.T @ c)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        for i in range(f.rank):
            dot = abs(eigvecs[:, i] @ f.v[:, i])
            assert dot == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(f.s, np.sqrt(np.clip(eigvals[: f.rank], 0, None)), rtol=1e-8)

    def test_deterministic(self, rng):
        x = rng.normal(size=(7, 5))
        f1 = linalg.svd(x)
        linalg._svd.cache_clear()  # factorize again, not answer from the kept result
        f2 = linalg.svd(x)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.s, f2.s)
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_rank_deficient_input(self, rng):
        x = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 8))
        f = linalg.svd(x)
        assert f.rank == 3
        np.testing.assert_allclose((f.u * f.s) @ f.v.T, x, atol=1e-10)

    def test_extreme_scales_keep_rank_and_relative_spectrum(self, rng):
        x = rng.normal(size=(6, 4))
        f = linalg.svd(x)
        for scale in (1e200, 1e-200):
            g = linalg.svd(x * scale)
            assert g.rank == f.rank == 4, scale
            np.testing.assert_allclose(g.s / g.s[0], f.s / f.s[0], rtol=1e-12)

    def test_cutoff_of_a_finite_spectrum_near_the_float_limit(self):
        # max(K, L) * s1 overflows here; the cutoff must not, nor warn
        f = linalg.svd([[1e308, 1e308], [1e308, -1e308]])
        assert f.rank == 2
        np.testing.assert_allclose(f.s, [np.sqrt(2) * 1e308] * 2, rtol=1e-15)

    def test_an_infinite_largest_singular_value_is_named(self):
        x = 1.7e308 * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])
        with pytest.raises(NumericalError, match="overflow"):
            linalg.svd(x)


class TestSvdCache:
    """``svd`` keeps its last result, keyed on the input's shape and bits."""

    @pytest.fixture()
    def lapack_calls(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @staticmethod
    def assert_same_factors(f, g):
        for a, b in ((f.u, g.u), (f.s, g.s), (f.v, g.v)):
            np.testing.assert_array_equal(a, b)

    def test_explained_shares_then_a_basis_factorize_once(self, rng, lapack_calls):
        x = rng.normal(size=(9, 6))
        f = linalg.svd(x)
        m = ScheduleMatrix([f"a{i}" for i in range(9)], [f"t{j}" for j in range(6)], x)
        basis = schedule.build_basis(m, 2)
        assert len(lapack_calls) == 1
        assert m.factors is f
        linalg._svd.cache_clear()
        fresh = linalg.svd(x)
        assert len(lapack_calls) == 2
        self.assert_same_factors(f, fresh)
        np.testing.assert_array_equal(basis.components, fresh.u[:, :2] * fresh.s[:2])

    def test_only_the_last_input_is_kept(self, rng, lapack_calls):
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        linalg.svd(a)
        linalg.svd(b)
        linalg.svd(a)
        assert len(lapack_calls) == 3

    def test_a_negative_zero_is_a_miss(self, lapack_calls):
        x = np.array([[1.0, 0.0], [2.0, 3.0]])
        linalg.svd(x)
        y = x.copy()
        y[0, 1] = -0.0
        linalg.svd(y)
        assert len(lapack_calls) == 2

    def test_writing_to_the_input_after_the_call_is_a_miss(self, rng, lapack_calls):
        x = rng.normal(size=(5, 4))
        f = linalg.svd(x)
        x[2, 1] += 1.0
        g = linalg.svd(x)
        assert len(lapack_calls) == 2
        assert not np.array_equal(f.s, g.s)

    def test_a_fortran_order_copy_is_a_hit_with_the_same_bits(self, rng, lapack_calls):
        x = rng.normal(size=(8, 5))
        fortran = np.asfortranarray(x)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        f = linalg.svd(fortran)
        assert linalg.svd(x) is f
        assert len(lapack_calls) == 1
        linalg._svd.cache_clear()
        self.assert_same_factors(f, linalg.svd(x))

    def test_the_same_bits_in_another_shape_are_a_miss(self, rng, lapack_calls):
        x = rng.normal(size=(4, 6))
        linalg.svd(x)
        linalg.svd(x.reshape(6, 4))
        assert lapack_calls == [(4, 6), (6, 4)]

    def test_factors_are_read_only(self, rng):
        f = linalg.svd(rng.normal(size=(5, 4)))
        for factor in (f.u, f.s, f.v):
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 1.0

    def test_a_lapack_failure_is_raised_on_every_call(self, monkeypatch):
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(1)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        for _ in range(2):
            with pytest.raises(NumericalError, match="SVD failed"):
                linalg.svd(X32)
        assert len(calls) == 2


def _earlier_svd(x):
    """An earlier form of ``linalg.svd``'s post-processing, written out: a
    boolean keep mask, the first-nonzero tie-break built on every call, and
    s times 2**p even when p is 0, on LAPACK's SVD of the same prescaled x."""
    a, p = linalg.prescale(np.asarray(x, dtype=float))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > s[0] * (max(a.shape) * linalg.RANK_RTOL)
    s = np.ldexp(s, p)
    u, s, v = u[:, keep], s[keep], vt[keep].T
    total = v.sum(axis=0)
    first = v[(v != 0).argmax(axis=0), np.arange(s.size)]
    sign = np.where(np.where(np.abs(total) <= 1e-12, first, total) < 0, -1.0, 1.0)
    return np.multiply(u, sign, order="C"), s.copy(), np.multiply(v, sign, order="C")


def _tie_matrix():
    """diag(s) v' of the hand-built tie in ``TestCanonicalizeSigns``'s
    ``test_tie_break_makes_first_nonzero_positive``: v_1's entries sum to zero."""
    v = np.array([[-0.70710678, 0.5], [0.70710678, 0.5]])
    return np.diag([2.0, 1.0]) @ v.T


def _seeded(shape):
    return np.random.default_rng(sum(shape)).normal(size=shape)


_DIFFERENTIAL_INPUTS = {
    "tall": _seeded((30, 8)),
    "wide": _seeded((7, 40)),
    "square": _seeded((20, 20)),
    "rank-deficient": _seeded((12, 3)) @ _seeded((3, 9)),
    "tie": _tie_matrix(),
    "worked-3x2": X32,
}


class TestSvdMatchesAnEarlierPostProcessing:
    """u, s and v bit for bit as :func:`_earlier_svd` makes them from the
    same LAPACK factors, whatever the BLAS build gives for those."""

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    @pytest.mark.parametrize("name", list(_DIFFERENTIAL_INPUTS))
    def test_factors_are_bit_identical(self, name, exponent):
        x = np.ldexp(_DIFFERENTIAL_INPUTS[name], exponent)
        f = linalg.svd(x)
        for got, want in zip((f.u, f.s, f.v), _earlier_svd(x)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable

    def test_the_inputs_reach_the_cutoff_and_the_tie_break(self):
        cases = {name: np.linalg.svd(x, full_matrices=False)
                 for name, x in _DIFFERENTIAL_INPUTS.items()}
        _, s, _ = cases["rank-deficient"]
        assert s[-1] < s[0] * (12 * linalg.RANK_RTOL) < s[2]
        _, _, vt = cases["tie"]
        assert abs(vt[0].sum()) <= 1e-12
        assert linalg.svd(_tie_matrix()).rank == 2


class TestCanonicalizeSigns:
    def test_idempotent(self, rng):
        f = linalg.svd(rng.normal(size=(6, 4)))
        again = linalg.canonicalize_signs(f)
        np.testing.assert_array_equal(again.u, f.u)
        np.testing.assert_array_equal(again.v, f.v)

    def test_flips_the_handworked_signs(self):
        # the hand-worked factors point v1 negative; canonical form negates both
        u = np.array([[-0.6396021, -0.70710678], [-0.4264014, 0.0], [-0.6396021, 0.70710678]])
        v = np.array([[-0.70710678, -0.70710678], [-0.70710678, 0.70710678]])
        s = np.array([np.sqrt(11.0), 1.0])
        canon = linalg.canonicalize_signs(linalg.SvdFactorization(u=u, s=s, v=v))
        np.testing.assert_allclose(canon.v[:, 0], [0.70710678, 0.70710678], atol=1e-8)
        np.testing.assert_allclose(canon.u[:, 0], [0.6396021, 0.4264014, 0.6396021], atol=1e-7)
        # reconstruction unchanged
        np.testing.assert_allclose(
            (canon.u * canon.s) @ canon.v.T, (u * s) @ v.T, atol=1e-12
        )

    def test_mortality_first_component_is_negative(self, mortality_log):
        f = linalg.svd(mortality_log.data)
        assert np.all(f.s[0] * f.u[:, 0] < 0)

    def test_tie_break_makes_first_nonzero_positive(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[-0.70710678, 0.5], [0.70710678, 0.5]])
        s = np.array([2.0, 1.0])
        canon = linalg.canonicalize_signs(linalg.SvdFactorization(u=u, s=s, v=v))
        assert canon.v[0, 0] > 0


class TestReconstructRank:
    def test_rank1_of_worked_example(self):
        f = linalg.svd(X32)
        rank1 = linalg.reconstruct_rank(f, 1)
        np.testing.assert_allclose(rank1[:, 0], [1.5, 1.0, 1.5], atol=1e-10)

    def test_full_rank_is_exact(self, rng):
        x = rng.normal(size=(6, 5))
        f = linalg.svd(x)
        np.testing.assert_allclose(linalg.reconstruct_rank(f, f.rank), x, atol=1e-10)

    def test_k_out_of_range(self):
        f = linalg.svd(X32)
        for bad in (0, 3, -1):
            with pytest.raises(NumericalError):
                linalg.reconstruct_rank(f, bad)

    def test_truncation_residual_equals_dropped_singular_value(self):
        f = linalg.svd(X32)
        err = float(np.sqrt(((X32 - linalg.reconstruct_rank(f, 1)) ** 2).sum()))
        assert err == pytest.approx(float(f.s[1]), abs=1e-10)

    def test_eym_optimality_sampled(self, rng):
        # truncation must beat hundreds of random same-rank candidates
        x = rng.normal(size=(6, 5))
        f = linalg.svd(x)
        for k in range(1, f.rank):
            best = float(np.sqrt(((x - linalg.reconstruct_rank(f, k)) ** 2).sum()))
            for _ in range(200):
                cand = rng.normal(size=(6, k)) @ rng.normal(size=(k, 5))
                # include the optimal rescaling of the candidate
                scale = np.sum(x * cand) / max(np.sum(cand * cand), 1e-300)
                assert best <= float(np.sqrt(((x - cand) ** 2).sum())) + 1e-12
                assert best <= float(np.sqrt(((x - scale * cand) ** 2).sum())) + 1e-12

    def test_residual_nonincreasing_in_k(self, rng):
        x = rng.normal(size=(6, 5))
        f = linalg.svd(x)
        errs = [
            float(np.sqrt(((x - linalg.reconstruct_rank(f, k)) ** 2).sum()))
            for k in range(1, f.rank + 1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_truncation_residual_identity(self, rng):
        for _ in range(8):
            x = random_matrix(rng, max_side=16)
            f = linalg.svd(x)
            for k in range(1, f.rank + 1):
                resid2 = float(np.sqrt(((x - linalg.reconstruct_rank(f, k)) ** 2).sum())) ** 2
                tail = float((f.s[k:] ** 2).sum())
                assert resid2 == pytest.approx(tail, rel=1e-8, abs=1e-12)


class TestExplainedShare:
    def test_worked_example_shares(self):
        shares = linalg.explained_share(linalg.svd(X32))
        np.testing.assert_allclose(shares, [11.0 / 12.0, 1.0 / 12.0], atol=1e-12)

    def test_single_column(self):
        shares = linalg.explained_share(linalg.svd([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(shares, [1.0], atol=1e-15)

    def test_mortality_shares(self, mortality_log):
        shares = linalg.explained_share(linalg.svd(mortality_log.data))
        # values as computed from the five-decimal fixture; the published
        # one-significant-figure rounding of the second entry is 0.2%
        assert shares[0] == pytest.approx(0.998, abs=5e-4)
        assert shares[1] == pytest.approx(0.00167, abs=5e-5)
        assert shares[2] == pytest.approx(0.000178, abs=5e-6)
        assert shares[3] == pytest.approx(0.0000877, abs=5e-6)

    def test_properties(self, rng):
        f = linalg.svd(rng.normal(size=(9, 6)))
        shares = linalg.explained_share(f)
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(shares) <= 1e-15)

    def test_rank_zero_errors(self):
        with pytest.raises(NumericalError):
            linalg.explained_share(linalg.svd(np.zeros((2, 2))))


class TestRootSumSquares:
    def test_in_range_results_are_the_plain_square_root(self, rng):
        x = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-150, 150, size=5)
        sumsq = np.einsum("ij,ij->j", x, x)
        got = linalg.root_sum_squares(x, sumsq, axis=0)
        assert got.tobytes() == np.sqrt(sumsq).tobytes()
        assert linalg.root_sum_squares(x[:, 0], x[:, 0] @ x[:, 0]) == np.sqrt(x[:, 0] @ x[:, 0])

    def test_only_out_of_range_columns_are_rescaled(self):
        x = np.array([[3e200, 3.0, 3e-200, 0.0], [4e200, 4.0, 4e-200, 0.0]])
        with np.errstate(over="ignore"):
            sumsq = np.einsum("ij,ij->j", x, x)
        got = linalg.root_sum_squares(x, sumsq, axis=0)
        np.testing.assert_allclose(got, [5e200, 5.0, 5e-200, 0.0], rtol=1e-15)
        assert got[1] == 5.0 and got[3] == 0.0

    @pytest.mark.parametrize("scale", [1e-160, 3e-162, 1e-155 * 2**-20])
    def test_subnormal_sums_are_rescaled(self, scale):
        # the squares land below the smallest normal float, where they keep few bits
        x = np.array([[3.0 * scale, 3.0], [4.0 * scale, 4.0]])
        sumsq = np.einsum("ij,ij->j", x, x)
        assert 0.0 < sumsq[0] < np.finfo(float).tiny
        got = linalg.root_sum_squares(x, sumsq, axis=0)
        assert got[0] == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0) and got[1] == 5.0
        assert linalg.root_sum_squares(x[:, 0], x[:, 0] @ x[:, 0]) == pytest.approx(
            5.0 * scale, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_out_of_the_float_range(self, scale):
        # the 1-D residual norm of fit_weights: the squares overflow (1e200) or
        # underflow (1e-200); run with warnings as errors
        diff = np.array([3.0 * scale, 0.0]) - np.array([0.0, -4.0 * scale])
        with np.errstate(over="ignore", under="ignore"):
            sumsq = diff @ diff
        assert linalg.root_sum_squares(diff, sumsq) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_a_sum_below_2_to_the_minus_512_is_recomputed(self):
        # x lies off the range, with the exact norm 5 * 2**-300; the sum passed
        # differs from x's own, so the result shows which path ran
        x = np.ldexp([3.0, 4.0], -300)
        bound = np.float64(2.0**-512)
        above, below = np.nextafter(bound, 1.0), np.nextafter(bound, 0.0)
        for sumsq in (above, bound):
            assert linalg.root_sum_squares(x, sumsq) == np.sqrt(sumsq)
        assert linalg.root_sum_squares(x, below) == np.ldexp(5.0, -300)
        got = linalg.root_sum_squares(np.column_stack([x, x]), np.array([above, below]), axis=0)
        assert got.tolist() == [np.sqrt(above), np.ldexp(5.0, -300)]

    def test_identical_inputs_have_a_zero_norm(self):
        # a zero sum lies below 2**-512, so it takes the prescale path, which keeps it 0
        zero = X32 - X32
        flat = zero.ravel()
        assert linalg.root_sum_squares(flat, flat @ flat) == 0.0
        got = linalg.root_sum_squares(zero, np.einsum("ij,ij->j", zero, zero), axis=0)
        assert got.tolist() == [0.0, 0.0]

    def test_prescale_returns_in_range_input_as_is_and_scales_each_off_range_column(self):
        x = np.array([[3e200, 3.0, 3e-170, 0.0], [4e200, 4.0, 4e-170, 0.0]])
        y, p = linalg.prescale(x, axis=0)
        np.testing.assert_array_equal(p, [np.frexp(4e200)[1], 0, np.frexp(4e-170)[1], 0])
        assert y.tobytes() == np.ldexp(x, -p).tobytes()
        # each off-range column's maximum is its mantissa, in [0.5, 1)
        np.testing.assert_array_equal(
            np.abs(y).max(axis=0), [np.frexp(4e200)[0], 4.0, np.frexp(4e-170)[0], 0.0])
        inside = x[:, [1, 3]]
        y, p = linalg.prescale(inside, axis=0)
        assert y is inside and p.tolist() == [0, 0]
        column = x[:, 1]
        assert linalg.prescale(column) == (column, 0)
        # only a binary exponent outside +-256 prescales
        for value, power in [(2.0**255, 0), (2.0**256, 257), (2.0**-257, 0), (2.0**-258, -257)]:
            y, p = linalg.prescale(np.array([value, -0.75 * value]))
            assert p == power and type(p) is int
            assert y.tolist() == [value * 2.0**-power, -0.75 * value * 2.0**-power]

    def test_a_norm_past_the_float_maximum_is_inf_without_a_warning(self):
        # run with warnings as errors: 2 * 1.7e308, and the squares of a column
        # whose sum is inf and is kept, overflow
        x = np.array([[1.7e308, 1.7e308], [-1.7e308, np.inf], [1.7e308, 1.0], [-1.7e308, 1.0]])
        with np.errstate(over="ignore"):
            sumsq = np.einsum("ij,ij->j", x, x)
        np.testing.assert_array_equal(linalg.root_sum_squares(x, sumsq, axis=0), [np.inf, np.inf])
        assert linalg.root_sum_squares(x[:, 0], sumsq[0]) == np.inf
        # an inf maximum has p = 0, and its column comes back untouched
        y, p = linalg.prescale(x, axis=0)
        assert p.tolist() == [1024, 0]
        np.testing.assert_array_equal(y, np.column_stack([np.ldexp(x[:, 0], -1024), x[:, 1]]))
        column = x[:, 1]
        assert linalg.prescale(column) == (column, 0)


_RANGE_NAMES = {"frexp", "finfo"}


def _exponent_takers(tree):
    """Lines of every use of a name or attribute ``frexp`` or ``finfo`` in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if _RANGE_NAMES & {getattr(node, "id", None), getattr(node, "attr", None)})


def test_linalg_is_the_only_module_that_takes_binary_exponents():
    # every off-range rescale, and every test of the float range, goes
    # through linalg.prescale, the one rule
    src = Path(linalg.__file__).parent
    takers = {path.name for path in sorted(src.glob("*.py"))
              if _exponent_takers(ast.parse(path.read_text(encoding="utf-8")))}
    assert takers == {"linalg.py"}


def test_the_exponent_guard_finds_every_kind_of_frexp_and_finfo():
    code = ('import math\nfrom math import frexp\n\n\ndef f(x):\n    """frexp finfo"""\n'
            "    math.frexp(x)\n    np.frexp(x)\n    frexp(x)\n"
            "    np.finfo(float).tiny\n    finfo(x)\n")
    assert _exponent_takers(ast.parse(code)) == [7, 8, 9, 10, 11]


def _canonicalize_by_component(f):
    """Reference: each (u_i, v_i) pair decided and flipped on its own."""
    u, v = f.u.copy(), f.v.copy()
    for i in range(f.rank):
        total = v[:, i].sum()
        if abs(total) <= 1e-12:
            nz = np.nonzero(v[:, i])[0]
            flip = nz.size > 0 and v[nz[0], i] < 0
        else:
            flip = total < 0
        if flip:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    return u, v


class TestVectorisedSigns:
    def _check(self, f):
        canon = linalg.canonicalize_signs(f)
        ref_u, ref_v = _canonicalize_by_component(f)
        np.testing.assert_array_equal(canon.u, ref_u)
        np.testing.assert_array_equal(canon.v, ref_v)
        np.testing.assert_array_equal(canon.s, f.s)
        assert canon.u.flags.c_contiguous and canon.v.flags.c_contiguous
        return canon

    def test_matches_per_component_loop_on_raw_lapack_factors(self, rng):
        for shape in ((6, 4), (4, 9), (38, 19)):
            u, s, vt = np.linalg.svd(rng.normal(size=shape), full_matrices=False)
            # vt.T is F-ordered, as linalg.svd hands it over
            self._check(linalg.SvdFactorization(u=u, s=s, v=vt.T))
            self._check(linalg.SvdFactorization(u=-u, s=s, v=-vt.T))

    def test_zero_sum_columns_follow_their_first_nonzero_entry(self):
        v = np.array([[0.0, 0.0, 0.0, 0.5], [-0.5, 0.5, 0.0, 0.5], [0.5, -0.5, 0.0, -1.0]])
        u = np.arange(12.0).reshape(3, 4) + 1.0
        canon = self._check(linalg.SvdFactorization(u=u, s=np.ones(4), v=v))
        # column 0 starts negative and flips; 1 starts positive; 2 is all zero;
        # column 3 sums to exactly zero and starts positive
        np.testing.assert_array_equal(canon.v[:, 0], [0.0, 0.5, -0.5])
        np.testing.assert_array_equal(canon.v[:, 1:], v[:, 1:])
        np.testing.assert_array_equal(canon.u[:, 0], -u[:, 0])

    def test_rank_zero(self):
        f = linalg.svd(np.zeros((3, 2)))
        assert f.rank == 0
        self._check(f)
