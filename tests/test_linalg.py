import numpy as np
import pytest

from agecomp import linalg
from agecomp.errors import DataError, NumericalError

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
            rel = linalg.frobenius_residual(x, linalg.reconstruct_rank(f, f.rank))
            assert rel / np.linalg.norm(x) < 1e-8
            assert np.all(np.diff(f.s) <= 1e-15)
            assert np.all(f.s > 0)

    def test_roundtrip_50x50(self, rng):
        x = rng.normal(size=(50, 50))
        f = linalg.svd(x)
        rel = linalg.frobenius_residual(x, linalg.reconstruct_rank(f, f.rank))
        assert rel / np.linalg.norm(x) < 1e-8

    def test_deterministic(self, rng):
        x = rng.normal(size=(7, 5))
        f1, f2 = linalg.svd(x), linalg.svd(x)
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

    def test_eym_optimality_sampled(self, rng):
        # truncation must beat hundreds of random same-rank candidates
        x = rng.normal(size=(6, 5))
        f = linalg.svd(x)
        for k in range(1, f.rank):
            best = linalg.frobenius_residual(x, linalg.reconstruct_rank(f, k))
            for _ in range(200):
                cand = rng.normal(size=(6, k)) @ rng.normal(size=(k, 5))
                # include the optimal rescaling of the candidate
                scale = np.sum(x * cand) / max(np.sum(cand * cand), 1e-300)
                assert best <= linalg.frobenius_residual(x, cand) + 1e-12
                assert best <= linalg.frobenius_residual(x, scale * cand) + 1e-12

    def test_residual_nonincreasing_in_k(self, rng):
        x = rng.normal(size=(6, 5))
        f = linalg.svd(x)
        errs = [
            linalg.frobenius_residual(x, linalg.reconstruct_rank(f, k))
            for k in range(1, f.rank + 1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_truncation_residual_identity(self, rng):
        for _ in range(8):
            x = random_matrix(rng, max_side=16)
            f = linalg.svd(x)
            for k in range(1, f.rank + 1):
                resid2 = linalg.frobenius_residual(x, linalg.reconstruct_rank(f, k)) ** 2
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


class TestCenterColumns:
    def test_two_point_column(self):
        np.testing.assert_allclose(
            linalg.center_columns(np.array([[1.0], [3.0]])), [[-1.0], [1.0]]
        )

    def test_already_centered_unchanged(self, rng):
        x = rng.normal(size=(10, 3))
        x -= x.mean(axis=0)
        np.testing.assert_allclose(linalg.center_columns(x), x, atol=1e-12)

    def test_normalize_gives_unit_columns(self, rng):
        x = rng.normal(size=(12, 4))
        c = linalg.center_columns(x, normalize=True)
        np.testing.assert_allclose(np.linalg.norm(c, axis=0), np.ones(4), atol=1e-12)

    def test_zero_variance_column_errors_under_normalize(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DataError):
            linalg.center_columns(x, normalize=True)
        linalg.center_columns(x)  # fine without normalize

    def test_pca_equivalence_with_eigen_oracle(self, rng):
        # right singular vectors of centered data = Gram eigenvectors (up to sign)
        x = rng.normal(size=(20, 3)) * [1.0, 2.5, 0.5] + [4.0, -1.0, 2.0]
        c = linalg.center_columns(x) / np.sqrt(x.shape[0] - 1)
        f = linalg.svd(c)
        eigvals, eigvecs = np.linalg.eigh(c.T @ c)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        for i in range(f.rank):
            dot = abs(eigvecs[:, i] @ f.v[:, i])
            assert dot == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(f.s, np.sqrt(np.clip(eigvals[: f.rank], 0, None)), rtol=1e-8)


class TestFrobeniusResidual:
    def test_identical(self):
        assert linalg.frobenius_residual(X32, X32) == 0.0

    def test_three_four_five(self):
        assert linalg.frobenius_residual([[3.0, 4.0]], [[0.0, 0.0]]) == pytest.approx(5.0)

    def test_truncation_residual_equals_dropped_singular_value(self):
        f = linalg.svd(X32)
        err = linalg.frobenius_residual(X32, linalg.reconstruct_rank(f, 1))
        assert err == pytest.approx(float(f.s[1]), abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            linalg.frobenius_residual(np.ones((2, 2)), np.ones((2, 3)))


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
