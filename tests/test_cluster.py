import numpy as np
import pytest
import scipy.cluster.hierarchy
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agecomp import cluster, schedule
from agecomp.errors import DataError, NumericalError


def two_blobs(rng, n_per=20, centers=((0.0, 0.0), (10.0, 10.0)), radius=0.1):
    points = []
    for cx, cy in centers:
        angle = rng.uniform(0, 2 * np.pi, size=n_per)
        r = radius * np.sqrt(rng.uniform(0, 1, size=n_per))
        points.append(np.column_stack([cx + r * np.cos(angle), cy + r * np.sin(angle)]))
    return np.vstack(points)


TWO_TRIPLES = np.array(
    [[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [10.0, 10.0], [11.0, 10.4], [10.2, 11.0]]
)


class TestFitGmmEm:
    def test_identical_points_single_cluster(self):
        pts = np.tile([2.0, -1.0], (6, 1))
        model = cluster.fit_gmm_em(pts, k=1, family="full")
        np.testing.assert_allclose(model.means[0], [2.0, -1.0], atol=1e-12)
        eigvals = np.linalg.eigvalsh(model.covariances[0])
        assert np.all(eigvals > 0)  # variance floor keeps it positive definite

    def test_two_blobs_recovered(self, rng):
        pts = two_blobs(rng)
        model = cluster.fit_gmm_em(pts, k=2, family="full")
        got = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(got, [[0.0, 0.0], [10.0, 10.0]], atol=0.2)
        labels = cluster.assign(model, pts).labels
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_k1_closed_form(self, rng):
        pts = rng.normal(size=(40, 2)) * [1.0, 3.0]
        n = pts.shape[0]
        centered = pts - pts.mean(axis=0)
        mle_cov = centered.T @ centered / n
        for family in cluster.FAMILIES:
            model = cluster.fit_gmm_em(pts, k=1, family=family)
            np.testing.assert_allclose(model.means[0], pts.mean(axis=0), atol=1e-9)
            if family == "spherical":
                expected = np.eye(2) * np.trace(mle_cov) / 2
            elif family == "diagonal":
                expected = np.diag(np.diag(mle_cov))
            else:
                expected = mle_cov
            np.testing.assert_allclose(model.covariances[0], expected, atol=1e-9)

    def test_deterministic(self, rng):
        pts = rng.normal(size=(30, 2))
        a = cluster.fit_gmm_em(pts, k=3, family="diagonal")
        b = cluster.fit_gmm_em(pts, k=3, family="diagonal")
        assert a.log_likelihood == b.log_likelihood
        np.testing.assert_array_equal(a.means, b.means)

    def test_more_clusters_than_points(self):
        with pytest.raises(NumericalError):
            cluster.fit_gmm_em(np.zeros((2, 2)), k=3)
        with pytest.raises(NumericalError, match=r"no \(k, family\) grid point could be fitted: "
                                                 "cannot fit 3 clusters to 2 observations"):
            cluster.select_by_bic(np.zeros((2, 2)), [3])
        with pytest.raises(DataError, match="k must be >= 1, got 0"):
            cluster.fit_gmm_em(np.zeros((2, 2)), k=0)

    def test_model_invariants(self, rng):
        pts = rng.normal(size=(25, 2))
        model = cluster.fit_gmm_em(pts, k=3, family="full")
        assert model.mixing_weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(model.mixing_weights > 0)
        floor = 1e-8 * pts.var(axis=0).mean()
        for cov in model.covariances:
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() >= floor * (1 - 1e-9)
        assert model.bic == pytest.approx(
            -2 * model.log_likelihood + model.n_params * np.log(model.n_obs)
        )

    def test_em_loglik_monotone(self, rng):
        pts = rng.normal(size=(40, 2))
        for family in cluster.FAMILIES:
            path = cluster.fit_gmm_em(pts, k=3, family=family).log_likelihood_path
            assert len(path) >= 2
            assert all(b >= a - 1e-10 for a, b in zip(path, path[1:]))


class TestEmDiagnostics:
    def test_converged_fit_reports_its_iterations(self, rng):
        model = cluster.fit_gmm_em(two_blobs(rng), k=2, family="full")
        assert model.converged is True
        assert model.n_iter >= 2

    def test_iteration_cap_reports_not_converged(self, rng, monkeypatch):
        monkeypatch.setattr(cluster, "_MAX_ITER", 2)
        model = cluster.fit_gmm_em(two_blobs(rng), k=2, family="full")
        assert model.converged is False
        assert model.n_iter == 2


def _family_covariances(rng, family, k, d):
    if family == "spherical":
        return np.array([np.eye(d) * v for v in rng.uniform(0.5, 2.0, size=k)])
    if family == "diagonal":
        return np.array([np.diag(v) for v in rng.uniform(0.5, 2.0, size=(k, d))])
    a = rng.normal(size=(k, d, d))
    return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)


def _constrain_one(cov, family, floor):
    # per-matrix reference for the stacked cluster._constrain
    d = cov.shape[0]
    if family == "spherical":
        var = np.trace(cov) / d
        return np.eye(d) * max(var, floor), var <= floor
    if family == "diagonal":
        var = np.diag(cov)
        return np.diag(np.maximum(var, floor)), var.min() <= floor
    eigvals, eigvecs = np.linalg.eigh(cov)
    return (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T, eigvals.min() <= floor


def _constrained(covs, family, floor):
    # cluster._constrain's stack rebuilt as V diag(lam) V', with its floor flags
    lam, vecs, hit = cluster._constrain(covs, family, floor)
    if vecs is None:  # the coordinate axes
        vecs = np.broadcast_to(np.eye(covs.shape[-1]), covs.shape)
    return (vecs * lam[:, None, :]) @ vecs.transpose(0, 2, 1), hit


class TestBatchedEm:
    @pytest.mark.parametrize("family", cluster.FAMILIES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_component_log_probs_match_scipy(self, rng, family, k):
        d = 3
        points = rng.normal(size=(20, d))
        means = rng.normal(size=(k, d))
        covs = _family_covariances(rng, family, k, d)
        weights = rng.dirichlet(np.ones(k))
        got = cluster._component_log_probs(
            points.T - means[:, :, None], weights, *np.linalg.eigh(covs)
        )
        assert got.shape == (k, 20)
        for j in range(k):
            expected = np.log(weights[j]) + scipy.stats.multivariate_normal.logpdf(
                points, means[j], covs[j]
            )
            np.testing.assert_allclose(got[j], expected, rtol=0, atol=1e-12)

    def test_posterior_rows_of_different_k_do_not_mix(self, rng):
        # a stack of rows of k = 1, 3 and 6: each row's log-sum-exp and
        # responsibilities run over its own components only
        ks, points = [1, 3, 6], rng.normal(size=(15, 2))
        rows = []
        for k in ks:
            means, covs = rng.normal(size=(k, 2)), _family_covariances(rng, "full", k, 2)
            weights = rng.dirichlet(np.ones(k))
            rows.append((points.T - means[:, :, None], weights, *np.linalg.eigh(covs)))
        logsum, resp = cluster._posterior(*(np.concatenate(parts) for parts in zip(*rows)), ks)
        assert logsum.shape == (3, 15) and resp.shape == (10, 15)
        for i, (k, first, row) in enumerate(zip(ks, [0, 1, 4], rows)):
            alone_logsum, alone_resp = cluster._posterior(*row, [k])
            np.testing.assert_array_equal(logsum[i], alone_logsum[0])
            np.testing.assert_array_equal(resp[first : first + k], alone_resp)
            expected = scipy.special.logsumexp(cluster._component_log_probs(*row), axis=0)
            np.testing.assert_allclose(logsum[i], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", cluster.FAMILIES)
    def test_stacked_constrain_matches_per_matrix(self, rng, family):
        a = rng.normal(size=(4, 3, 3))
        covs = a @ a.transpose(0, 2, 1)
        floor = 1e-3
        got, hit = _constrained(covs, family, floor)
        for j in range(4):
            expected, _ = _constrain_one(covs[j], family, floor)
            np.testing.assert_allclose(got[j], expected, rtol=1e-12, atol=1e-15)
        assert hit.tolist() == [False] * 4

    @pytest.mark.parametrize("family", cluster.FAMILIES)
    def test_floor_flag_set_by_any_single_component(self, family):
        floor = 1e-3
        covs = np.array([np.eye(2), np.eye(2), np.diag([1.0, 0.0]) * 1e-4])
        got, hit = _constrained(covs, family, floor)
        assert hit.tolist() == [_constrain_one(c, family, floor)[1] for c in covs]
        assert hit.tolist() == [False, False, True]
        for j in range(3):
            np.testing.assert_allclose(
                got[j], _constrain_one(covs[j], family, floor)[0], rtol=1e-12, atol=1e-15
            )


def _log_posterior(points, weights, means, covs):
    # (log-likelihood of each point, n x k responsibilities) from a Cholesky
    # factor and a solve per component: not the eigen-decomposition that
    # cluster's E-step whitens by
    d = points.shape[1]
    chol = np.linalg.cholesky(covs)
    solved = np.linalg.solve(chol, (points - means[:, None, :]).transpose(0, 2, 1))
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    quad = (solved**2).sum(axis=1)
    logp = (np.log(weights)[:, None] - 0.5 * (d * np.log(2.0 * np.pi) + logdet[:, None] + quad)).T
    logsum = scipy.special.logsumexp(logp, axis=1)
    return logsum, np.exp(logp - logsum[:, None])


def _em_alone(points, k, family):
    # one-fit reference for the stacked EM of cluster.fit_gmm_em, from the same
    # Ward means; returns its failure text or (log-likelihood path, converged).
    # A fit fails the step a component reaches the variance floor, unless the
    # pooled covariance rests on it too
    floor = cluster._floor_for(points)
    pooled, degenerate = _constrain_one(np.cov(points.T), family, floor)
    (means,) = cluster._ward_centers(points, [k])
    weights, covs = np.full(k, 1.0 / k), np.repeat(pooled[None], k, axis=0)
    path, converged = [], False
    try:
        for iteration in range(cluster._MAX_ITER):
            logsum, resp = _log_posterior(points, weights, means, covs)
            path.append(float(logsum.sum()))
            counts = resp.sum(axis=0)
            if np.any(counts < 1e-10):
                raise NumericalError("mixture component collapsed to zero weight")
            weights = counts / len(points)
            means = (resp.T @ points) / counts[:, None]
            diff = points[None, :, :] - means[:, None, :]
            scatter = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
            constrained = [_constrain_one(c, family, floor) for c in scatter / counts[:, None, None]]
            if any(floored for _, floored in constrained) and not degenerate:
                raise NumericalError("a component covariance rests on the variance floor")
            covs = np.array([cov for cov, _ in constrained])
            if iteration > 0 and path[-1] - path[-2] < cluster._LL_TOL:
                converged = True
                break
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return str(exc)
    return path, converged


def _reference_datasets():
    # EM runs end after 3 to 101 iterations, and some rest on the variance floor
    # (spherical k=5 on the blobs, full k=5 on the normal sample)
    rng = np.random.default_rng(11)
    blobs = np.vstack([rng.normal(size=(12, 2)) * 0.5 + c for c in ((0, 0), (3, 1), (1, 4))])
    return {"blobs": blobs, "normal3d": np.random.default_rng(12).normal(size=(25, 3))}


def _failing_on(target, eigh):
    # an eigh that fails for any stack holding the matrix target
    def failing(a):
        if any(np.array_equal(target, cov) for cov in np.reshape(a, (-1,) + target.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    return failing


def _recording_eigh(monkeypatch):
    # the stacks eigh is called on, in order
    real_eigh, stacks = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(np.array(a)) or real_eigh(a))
    return real_eigh, stacks


class TestEmStack:
    @pytest.mark.parametrize("dataset", ["blobs", "normal3d"])
    @pytest.mark.parametrize("family", cluster.FAMILIES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_the_one_fit_reference(self, dataset, family, k):
        pts = _reference_datasets()[dataset]
        outcome = _em_alone(pts, k, family)
        if isinstance(outcome, str):
            with pytest.raises(NumericalError, match=outcome):
                cluster.fit_gmm_em(pts, k, family)
            return
        model = cluster.fit_gmm_em(pts, k, family)
        path, converged = outcome
        np.testing.assert_allclose(model.log_likelihood, path[-1], rtol=1e-12, atol=0)
        bic = -2.0 * path[-1] + model.n_params * np.log(len(pts))
        np.testing.assert_allclose(model.bic, bic, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.log_likelihood_path, path, rtol=1e-12, atol=0)
        assert model.n_iter == len(path)
        assert model.converged is converged

    def test_lapack_failure_fails_the_fit(self, rng, monkeypatch):
        pts = two_blobs(rng)
        real_eigh, stacks = _recording_eigh(monkeypatch)
        cluster.fit_gmm_em(pts, k=2, family="full")
        # after the pooled covariance, the first EM step's covariances, one per
        # real component
        assert [stack.shape[0] for stack in stacks[:2]] == [1, 2]
        monkeypatch.setattr(np.linalg, "eigh", _failing_on(stacks[1][0], real_eigh))
        with pytest.raises(NumericalError, match="EM failed: Eigenvalues did not converge"):
            cluster.fit_gmm_em(pts, k=2, family="full")

    def test_every_k_in_one_runner_call(self, rng, monkeypatch):
        real_run = cluster._run_em
        calls = []

        def recording(points, families, starts):
            calls.append((families, [start.shape for start in starts]))
            return real_run(points, families, starts)

        monkeypatch.setattr(cluster, "_run_em", recording)
        cluster.select_by_bic(two_blobs(rng), range(1, 7))
        # one stack, holding one row per (k, family) pair, k = 1 included, each k
        # from one k x d start
        ((families, shapes),) = calls
        assert shapes == [(k, 2) for k in range(1, 7)]
        assert families == cluster.FAMILIES

    def test_lapack_failure_in_the_family_stack_fails_only_that_pair(self, rng, monkeypatch):
        pts = two_blobs(rng)
        ref = cluster.select_by_bic(pts, [2])
        assert not any("error" in point for point in ref.grid)
        real_eigh, stacks = _recording_eigh(monkeypatch)
        cluster.select_by_bic(pts, [2])
        # eigh runs on the full family's components only: after its pooled
        # covariance, the first EM step's two, of which the first is unique
        assert [stack.shape[0] for stack in stacks[:2]] == [1, 2]
        target = stacks[1][0]
        assert sum(np.array_equal(target, cov) for cov in stacks[1]) == 1
        monkeypatch.setattr(np.linalg, "eigh", _failing_on(target, real_eigh))
        got = cluster.select_by_bic(pts, [2])
        assert [p["family"] for p in got.grid] == list(cluster.FAMILIES)
        assert got.grid[2] == {"k": 2, "family": "full",
                               "error": "EM failed: Eigenvalues did not converge"}
        assert got.grid[:2] == ref.grid[:2]  # spherical and diagonal as unpatched

    def test_lapack_failure_in_the_merged_grid_fails_only_that_pair(self, rng, monkeypatch):
        # the grid's stack fails, each k reruns alone, and only k = 4 reruns
        # family by family: full k = 4 fails, every other point is unpatched
        pts = two_blobs(rng)
        ref = cluster.select_by_bic(pts, range(1, 7))
        assert isinstance(_em_alone(pts, 4, "full"), tuple)
        real_eigh, stacks = _recording_eigh(monkeypatch)
        cluster.select_by_bic(pts, range(1, 7))
        # the grid's first EM step, one matrix per real full-family component,
        # k-major: k = 1, 2 and 3 come before k = 4
        merged = next(stack for stack in stacks if len(stack) == sum(range(1, 7)))
        target = merged[1 + 2 + 3]
        assert sum(np.array_equal(target, cov) for cov in merged) == 1
        monkeypatch.setattr(np.linalg, "eigh", _failing_on(target, real_eigh))
        got = cluster.select_by_bic(pts, range(1, 7))
        where = [(p["family"], p["k"]) for p in got.grid]
        full4 = where.index(("full", 4))
        assert where == [(p["family"], p["k"]) for p in ref.grid]
        assert got.grid[:full4] + got.grid[full4 + 1 :] == ref.grid[:full4] + ref.grid[full4 + 1 :]
        assert got.grid[full4] == {"k": 4, "family": "full",
                                   "error": "EM failed: Eigenvalues did not converge"}

    def test_a_fit_ends_the_step_it_reaches_the_floor(self, mortality_log, monkeypatch):
        # on the bundled weights the kept fits end by step 31; full k=6, which
        # reaches the floor, would run to step 39 if only its last step judged it
        real_posterior, calls = cluster._posterior, []
        monkeypatch.setattr(cluster, "_posterior", lambda *a: calls.append(1) or real_posterior(*a))
        model = cluster.select_by_bic(schedule.svd_weights(mortality_log, 2), range(1, 7))
        assert len(calls) == 31
        (full6,) = [p for p in model.grid if (p["family"], p["k"]) == ("full", 6)]
        assert full6["error"] == "a component covariance rests on the variance floor"

    def test_a_center_far_from_every_point_collapses(self):
        # the second center takes no responsibility for any point in the first E-step
        start = np.array([TWO_TRIPLES.mean(axis=0), [1e6, 1e6]])
        (out,) = cluster._run_em(TWO_TRIPLES, ("full",), [start])
        assert isinstance(out, NumericalError)
        assert str(out) == "mixture component collapsed to zero weight"

    def test_a_log_likelihood_that_is_not_finite_ends_its_row(self):
        # past 1e154 the squared distances overflow, so the log-likelihoods are
        # not finite and the weights NaN
        pts = TWO_TRIPLES * 1e160
        with np.errstate(all="ignore"):
            runs = cluster._run_em(pts, cluster.FAMILIES, cluster._ward_centers(pts, [1, 2]))
        assert [type(run) for run in runs] == [NumericalError] * 6
        assert {str(run) for run in runs} == {"EM log-likelihood is not finite"}

    def test_kept_path_is_recorded(self, rng):
        pts = rng.normal(size=(40, 2))
        model = cluster.fit_gmm_em(pts, k=3, family="full")
        assert len(model.log_likelihood_path) == model.n_iter
        assert model.log_likelihood_path[-1] == model.log_likelihood
        path = cluster.fit_gmm_em(pts, k=3, family="full").log_likelihood_path
        assert path == model.log_likelihood_path


class TestAssign:
    def test_responsibilities_rows_sum_to_one(self, rng):
        pts = rng.normal(size=(30, 2))
        model = cluster.fit_gmm_em(pts, k=2, family="full")
        assignment = cluster.assign(model, pts)
        np.testing.assert_allclose(
            assignment.responsibilities.sum(axis=1), np.ones(30), atol=1e-10
        )
        np.testing.assert_array_equal(
            assignment.labels, assignment.responsibilities.argmax(axis=1) + 1
        )

    def test_permutation_invariance(self, rng):
        pts = two_blobs(rng)
        model = cluster.fit_gmm_em(pts, k=2, family="full")
        permuted = cluster.GmmModel(
            k=model.k,
            family=model.family,
            mixing_weights=model.mixing_weights[::-1].copy(),
            means=model.means[::-1].copy(),
            covariances=model.covariances[::-1].copy(),
            log_likelihood=model.log_likelihood,
            bic=model.bic,
            n_params=model.n_params,
            n_obs=model.n_obs,
        )
        a = cluster.assign(model, pts).labels
        b = cluster.assign(permuted, pts).labels
        # same partition, labels renamed
        mapping = {}
        for la, lb in zip(a, b):
            assert mapping.setdefault(la, lb) == lb

    def test_non_positive_definite_component_raises(self, rng):
        model = cluster.GmmModel(
            k=2, family="full", mixing_weights=np.full(2, 0.5), means=np.zeros((2, 2)),
            covariances=np.array([np.eye(2), -np.eye(2)]), log_likelihood=0.0, bic=0.0,
            n_params=11, n_obs=5,
        )
        with pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite"):
            cluster.assign(model, rng.normal(size=(5, 2)))


class TestSelectByBic:
    def test_two_blobs_selects_two(self, rng):
        pts = two_blobs(rng)
        model = cluster.select_by_bic(pts, range(1, 5))
        assert model.k == 2
        labels = cluster.assign(model, pts).labels
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_identical_points_select_one(self):
        pts = np.tile([1.0, 2.0], (3, 1))
        model = cluster.select_by_bic(pts, range(1, 3))
        assert model.k == 1

    def test_selected_bic_minimal_over_grid(self, rng):
        pts = two_blobs(rng, n_per=15)
        chosen = cluster.select_by_bic(pts, range(1, 4))
        for family in cluster.FAMILIES:
            for k in range(1, 4):
                other = cluster.fit_gmm_em(pts, k, family)
                assert chosen.bic <= other.bic + 1e-9

    def test_empty_range(self):
        with pytest.raises(DataError):
            cluster.select_by_bic(np.zeros((4, 2)), [])

    def test_empty_family_list(self, rng):
        with pytest.raises(DataError, match="empty family list"):
            cluster.select_by_bic(two_blobs(rng), range(1, 3), families=())

    def test_two_triples_select_two(self):
        # Larger k can only split a triple into one- and two-point components
        # whose covariances sit on the variance floor; such fits used to win
        # with spherical k=6 and a BIC set by the floor constant.
        pts = TWO_TRIPLES
        model = cluster.select_by_bic(pts, range(1, 7))
        assert model.k == 2
        labels = cluster.assign(model, pts).labels
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_a_floor_bound_fit_fails(self):
        pts = TWO_TRIPLES
        with pytest.raises(NumericalError, match="variance floor"):
            cluster.fit_gmm_em(pts, k=6, family="spherical")

    @pytest.mark.parametrize("dataset, ks, n_errors", [
        ("two_triples", range(1, 7), 12),
        ("two_triples", [5, 2, 9, 3], 9),
        ("mortality", range(1, 7), 8),
        ("mortality", [3, 1, 2], 0),
        ("mortality_1e3", range(1, 7), 8),
        ("mortality_1e-3", range(1, 7), 8),
        ("blobs", range(1, 7), 6),
        ("normal3d", range(1, 7), 10),
        ("normal40x2", range(1, 7), 8),
    ], ids=["two_triples", "two_triples-unsorted", "mortality", "mortality-unsorted",
            "mortality_1e3", "mortality_1e-3", "blobs", "normal3d", "normal40x2"])
    def test_grid_records_every_point(self, dataset, ks, n_errors, mortality_log):
        # one EM stack fits every k and every family; an eligible point equals
        # its own single-k fit bit for bit, a k above n keeps its error, and a
        # fit with a component of fewer than d + 1 effective members is skipped
        # with an error that names that rule
        weights = schedule.svd_weights(mortality_log, 2)
        pts = {
            "two_triples": TWO_TRIPLES,
            "mortality": weights,
            "mortality_1e3": weights * 1e3,
            "mortality_1e-3": weights * 1e-3,
            **_reference_datasets(),
            "normal40x2": np.random.default_rng(3).normal(size=(40, 2)),
        }[dataset]
        n, d = pts.shape
        model = cluster.select_by_bic(pts, ks)
        points = [(p["k"], p["family"]) for p in model.grid]
        assert points == [(k, f) for f in cluster.FAMILIES for k in ks]
        for point in model.grid:
            where = {"k": point["k"], "family": point["family"]}
            if point["k"] > n:
                message = f"cannot fit {point['k']} clusters to {n} observations"
                assert point == {**where, "error": message}
                continue
            try:
                fit = cluster.fit_gmm_em(pts, point["k"], point["family"])
            except NumericalError as exc:
                assert point == {**where, "error": str(exc)}
                continue
            if (least := fit.mixing_weights.min() * n) < d + 1:
                assert point == {**where, "error": (
                    f"a component holds {least:.4g} effective members (mixing weight x n), "
                    f"fewer than d + 1 = {d + 1}"
                )}
                continue
            assert point == {
                "k": fit.k,
                "family": fit.family,
                "bic": fit.bic,
                "log_likelihood": fit.log_likelihood,
                "n_iter": fit.n_iter,
                "converged": fit.converged,
            }
            if (fit.k, fit.family) == (model.k, model.family):
                for name in ("mixing_weights", "means", "covariances"):
                    np.testing.assert_array_equal(getattr(model, name), getattr(fit, name))
                assert model.log_likelihood_path == fit.log_likelihood_path
        assert sum("error" in p for p in model.grid) == n_errors
        assert model.bic == min(p["bic"] for p in model.grid if "error" not in p)

    def test_an_unknown_family(self):
        with pytest.raises(DataError, match="unknown family 'tied'"):
            cluster.fit_gmm_em(TWO_TRIPLES, k=2, family="tied")
        with pytest.raises(DataError, match="unknown family 'tied'"):
            cluster.select_by_bic(TWO_TRIPLES, range(1, 3), families=("full", "tied"))

    @pytest.mark.parametrize("families, twice", [
        (("full", "full"), "full"), (("spherical", "diagonal", "spherical"), "spherical"),
    ])
    def test_a_family_listed_twice(self, families, twice):
        with pytest.raises(DataError, match=f"family '{twice}' listed twice"):
            cluster.select_by_bic(TWO_TRIPLES, range(1, 3), families=families)

    @pytest.mark.parametrize("scale", [1e-10, 1e-12])
    def test_mortality_selection_does_not_depend_on_floor(
        self, mortality_log, monkeypatch, scale
    ):
        w = schedule.svd_weights(mortality_log, 2)
        ref = cluster.select_by_bic(w, range(1, 7))
        monkeypatch.setattr(cluster, "_VARIANCE_FLOOR_SCALE", scale)
        got = cluster.select_by_bic(w, range(1, 7))
        assert (got.k, got.family) == (ref.k, ref.family)
        assert got.bic == pytest.approx(ref.bic, abs=1e-6)
        floor = scale * w.var(axis=0).mean()
        for cov in got.covariances:
            assert np.linalg.eigvalsh(cov).min() > floor

    def test_mortality_weight_selection_is_deterministic(self, mortality_log):
        w = schedule.svd_weights(mortality_log, 2)
        a = cluster.select_by_bic(w, range(1, 7))
        b = cluster.select_by_bic(w, range(1, 7))
        assert (a.k, a.family, a.bic) == (b.k, b.family, b.bic)
        # the year trajectory supports several plausible partitions; the
        # acceptance suite records the selected one and its contiguity
        assert 1 <= a.k <= 6

    def test_mortality_selection(self, mortality_log):
        # the selection every seed 0-29 of the seeded k-means++ restarts made:
        # spurious optima around a component of 2-3 members (full k=4) would
        # win the grid if the d + 1 rule did not skip them
        w = schedule.svd_weights(mortality_log, 2)
        model = cluster.select_by_bic(w, range(1, 7))
        assert (model.family, model.k) == ("full", 2)
        assert model.bic == pytest.approx(-157.14822873376994, abs=1e-9)
        labels = cluster.assign(model, w).labels
        years = [int(y) for y in mortality_log.schedule_labels]
        periods = {lab: [y for y, got in zip(years, labels) if got == lab] for lab in set(labels)}
        assert sorted(periods.values()) == [list(range(1993, 1998)), list(range(1998, 2012))]
        (full4,) = [p for p in model.grid if (p["family"], p["k"]) == ("full", 4)]
        assert "fewer than d + 1 = 3" in full4["error"]

    @pytest.mark.parametrize("dataset, k, family, bic", [
        ("blobs", 3, "spherical", 188.64106768916056),
        ("normal3d", 1, "spherical", 213.7703519412109),
        ("normal40x2", 1, "spherical", 251.59158647696557),
    ])
    def test_selection_matches_the_seeded_restarts(self, dataset, k, family, bic):
        # the (k, family) and BIC that seeds 0-3 of five k-means++ restarts selected
        pts = {
            **_reference_datasets(),
            "normal40x2": np.random.default_rng(3).normal(size=(40, 2)),
        }[dataset]
        model = cluster.select_by_bic(pts, range(1, 7))
        assert (model.k, model.family) == (k, family)
        assert model.bic == pytest.approx(bic, abs=1e-9)


@st.composite
def _grid_inputs(draw):
    # n points in d dimensions, some rounded to force ties, and a k list from 1..6
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    pts = draw(arrays(np.float64, (n, d), elements=st.floats(-10, 10, allow_subnormal=False)))
    decimals = draw(st.sampled_from([None, 0, 1]))
    ks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))
    return (pts if decimals is None else np.round(pts, decimals)), ks


def _own_fit(pts, k, family):
    # the grid point select_by_bic should record, from a single-k fit
    n, d = pts.shape
    where = {"k": k, "family": family}
    if k > n:
        return {**where, "error": f"cannot fit {k} clusters to {n} observations"}
    try:
        fit = cluster.fit_gmm_em(pts, k, family)
    except NumericalError as exc:
        return {**where, "error": str(exc)}
    if (least := fit.mixing_weights.min() * n) < d + 1:
        return {**where, "error": (
            f"a component holds {least:.4g} effective members (mixing weight x n), "
            f"fewer than d + 1 = {d + 1}"
        )}
    return {f: getattr(fit, f) for f in cluster._GRID_FIELDS}


@settings(deadline=None, max_examples=50)
@given(_grid_inputs())
def test_every_grid_point_is_its_own_fit(inputs):
    # each point of the grid's one EM stack has the bits, or the error, of its own fit
    pts, ks = inputs
    expected = [_own_fit(pts, k, family) for family in cluster.FAMILIES for k in ks]
    try:
        grid = list(cluster.select_by_bic(pts, ks).grid)
    except NumericalError as exc:
        assert all("error" in point for point in expected)
        assert str(exc) == f"no (k, family) grid point could be fitted: {expected[-1]['error']}"
        return
    assert grid == expected


def _ward_by_full_search(points, k):
    # O(n^3) reference for cluster._ward_centers: the same Lance-Williams
    # updates, but each merge takes the lowest (i, j), i < j, of the least
    # cost by an argmin over the whole upper triangle
    n = len(points)
    dist = ((points[:, None, :] - points) ** 2).sum(axis=-1)
    dist[np.tril_indices(n)] = np.inf
    size, labels = np.ones(n), np.arange(n)
    for _ in range(n - k):
        i, j = np.unravel_index(dist.argmin(), dist.shape)
        full = np.minimum(dist, dist.T)  # symmetric, inf on the diagonal
        cost = ((size[i] + size) * full[i] + (size[j] + size) * full[j] - size * dist[i, j])
        cost /= size[i] + size[j] + size
        dist[:i, i], dist[i, i + 1 :] = cost[:i], cost[i + 1 :]
        dist[:, j] = dist[j] = np.inf
        size[i] += size[j]
        labels[labels == j] = i
    return np.array([points[labels == r].mean(axis=0) for r in np.unique(labels)])


def _ward_datasets(mortality_log):
    weights = schedule.svd_weights(mortality_log, 2)
    return {
        "mortality": weights,
        "mortality_1e3": weights * 1e3,
        "mortality_1e-3": weights * 1e-3,
        "two_triples": TWO_TRIPLES,
        **_reference_datasets(),
        "normal40x2": np.random.default_rng(3).normal(size=(40, 2)),
    }


class TestWardStart:
    @pytest.mark.parametrize("dataset", [
        "mortality", "mortality_1e3", "mortality_1e-3", "two_triples", "blobs", "normal3d",
        "normal40x2",
    ])
    def test_cut_matches_scipy(self, dataset, mortality_log):
        pts = _ward_datasets(mortality_log)[dataset]
        tree = scipy.cluster.hierarchy.linkage(pts, "ward")
        for k, got in zip(range(1, 7), cluster._ward_centers(pts, range(1, 7))):
            labels = scipy.cluster.hierarchy.fcluster(tree, k, "maxclust")
            want = np.array([pts[labels == c].mean(axis=0) for c in np.unique(labels)])
            assert got.shape == want.shape == (k, pts.shape[1])
            # up to label order
            got, want = got[np.lexsort(got.T)], want[np.lexsort(want.T)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_ties_merge_in_row_order(self):
        # rows 0 and 2, and rows 1 and 3, are duplicates: both pairs cost 0, and
        # (0, 2) merges first, so the cut at 3 keeps rows 1 and 3 apart
        pts = np.array([[0.0], [1.0], [0.0], [1.0]])
        three, two = cluster._ward_centers(pts, [3, 2])
        np.testing.assert_array_equal(three, [[0.0], [1.0], [1.0]])
        np.testing.assert_array_equal(two, [[0.0], [1.0]])
        # row 0 is as far from row 1 as from row 2, and (0, 1) merges first
        (two,) = cluster._ward_centers(np.array([[1.0], [0.0], [2.0]]), [2])
        np.testing.assert_array_equal(two, [[0.5], [2.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_full_search_on_tied_grids(self, seed):
        # integer points on a small grid, with duplicates, tie at every level
        pts = np.random.default_rng(seed).integers(0, 4, size=(30, 2)).astype(float)
        for k, got in zip(range(1, 9), cluster._ward_centers(pts, range(1, 9))):
            np.testing.assert_array_equal(got, _ward_by_full_search(pts, k))

    @pytest.mark.parametrize("power", [600, -600])
    def test_scaling_by_a_power_of_two_scales_the_centers_exactly(self, power, mortality_log):
        pts = schedule.svd_weights(mortality_log, 2)
        ks = [6, 1, 3, 2]
        for got, want in zip(cluster._ward_centers(np.ldexp(pts, power), ks),
                             cluster._ward_centers(pts, ks)):
            np.testing.assert_array_equal(got, np.ldexp(want, power))

    @pytest.mark.parametrize("e", [155, 300, 307, -300])
    def test_centers_are_finite_at_every_scale(self, e, mortality_log):
        # weights x 10^e square past the double range for e > 154, and below it
        # for e < -154; the start is still finite, and scales by 10^e
        pts = schedule.svd_weights(mortality_log, 2)
        ks = [6, 1, 3, 2]
        for got, want in zip(cluster._ward_centers(pts * 10.0**e, ks),
                             cluster._ward_centers(pts, ks)):
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, want * 10.0**e, rtol=1e-12, atol=0)
