"""Acceptance suite: one verdict line per criterion (see the run summary).

Published figures are compared at the precision they are printed with:
explained shares within half a unit of their last printed digit, and the
second fertility weight model through the two-decimal rounding of the
bundled TFR column.  One subcheck is expected to stay red: the temporal
contiguity clause of criterion 7, whose failing assertion says why.
Everything else must pass at the stated tolerance.
"""

from decimal import Decimal

import numpy as np
import pytest
from scipy.optimize import linprog

from agecomp import cluster, io, linalg, regress, schedule
from agecomp.cli import image_rank_approx


def _verdict(log, number, checks, extra=""):
    """checks: list of (ok, description); appends the line, then asserts."""
    failed = [desc for ok, desc in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = f" [{'; '.join(failed)}]" if failed else ""
    if extra:
        detail += f" ({extra})"
    log.append(f"criterion {number}: {status}{detail}")
    assert not failed, f"criterion {number}: {failed}"


def _close(value, target, tol):
    return abs(value - target) <= tol


def _joint_sign_close(values, targets, tol):
    v = np.asarray(values, dtype=float)
    t = np.asarray(targets, dtype=float)
    return min(np.abs(v - t).max(), np.abs(v + t).max()) <= tol


@pytest.fixture(scope="module")
def mortality_pieces(mortality_log, covariates):
    f = linalg.svd(mortality_log.data)
    basis = schedule.build_basis(mortality_log, 2)
    weights = schedule.svd_weights(mortality_log, 2)
    table = covariates.with_delta()
    return f, basis, weights, table


def _predicted(matrix, basis, weights, table, predictors):
    models = regress.fit_weight_models(weights, table, predictors)
    rows = [{name: float(col[i]) for name, col in table.columns.items()}
            for i in map(table.labels.index, matrix.schedule_labels)]
    cols = [regress.predict_schedule(basis, models, row).values for row in rows]
    return schedule.ScheduleMatrix(
        matrix.group_labels, matrix.schedule_labels, np.column_stack(cols), "log"
    )


def test_criterion_1_worked_3x2_example(acceptance_log):
    f = linalg.svd([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
    u_ref = np.array([[-0.6396, -0.7071], [-0.4264, 0.0], [-0.6396, 0.7071]])
    v_ref = np.array([[-0.7071, -0.7071], [-0.7071, 0.7071]])
    rank1 = linalg.reconstruct_rank(f, 1)
    checks = [
        (_close(f.s[0], 3.316625, 1e-6), f"s1={f.s[0]:.8f} vs 3.316625 +-1e-6"),
        (_close(f.s[1], 1.0, 1e-6), f"s2={f.s[1]:.8f} vs 1.0 +-1e-6"),
        (
            all(
                _joint_sign_close(f.u[:, i], u_ref[:, i], 1e-4)
                and _joint_sign_close(f.v[:, i], v_ref[:, i], 1e-4)
                for i in range(2)
            ),
            "u, v vs printed values +-1e-4 up to joint sign",
        ),
        (
            np.abs(rank1[:, 0] - [1.5, 1.0, 1.5]).max() <= 1e-6,
            "rank-1 reconstruction of column 1 vs (1.5, 1, 1.5) +-1e-6",
        ),
    ]
    _verdict(acceptance_log, 1, checks)


def _printed_half_unit(printed):
    """Half a unit in the last digit of a printed decimal, e.g. '0.02' -> 0.005."""
    return 0.5 * 10.0 ** Decimal(printed).as_tuple().exponent


def test_criterion_2_mortality_decomposition(acceptance_log, mortality_pieces):
    f, *_ = mortality_pieces
    shares_pct = 100 * linalg.explained_share(f)
    checks = [
        (_close(f.s[0], 123.8, 0.1), f"s1={f.s[0]:.4f} vs 123.8 +-0.1"),
        (_close(f.s[1], 5.1, 0.05), f"s2={f.s[1]:.4f} vs 5.1 +-0.05"),
        (_close(f.s[2], 1.7, 0.05), f"s3={f.s[2]:.4f} vs 1.7 +-0.05"),
        (_close(f.s[3], 1.2, 0.05), f"s4={f.s[3]:.4f} vs 1.2 +-0.05"),
    ]
    # Each published share is compared within half a unit of its last printed
    # digit, capped at 0.02pp: 99.8 +-0.02, 0.02 +-0.005, 0.009 +-0.0005.
    # The second share is printed to one significant figure, so its window
    # is the full +-0.05 of that rounding, and it must also lie where the
    # printed s2 = 5.1 (+-0.05) puts it over the computed total sum of s^2.
    for i, printed in enumerate(("99.8", "0.2", "0.02", "0.009")):
        tol = _printed_half_unit(printed)
        if i != 1:
            tol = min(tol, 0.02)
        checks.append(
            (
                _close(shares_pct[i], float(printed), tol),
                f"share{i + 1}={shares_pct[i]:.5f}% vs {printed}% +-{tol:g}pp",
            )
        )
    total = float((f.s**2).sum())
    lo, hi = (100 * s2**2 / total for s2 in (5.05, 5.15))
    checks.append(
        (
            lo <= shares_pct[1] <= hi,
            f"share2={shares_pct[1]:.4f}% in [{lo:.4f}, {hi:.4f}]% implied by s2 = 5.1 +-0.05",
        )
    )
    _verdict(acceptance_log, 2, checks)


def test_criterion_3_fertility_decomposition(acceptance_log, fertility_log):
    f = linalg.svd(fertility_log.data)
    targets = [33.64, 1.76, 0.22, 0.18]
    checks = [
        (_close(f.s[i], targets[i], 0.05), f"s{i + 1}={f.s[i]:.4f} vs {targets[i]} +-0.05")
        for i in range(4)
    ]
    _verdict(acceptance_log, 3, checks)


def test_criterion_4_table5_reproduction(acceptance_log, mortality_log, mortality_pieces):
    _, basis, weights, table = mortality_pieces
    checks = []

    smoothed = schedule.smooth_matrix(mortality_log, 2)
    m = schedule.error_metrics(smoothed, mortality_log)
    checks.append((_close(m.mae, 0.080, 0.003), f"SVD MAE {m.mae:.4f} vs 0.080 +-0.003"))
    svd_q = [0.0013, 0.0322, 0.0651, 0.1100, 0.3000]
    checks.append(
        (
            np.abs(m.quantiles - svd_q).max() <= 0.003,
            f"SVD quantiles {np.round(m.quantiles, 4)} vs {svd_q} +-0.003",
        )
    )

    pred = _predicted(mortality_log, basis, weights, table, ["e0", "delta"])
    m2 = schedule.error_metrics(pred, mortality_log)
    checks.append((_close(m2.mae, 0.083, 0.003), f"e0&delta MAE {m2.mae:.4f} vs 0.083 +-0.003"))
    ed_q = [0.002174, 0.031208, 0.069663, 0.116879, 0.299046]
    checks.append(
        (
            np.abs(m2.quantiles - ed_q).max() <= 0.004,
            f"e0&delta quantiles {np.round(m2.quantiles, 4)} vs {np.round(ed_q, 4)} +-0.004",
        )
    )

    rows = {
        "q5_0": (["q5_0"], [0.002252, 0.043255, 0.091623, 0.152007, 0.449184]),
        "q45_15": (["q45_15"], [0.001827, 0.035096, 0.075179, 0.133854, 0.354826]),
        "q5_0&q45_15": (
            ["q5_0", "q45_15"],
            [0.002496, 0.033556, 0.070406, 0.131788, 0.324306],
        ),
    }
    for name, (predictors, expected) in rows.items():
        mq = schedule.error_metrics(
            _predicted(mortality_log, basis, weights, table, predictors), mortality_log
        )
        checks.append(
            (
                np.abs(mq.quantiles - expected).max() <= 0.006,
                f"{name} quantiles {np.round(mq.quantiles, 4)} vs {np.round(expected, 4)} +-0.006",
            )
        )
    _verdict(acceptance_log, 4, checks)


def _tfr_within_rounding(weights, covariates, published, half_unit=0.005, step=1e-4):
    """TFR vector within +-half_unit of the printed column, refitted exactly.

    The fitted coefficients are linearized in TFR by central differences
    through regress.fit_weight_models; a linear program then picks the
    offsets that minimize the largest deviation from the published
    coefficients, and the program refits at that vector.  Returns the
    vector and the refitted models.
    """
    printed = covariates.column("tfr")

    def fit(tfr):
        table = regress.CovariateTable(covariates.labels, {"tfr": tfr})
        return regress.fit_weight_models(weights, table, ["tfr"])

    def coefs(tfr):
        return np.concatenate([m.coefficients for m in fit(tfr)])

    c0 = coefs(printed)
    # published models carry the sign of the fitted weight they belong to
    pub = np.asarray(published, dtype=float)
    fitted = c0.reshape(pub.shape)
    same = np.abs(fitted - pub).max(axis=1) <= np.abs(fitted + pub).max(axis=1)
    target = (np.where(same, 1.0, -1.0)[:, None] * pub).ravel()
    n = printed.size
    jac = np.column_stack(
        [(coefs(printed + step * e) - coefs(printed - step * e)) / (2 * step) for e in np.eye(n)]
    )
    # variables: n offsets and the largest deviation z; minimize z subject
    # to -z <= c0 + jac @ offsets - target <= z
    ones = np.ones((target.size, 1))
    lp = linprog(
        np.r_[np.zeros(n), 1.0],
        A_ub=np.block([[jac, -ones], [-jac, -ones]]),
        b_ub=np.r_[target - c0, c0 - target],
        bounds=[(-half_unit, half_unit)] * n + [(0.0, None)],
    )
    assert lp.status == 0, lp.message
    tfr = printed + np.clip(lp.x[:n], -half_unit, half_unit)
    return tfr, fit(tfr)


def test_criterion_5_regression_goldens(
    acceptance_log, mortality_pieces, fertility_log, fertility_covariates
):
    _, _, weights, table = mortality_pieces
    m1, m2 = regress.fit_weight_models(weights, table, ["e0", "delta"])
    checks = [
        (
            _joint_sign_close(m1.coefficients, [0.1024, 0.0021, -0.0005], 5e-4),
            f"first-weight coefficients {np.round(m1.coefficients, 5)} vs (0.1024, 0.0021, -0.0005) +-0.0005",
        ),
        (_close(m1.r_squared, 0.9961, 0.002), f"first-weight R2 {m1.r_squared:.4f} vs 0.9961 +-0.002"),
        (
            _joint_sign_close(m2.coefficients, [-0.8532, 0.0192, -0.0253], 5e-3),
            f"second-weight coefficients {np.round(m2.coefficients, 5)} vs (-0.8532, 0.0192, -0.0253) +-0.005",
        ),
        (_close(m2.r_squared, 0.9779, 0.005), f"second-weight R2 {m2.r_squared:.4f} vs 0.9779 +-0.005"),
    ]

    fw = schedule.svd_weights(fertility_log, 2)
    f1, f2 = regress.fit_weight_models(fw, fertility_covariates, ["tfr"])
    checks.append(
        (
            _joint_sign_close(f1.coefficients, [0.344799, -0.039329], 3e-3),
            f"fertility first-weight coefficients {np.round(f1.coefficients, 6)} vs (0.344799, -0.039329) +-0.003",
        )
    )
    checks.append(
        (_close(f1.r_squared, 0.746, 0.01), f"fertility first-weight R2 {f1.r_squared:.4f} vs 0.746 +-0.01")
    )
    # The bundled TFR column is printed to two decimals, and rounding it by
    # +-0.005 can move the second model's intercept by up to 0.022 and its
    # slope by up to 0.0076 (first order), against a +-0.003 window; the
    # published fit used unrounded TFR values.  So the second model is not
    # compared on the rounded column directly: some TFR vector within
    # +-0.005 of every bundled value must reproduce all four published
    # fertility coefficients within 0.003 through the program's own fit.
    published = ([0.344799, -0.039329], [-1.236473, 0.424483])
    tfr, refit = _tfr_within_rounding(fw, fertility_covariates, published)
    shift = np.abs(tfr - fertility_covariates.column("tfr")).max()
    checks.append(
        (
            all(_joint_sign_close(m.coefficients, t, 3e-3) for m, t in zip(refit, published)),
            f"TFR within +-{shift:.4f} of the printed column gives fertility coefficients "
            f"{np.round(refit[0].coefficients, 6)}, {np.round(refit[1].coefficients, 6)} "
            f"vs (0.344799, -0.039329), (-1.236473, 0.424483) +-0.003",
        )
    )
    checks.append(
        (_close(f2.r_squared, 0.431, 0.01), f"fertility second-weight R2 {f2.r_squared:.4f} vs 0.431 +-0.01")
    )
    _verdict(acceptance_log, 5, checks)


def test_criterion_6_fertility_prediction(acceptance_log, fertility_log, fertility_covariates):
    basis = schedule.build_basis(fertility_log, 2)
    weights = schedule.svd_weights(fertility_log, 2)
    pred = _predicted(fertility_log, basis, weights, fertility_covariates, ["tfr"])
    m = schedule.error_metrics(pred, fertility_log)
    expected = [0.0021, 0.0167, 0.0395, 0.0795, 0.6440]
    checks = [
        (_close(m.mae, 0.0834, 0.004), f"log-scale MAE {m.mae:.4f} vs 0.0834 +-0.004"),
        (
            np.abs(m.quantiles - expected).max() <= 0.005,
            f"quantiles {np.round(m.quantiles, 4)} vs {expected} +-0.005",
        ),
    ]
    _verdict(acceptance_log, 6, checks)


def _year_runs(labels, years):
    runs = []
    for year, lab in zip(years, labels):
        if runs and runs[-1][0] == lab:
            runs[-1][2] = year
        else:
            runs.append([lab, year, year])
    return runs


def test_criterion_7_clustering(acceptance_log, mortality_pieces, mortality_log, rng):
    _, _, weights, _ = mortality_pieces

    # fallback properties, always required
    path = cluster.fit_gmm_em(weights, k=4, family="full").log_likelihood_path
    monotone = all(b >= a - 1e-10 for a, b in zip(path, path[1:]))

    blob_angle = rng.uniform(0, 2 * np.pi, size=40)
    blob_r = 0.1 * np.sqrt(rng.uniform(0, 1, size=40))
    blob = np.column_stack([blob_r * np.cos(blob_angle), blob_r * np.sin(blob_angle)])
    blob[20:] += 10.0
    two_blob_model = cluster.select_by_bic(blob, range(1, 5))
    blob_labels = cluster.assign(two_blob_model, blob).labels
    blobs_ok = (
        two_blob_model.k == 2
        and len(set(blob_labels[:20])) == 1
        and len(set(blob_labels[20:])) == 1
        and blob_labels[0] != blob_labels[20]
    )

    # the soft target from the publication: a BIC-selected partition of the
    # nineteen weight rows into 3..5 temporally contiguous periods
    model = cluster.select_by_bic(weights, range(1, 7))
    labels = cluster.assign(model, weights).labels
    years = [int(y) for y in mortality_log.schedule_labels]
    runs = _year_runs(labels, years)
    contiguous = len(runs) == model.k
    partition = ", ".join(f"{a}-{b}" for _, a, b in runs)
    periods = {}
    for lab, a, b in runs:
        periods.setdefault(lab, []).append(f"{a}-{b}" if a != b else str(a))
    split = "; ".join(" + ".join(p) for p in periods.values() if len(p) > 1)

    boundary_ok = True
    if model.k == 4 and contiguous:
        ends = sorted(r[2] for r in runs[:-1])
        boundary_ok = all(abs(e - t) <= 1 for e, t in zip(ends, (1997, 2002, 2008)))

    checks = [
        (monotone, "EM log-likelihood monotone"),
        (blobs_ok, "two-blob data recovers k=2 with 0 misclassifications"),
        # Known red: minimum BIC over the fits whose every component holds at
        # least d + 1 = 3 effective members selects full k=2 at BIC -157.15,
        # with the contiguous periods 1993-1997 and 1998-2011; k=2 is outside
        # 3..5.  The lower-BIC fits with more components (full k=4 at -158.22
        # from some random starts, not contiguous in time) rest on a
        # component of fewer than three effective members, a spurious maximum
        # of the unbounded mixture likelihood.  The paper promises a
        # BIC-selected mixture and does not give the published run's
        # initialization, so whether its four contiguous periods are a
        # property of the method is not settled; the clause stays as written.
        (
            model.k in (3, 4, 5) and contiguous and boundary_ok,
            f"selected k={model.k} ({model.family}, BIC {model.bic:.2f}) in 3..5 with contiguous "
            f"periods" + ("" if model.k in (3, 4, 5) else f"; k={model.k} is outside 3..5")
            + (f"; components spanning separate periods: {split}" if split else ""),
        ),
    ]
    _verdict(
        acceptance_log, 7, checks,
        extra=f"selected {model.family} k={model.k}, periods {partition}",
    )


def test_criterion_8_property_suites(acceptance_log, mortality_log, fertility_log, rng):
    checks = []

    eym_ok = True
    identity_ok = True
    for _ in range(20):
        shape = rng.integers(4, 11, size=2)
        x = rng.normal(size=shape)
        f = linalg.svd(x)
        for k in range(1, f.rank):
            best = float(np.sqrt(((x - linalg.reconstruct_rank(f, k)) ** 2).sum()))
            for _ in range(200):
                cand = rng.normal(size=(shape[0], k)) @ rng.normal(size=(k, shape[1]))
                scale = np.sum(x * cand) / max(np.sum(cand * cand), 1e-300)
                if best > float(np.sqrt(((x - scale * cand) ** 2).sum())) + 1e-12:
                    eym_ok = False
        for k in range(1, f.rank + 1):
            resid2 = float(np.sqrt(((x - linalg.reconstruct_rank(f, k)) ** 2).sum())) ** 2
            tail = float((f.s[k:] ** 2).sum())
            if abs(resid2 - tail) > 1e-8 * max(tail, 1e-12):
                identity_ok = False
    checks.append((eym_ok, "truncation beats 200+ random rank-k candidates on 20 matrices"))
    checks.append((identity_ok, "squared truncation residual equals the dropped singular-value mass"))

    pca_ok = True
    for _ in range(5):
        x = rng.normal(size=(20, 3)) * rng.uniform(0.5, 3.0, size=3)
        c = (x - x.mean(axis=0)) / np.sqrt(19.0)
        f = linalg.svd(c)
        eigvals, eigvecs = np.linalg.eigh(c.T @ c)
        order = np.argsort(eigvals)[::-1]
        for i in range(f.rank):
            if abs(abs(eigvecs[:, order[i]] @ f.v[:, i]) - 1.0) > 1e-8:
                pca_ok = False
    checks.append((pca_ok, "centered-data right singular vectors match Gram eigenvectors +-sign"))

    basis = schedule.build_basis(mortality_log, 2)
    ols_ok = True
    design = basis.components
    gram = design.T @ design
    for label in mortality_log.schedule_labels:
        col = mortality_log.column(label)
        fit = schedule.fit_weights(col, basis)
        oracle = np.linalg.solve(gram, design.T @ col.values)
        if np.abs(fit.betas - oracle).max() > 1e-10:
            ols_ok = False
    checks.append((ols_ok, "closed-form weight fit matches the normal-equations oracle at 1e-10"))

    corr_m = np.corrcoef(mortality_log.data.T)
    corr_f = np.corrcoef(fertility_log.data.T)
    checks.append(
        (
            corr_m[np.triu_indices_from(corr_m, k=1)].min() >= 0.90,
            "mortality pairwise column correlations >= 0.90",
        )
    )
    checks.append(
        (
            corr_f[np.triu_indices_from(corr_f, k=1)].min() >= 0.99,
            "fertility pairwise column correlations >= 0.99",
        )
    )
    _verdict(acceptance_log, 8, checks)


def test_criterion_9_image_demo(acceptance_log, tmp_path):
    h = w = 64
    i = np.arange(h)[:, None].astype(float)
    j = np.arange(w)[None, :].astype(float)
    off_center = np.sqrt((i - 20.0) ** 2 + (j - 44.0) ** 2)
    centered = np.sqrt((i - h / 2.0) ** 2 + (j - w / 2.0) ** 2)
    img = np.stack(
        [
            255.0 * (0.35 * (i + j) / (h + w - 2) + 0.65 * off_center / off_center.max()),
            255.0 * centered / centered.max(),
            127.5 + 127.5 * np.sin(centered / 5.0),
        ],
        axis=-1,
    )
    src = tmp_path / "gradient.ppm"
    io.write_ppm(img, src, "P6")
    original, _ = io.read_ppm(src)

    errors = {}
    for k in (1, 2, 4, 8):
        out = tmp_path / f"rank{k}.ppm"
        image_rank_approx(src, k, out)
        approx, _ = io.read_ppm(out)
        errors[k] = [
            float(np.linalg.norm(approx[:, :, ch] - original[:, :, ch])) for ch in range(3)
        ]
    decreasing = all(
        errors[a][ch] > errors[b][ch]
        for a, b in ((1, 2), (2, 4), (4, 8))
        for ch in range(3)
    )

    full = tmp_path / "full.ppm"
    image_rank_approx(src, min(h, w), full)
    restored, _ = io.read_ppm(full)
    max_byte_err = float(np.abs(restored - original).max())

    checks = [
        (decreasing, "per-channel error strictly decreases over k in (1, 2, 4, 8)"),
        (max_byte_err <= 1.0, f"full-rank reconstruction within 1 byte (max {max_byte_err})"),
    ]
    _verdict(acceptance_log, 9, checks)
