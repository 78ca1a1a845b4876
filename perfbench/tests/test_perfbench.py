"""Tests of the benchmark itself: generators, oracles, tracing and metric names.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from agecomp import linalg, schedule  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def x():
    return workloads.lee_carter(np.random.default_rng(7), 30, 12)


# ---------------------------------------------------------------------------
# generators

def test_lee_carter_deterministic_per_seed():
    a = workloads.lee_carter(np.random.default_rng(3), 38, 19)
    b = workloads.lee_carter(np.random.default_rng(3), 38, 19)
    c = workloads.lee_carter(np.random.default_rng(4), 38, 19)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_lee_carter_spectrum_has_level_and_trend(x):
    s = np.linalg.svd(x, compute_uv=False)
    assert s[0] > 10 * s[1] > 10 * s[2]


def test_svd_scale_inputs_follow_seed(tmp_path):
    a = workloads.SvdScale(ROOT, tmp_path, 1).inputs
    b = workloads.SvdScale(ROOT, tmp_path, 1).inputs
    c = workloads.SvdScale(ROOT, tmp_path, 2).inputs
    assert [m.shape for m in a] == [(64, 64), (200, 100), (38, 400)]
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    assert not any(np.allclose(p, q) for p, q in zip(a, c))


def test_batch_inputs_follow_seed(tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b = (workloads.BatchProject(ROOT, d, 1) for d in dirs[:2])
    c = workloads.BatchProject(ROOT, dirs[2], 2)
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.csv_path.read_bytes() != c.csv_path.read_bytes()
    assert a.cov_rows == b.cov_rows != c.cov_rows


# ---------------------------------------------------------------------------
# oracles fire on perturbed results

def test_singular_values_oracle(x):
    s = linalg.svd(x).s
    assert oracles.singular_values(s, x)
    assert oracles.singular_values(s[:2], x)
    bad = s.copy()
    bad[1] *= 1 + 1e-6
    assert not oracles.singular_values(bad, x)
    assert not oracles.singular_values(np.append(s, 1.0), x)


def test_explained_share_oracle(x):
    shares = linalg.explained_share(linalg.svd(x))
    assert oracles.explained_share(shares, x)
    assert not oracles.explained_share(shares[::-1], x)


def test_truncation_oracle_scaled_component_and_dropped_column(x):
    f = linalg.svd(x)
    assert oracles.truncation(linalg.reconstruct_rank(f, 2), x, 2)
    assert not oracles.truncation(linalg.reconstruct_rank(f, 2), x, 3)
    scaled = (f.u[:, :2] * (f.s[:2] * [1.0, 1.001])) @ f.v[:, :2].T
    assert not oracles.truncation(scaled, x, 2)
    assert not oracles.truncation(linalg.reconstruct_rank(f, 2)[:, 1:], x, 2)


def test_lstsq_betas_oracle(x):
    m = schedule.ScheduleMatrix([str(i) for i in range(30)], [str(j) for j in range(12)], x, "log")
    basis = schedule.build_basis(m, 2)
    betas = np.vstack([schedule.fit_weights(m.column(lab), basis).betas for lab in m.schedule_labels])
    ref = oracles.lstsq_betas(basis.components, x)
    assert oracles.bad_rows(betas, ref, oracles.BETA_ATOL) == 0
    bumped = betas.copy()
    bumped[4, 1] += 1e-7
    assert oracles.bad_rows(bumped, ref, oracles.BETA_ATOL) == 1
    assert oracles.bad_rows(betas[:, :1], ref, oracles.BETA_ATOL) == 12


def test_prediction_and_ols_oracles():
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(40), rng.uniform(50, 70, 40), rng.uniform(0, 20, 40)])
    y = design @ [1.0, -0.02, 0.01] + rng.normal(0, 0.01, 40)
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    assert oracles.ols(coef, design, y)
    assert not oracles.ols(coef * [1.0, 1.0, 1.001], design, y)
    comps = rng.normal(size=(10, 1))
    expected = oracles.predictions(comps, coef[None, :], design)
    actual = np.column_stack([comps[:, 0] * (coef[0] + coef[1] * r[1] + coef[2] * r[2]) for r in design])
    assert oracles.bad_rows(actual.T, expected.T, oracles.PRED_ATOL) == 0
    actual[3, 5] += 1e-9
    assert oracles.bad_rows(actual.T, expected.T, oracles.PRED_ATOL) == 1


def test_mean_abs_error_and_round_trip_oracles():
    a, b = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
    assert oracles.mean_abs_error(np.abs(a - b).mean(), a, b)
    assert not oracles.mean_abs_error(np.abs(a - b).mean() + 1e-9, a, b)
    assert not oracles.mean_abs_error(0.0, a, b[:, :2])
    assert oracles.shortest_repr(["0.1", "-3.25e-05", "nan"])
    assert not oracles.shortest_repr(["0.10"])
    assert not oracles.shortest_repr(["1.0000000000000002e-1"])
    assert not oracles.shortest_repr(["v1"])


def test_workload_check_fires_on_perturbed_output(tmp_path):
    wl = workloads.SvdScale(ROOT, tmp_path, 0)
    f, shares, recon, basis, weights, smooth = wl.run(2)
    good = workloads.Tally()
    wl.check(2, (f, shares, recon, basis, weights, smooth), good)
    assert good.attempted == 8 and good.failed == 0
    bad = workloads.Tally()
    recon[2] = recon[2][:, :-1]
    weights = weights * [1.0, 1.0, 1.01]
    wl.check(2, (f, shares, recon, basis, weights, smooth), bad)
    assert bad.failed == 2 and bad.attempted == 8


def test_agincourt_check_fires_on_edited_files(tmp_path):
    wl = workloads.AgincourtCli(ROOT, tmp_path, 0)
    tally = workloads.Tally()
    wl.check(0, wl.run(0), tally)
    assert tally.failed == 0 and tally.attempted > len(wl.argvs)
    codes, sink = wl.run(1)
    weights = wl.out / "weights.csv"
    lines = weights.read_text().splitlines()
    weights.write_text("\n".join(lines[:-1]) + "\n")  # drop the 2011 row
    (wl.out / "clusters.json").write_text("{}")
    tally = workloads.Tally()
    wl.check(1, (codes, sink), tally)
    failed = " ".join(tally.messages)
    assert "decompose basis x weights" in failed
    assert "cluster output differs" in failed


# ---------------------------------------------------------------------------
# tracing

def test_tracer_spans_account_for_the_pass(x):
    tracer = tracing.Tracer()
    m = schedule.ScheduleMatrix([str(i) for i in range(30)], [str(j) for j in range(12)], x, "log")
    tracer.run_pass(lambda: schedule.smooth_matrix(m, 2))
    assert schedule.smooth_matrix.__module__ == "agecomp.schedule"
    assert not hasattr(schedule.smooth_matrix, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.pass", "schedule.smooth_matrix", "linalg.svd",
                     "linalg.canonicalize_signs", "linalg.reconstruct_rank"]
    out = tracing.summarize(tracer.spans, tracer.counts, 1)
    modules = sum(out[f"{mod}.self_s"] for mod in (*tracing.MODULES, "bench"))
    assert modules == pytest.approx(out["trace.pass_s_mean"], rel=1e-9)
    assert out["linalg.svd.calls"] == 1 and out["linalg.svd.cells"] == x.size
    assert out["schedule.smooth_matrix.self_s"] > 0


def test_tracer_sees_names_imported_by_name(x):
    tracer = tracing.Tracer()
    from agecomp import regress

    basis = schedule.build_basis(
        schedule.ScheduleMatrix([str(i) for i in range(30)], [str(j) for j in range(12)], x, "log"), 1)
    tracer.run_pass(lambda: regress.reconstruct(basis, [1.0]))
    assert [s[0] for s in tracer.spans] == ["bench.pass", "schedule.reconstruct"]
    assert [s[3] for s in tracer.spans] == [-1, 0]


def test_tail_has_ten_passes_beyond():
    value, pct, beyond = run.tail(list(range(100, 0, -1)))
    assert (value, beyond) == (90, 10)
    assert pct == pytest.approx(100 * 89 / 99)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)


# ---------------------------------------------------------------------------
# metric names against BENCHMARK.json and the contract limits

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END.items())
    assert layers == run.per_layer_names()
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [n for n, _ in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(set(n for n, _ in e2e + layers)) == len(e2e) + len(layers)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(u) for _, u in e2e + layers)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
