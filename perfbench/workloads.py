"""The benchmark's three workloads: inputs, one timed pass, and its checks.

Each workload object is built from (checkout root, scratch dir, seed); its
constructor is the set-up that ``setup_s`` times.  ``run(i)`` is one timed
pass over input ``i % round_size`` and calls agecomp only through module
attributes (``schedule.fit_weights``, never a name bound here), so a
Tracer's wrappers see every call.  ``check(i, out, tally)`` runs after the
timer stops and scores the outputs with the numpy-only oracles.
"""

import contextlib
import io as stdio
import json
import shutil
from pathlib import Path

import numpy as np
import oracles
from agecomp import cli, linalg, regress, schedule
from agecomp import io as aio


class Tally:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what: str, count: int = 1) -> None:
        """Record `count` operations; `ok` is a bool or the number that failed."""
        bad = (0 if ok else count) if isinstance(ok, (bool, np.bool_)) else int(ok)
        self.attempted += count
        self.failed += bad
        if bad and len(self.messages) < 20:
            self.messages.append(f"{what}: {bad} of {count} failed")


def lee_carter(rng, n_ages: int, n_years: int) -> np.ndarray:
    """Synthetic log mortality log m(x,t) = a_x + b_x k_t + eps (Lee & Carter 1992).

    a_x is a bathtub age pattern (high infant mortality, a minimum in
    childhood, a Gompertz rise), b_x sums to 1, k_t is a random walk with
    drift centred on zero, so the spectrum has one dominant level component,
    one trend component and a noise bulk, as real mortality surfaces do.
    """
    x = np.linspace(0.0, 1.0, n_ages)
    a = -8.0 + 4.5 * np.exp(-25.0 * x) + 7.0 * x + rng.normal(0.0, 0.05, n_ages)
    b = rng.uniform(0.5, 1.5, n_ages)
    b /= b.sum()
    drift = 1.5 * n_ages / n_years
    k = np.cumsum(rng.normal(-drift, drift, n_years))
    k -= k.mean()
    return a[:, None] + b[:, None] * k[None, :] + rng.normal(0.0, 0.03, (n_ages, n_years))


def _write_matrix_csv(path, group_labels, schedule_labels, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["age", *schedule_labels]) + "\n")
        for label, row in zip(group_labels, data):
            fh.write(",".join([label, *map(repr, row.tolist())]) + "\n")


def _covariate_design(path):
    """(labels, [1, e0, delta] design) of a covariate CSV; delta in points."""
    header, labels, cov = oracles.csv_matrix(path)
    col = {name: cov[:, i] for i, name in enumerate(header[1:])}
    delta = 100.0 * np.maximum(col["hiv_prev"] - col["art_cov"], 0.0)
    return labels, np.column_stack([np.ones(len(labels)), col["e0"], delta])


class AgincourtCli:
    """The README chain on the bundled Agincourt tables, in-process via cli.main."""

    name = "agincourt_cli"
    round_size = 1
    FILES = (
        "agincourt_mx_female.csv",
        "agincourt_mx_male.csv",
        "agincourt_covariates.csv",
        "agincourt_fx.csv",
        "agincourt_fx_covariates.csv",
    )

    def __init__(self, root: Path, workdir: Path, seed: int):
        # The inputs are the paper's fixed tables; the seed does not alter them.
        inp, out = workdir / "in", workdir / "out"
        inp.mkdir()
        out.mkdir()
        for name in self.FILES:
            shutil.copyfile(root / "data" / name, inp / name)
        self.inp, self.out = inp, out
        f, m, cov = (str(inp / n) for n in self.FILES[:3])
        fx, fx_cov = (str(inp / n) for n in self.FILES[3:])

        def o(name):
            return str(out / name)

        mx = [f, m, "--log", "--concat-sexes"]
        years = oracles.read_csv(f)[0][1:]
        self.argvs = [
            ["decompose", *mx, "-c", "2", "--out", o("basis.json"), "--weights", o("weights.csv")],
            ["regress", "--weights", o("weights.csv"), "--covariates", cov,
             "--predictors", "e0,delta", "--out", o("models.json")],
            ["predict", "--basis", o("basis.json"), "--models", o("models.json"),
             "--covariates", cov, "--out", o("predicted.csv")],
            ["smooth", *mx, "-c", "19", "--out", o("observed_log.csv")],
            ["metrics", o("predicted.csv"), o("observed_log.csv"), "--out", o("metrics.json")],
            ["cluster", "--weights", o("weights.csv"), "--k-range", "1:6", "--seed", "0",
             "--out", o("clusters.json")],
            ["fit", *mx, "--basis", o("basis.json"), "--out", o("fitted.csv")],
            ["reconstruct", "--basis", o("basis.json"), "--weights", o("weights.csv"),
             "--out", o("back.csv")],
            *(["lifetable", path, "--column", year, "--out", o(f"lt_{sex}_{year}.csv")]
              for sex, path in (("F", f), ("M", m)) for year in years),
            ["decompose", fx, "--log", "-c", "2", "--out", o("fx_basis.json"),
             "--weights", o("fx_weights.csv")],
            ["regress", "--weights", o("fx_weights.csv"), "--covariates", fx_cov,
             "--predictors", "tfr", "--out", o("fx_models.json")],
        ]
        self.years = years
        self.cluster_ref = None

    def schedules(self, index: int) -> int:
        # decomposed (mx, smooth -c 19, fx) + fitted + predicted + reconstructed
        # + life tables (two sexes)
        return (3 + 1 + 1 + 1 + 2) * len(self.years)

    def describe(self) -> dict:
        return {
            "mx_log": [38, len(self.years)],
            "fx_log": [7, len(self.years)],
            "cli_invocations": len(self.argvs),
            "input_bytes": sum((self.inp / n).stat().st_size for n in self.FILES),
        }

    def run(self, index: int):
        sink = stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [cli.main(argv) for argv in self.argvs], sink

    def check(self, index: int, result, tally: Tally) -> None:
        codes, sink = result
        for argv, code in zip(self.argvs, codes):
            tally.check(code == 0, f"agecomp {argv[0]} exited {code}")
        if any(codes):
            tally.messages.append(sink.getvalue()[-500:])
            return
        out = self.out
        _, _, female = oracles.csv_matrix(self.inp / self.FILES[0])
        _, _, male = oracles.csv_matrix(self.inp / self.FILES[1])
        log_mx = np.log(np.vstack([female, male]))
        _, _, fx = oracles.csv_matrix(self.inp / self.FILES[3])
        log_fx = np.log(fx)

        basis = json.loads((out / "basis.json").read_text(encoding="utf-8"))
        comps = np.array([[float(v) for v in c] for c in basis["components"]]).T
        tally.check(oracles.singular_values([float(v) for v in basis["singular_values"]], log_mx),
                    "decompose singular values")
        _, _, weights = oracles.csv_matrix(out / "weights.csv")
        tally.check(oracles.truncation(comps @ weights.T, log_mx, 2), "decompose basis x weights")
        _, _, smooth = oracles.csv_matrix(out / "observed_log.csv")
        tally.check(oracles.truncation(smooth, log_mx, 19), "smooth -c 19")
        _, _, back = oracles.csv_matrix(out / "back.csv")
        tally.check(oracles.truncation(back, log_mx, 2), "reconstruct")
        _, _, fitted = oracles.csv_matrix(out / "fitted.csv")
        tally.check(oracles.bad_rows(fitted[:, :2], oracles.lstsq_betas(comps, log_mx),
                                     oracles.BETA_ATOL), "fit betas", len(self.years))

        models = json.loads((out / "models.json").read_text(encoding="utf-8"))["models"]
        coefs = np.array([[float(v) for v in m["coefficients"]] for m in models])
        _, design = _covariate_design(self.inp / self.FILES[2])
        for i, row in enumerate(coefs):
            tally.check(oracles.ols(row, design, weights[:, i]), f"regress v{i + 1}")
        _, _, predicted = oracles.csv_matrix(out / "predicted.csv")
        tally.check(oracles.bad_rows(predicted.T, oracles.predictions(comps, coefs, design).T,
                                     oracles.PRED_ATOL), "predict", len(self.years))
        mae = float(json.loads((out / "metrics.json").read_text(encoding="utf-8"))["mae"])
        tally.check(oracles.mean_abs_error(mae, predicted, smooth), "metrics mae")

        clusters = (out / "clusters.json").read_bytes()
        if self.cluster_ref is None:
            self.cluster_ref = clusters
        tally.check(clusters == self.cluster_ref, "cluster output differs from warm-up")

        for year in self.years:
            for sex in "FM":
                header, _, lt = oracles.csv_matrix(out / f"lt_{sex}_{year}.csv")
                ok = header[-1] == "ex" and lt.shape == (19, 7) and np.all(np.isfinite(lt[:-1]))
                tally.check(bool(ok) and 0.0 < lt[0, -1] < 120.0, f"lifetable {sex} {year}")

        fx_basis = json.loads((out / "fx_basis.json").read_text(encoding="utf-8"))
        tally.check(oracles.singular_values([float(v) for v in fx_basis["singular_values"]], log_fx),
                    "fertility singular values")
        _, _, fx_w = oracles.csv_matrix(out / "fx_weights.csv")
        fx_models = json.loads((out / "fx_models.json").read_text(encoding="utf-8"))["models"]
        _, _, tfr = oracles.csv_matrix(self.inp / self.FILES[4])
        fx_design = np.column_stack([np.ones(len(tfr)), tfr[:, 0]])
        for i, m in enumerate(fx_models):
            tally.check(oracles.ols([float(v) for v in m["coefficients"]], fx_design, fx_w[:, i]),
                        f"fertility regress v{i + 1}")

        numbers = [v for c in basis["components"] for v in c] + basis["singular_values"]
        numbers += [v for m in models for v in m["coefficients"]]
        tally.check(oracles.shortest_repr(numbers), "JSON numbers round-trip")
        for name in ("weights.csv", "predicted.csv", "back.csv", "fitted.csv"):
            cells = oracles.read_csv(out / name)[2]
            tally.check(oracles.shortest_repr(v for row in cells for v in row),
                        f"{name} numbers round-trip")


class SvdScale:
    """Seeded Lee-Carter matrices through the library's SVD-based calls."""

    name = "svd_scale"
    SHAPES = ((64, 64), (200, 100), (38, 400))
    round_size = len(SHAPES)
    C = 3

    def __init__(self, root: Path, workdir: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [lee_carter(rng, k, l) for k, l in self.SHAPES]
        self.labels = [
            ([f"a{i}" for i in range(k)], [f"t{j}" for j in range(l)]) for k, l in self.SHAPES
        ]

    def schedules(self, index: int) -> int:
        return self.SHAPES[index % self.round_size][1]

    def describe(self) -> dict:
        return {"shapes": [list(s) for s in self.SHAPES],
                "input_bytes": sum(x.nbytes for x in self.inputs)}

    def run(self, index: int):
        i = index % self.round_size
        x = self.inputs[i]
        m = schedule.ScheduleMatrix(*self.labels[i], x, schedule.LOG)
        f = linalg.svd(x)
        shares = linalg.explained_share(f)
        recon = [linalg.reconstruct_rank(f, c) for c in range(1, self.C + 1)]
        basis = schedule.build_basis(m, self.C)
        weights = schedule.svd_weights(m, self.C)
        smooth = schedule.smooth_matrix(m, self.C)
        return f, shares, recon, basis, weights, smooth

    def check(self, index: int, result, tally: Tally) -> None:
        x = self.inputs[index % self.round_size]
        f, shares, recon, basis, weights, smooth = result
        tally.check(oracles.singular_values(f.s, x) and f.rank == min(x.shape), "svd values")
        tally.check(oracles.explained_share(shares, x), "explained_share")
        for c, r in enumerate(recon, start=1):
            tally.check(oracles.truncation(r, x, c), f"reconstruct_rank c={c}")
        tally.check(oracles.singular_values(basis.singular_values, x), "build_basis values")
        tally.check(oracles.truncation(basis.components @ weights.T, x, self.C),
                    "build_basis x svd_weights")
        tally.check(oracles.truncation(smooth.data, x, self.C), "smooth_matrix")


class BatchProject:
    """Fixed Agincourt c=2 basis and models applied to many synthetic schedules."""

    name = "batch_project"
    round_size = 1
    N = 5000

    def __init__(self, root: Path, workdir: Path, seed: int):
        data = root / "data"
        female = aio.load_schedule_csv(data / "agincourt_mx_female.csv", log=True)
        male = aio.load_schedule_csv(data / "agincourt_mx_male.csv", log=True)
        rates = schedule.concat_sexes(female, male)
        self.basis = schedule.build_basis(rates, 2)
        fitted = schedule.svd_weights(rates, 2)
        covariates = aio.load_covariates_csv(data / "agincourt_covariates.csv")
        self.models = regress.fit_weight_models(fitted, covariates, ["e0", "delta"])

        rng = np.random.default_rng(seed)
        n = self.N
        w = fitted[rng.integers(fitted.shape[0], size=n)]
        w = w + rng.normal(0.0, 0.25, (n, 2)) * fitted.std(axis=0)
        noise = rng.normal(0.0, 0.05, (self.basis.n_groups, n))
        self.rates = np.exp(self.basis.components @ w.T + noise)
        self.labels = [f"s{i:05d}" for i in range(n)]
        self.csv_path = workdir / "schedules.csv"
        _write_matrix_csv(self.csv_path, self.basis.group_labels, self.labels, self.rates)
        e0 = rng.uniform(45.0, 75.0, n)
        delta = rng.uniform(0.0, 25.0, n)
        self.cov_rows = [{"e0": a, "delta": d} for a, d in zip(e0.tolist(), delta.tolist())]
        self.design = np.column_stack([np.ones(n), e0, delta])
        self.pred_labels = [f"p{i:05d}" for i in range(n)]
        self.pred_path = workdir / "predicted.csv"
        self.weights_path = workdir / "weights.csv"
        self._expected = None

    def schedules(self, index: int) -> int:
        return 2 * self.N  # fitted + predicted

    def describe(self) -> dict:
        return {"schedules": [self.basis.n_groups, self.N], "covariate_rows": self.N,
                "input_bytes": self.csv_path.stat().st_size}

    def run(self, index: int):
        m = aio.load_schedule_csv(self.csv_path, log=True)
        fits = [schedule.fit_weights(m.column(label), self.basis) for label in m.schedule_labels]
        preds = [regress.predict_schedule(self.basis, self.models, row) for row in self.cov_rows]
        weights = np.vstack([f.betas for f in fits])
        predicted = schedule.ScheduleMatrix(
            m.group_labels, self.pred_labels, np.column_stack([p.values for p in preds]), m.scale
        )
        metrics = schedule.error_metrics(predicted, m)
        aio.write_schedule_csv(predicted, self.pred_path)
        residuals = [f.residual_norm for f in fits]
        aio.write_weights_csv(m.schedule_labels, weights, self.weights_path, residuals)
        return m, weights, residuals, predicted, metrics

    def expected(self):
        """(log rates, lstsq weights, predicted schedules), computed once."""
        if self._expected is None:
            log_y = np.log(self.rates)
            comps = self.basis.components
            coefs = [m.coefficients for m in self.models]
            self._expected = (log_y, oracles.lstsq_betas(comps, log_y),
                              oracles.predictions(comps, coefs, self.design))
        return self._expected

    def check(self, index: int, result, tally: Tally) -> None:
        m, weights, residuals, predicted, metrics = result
        log_y, betas, preds = self.expected()
        n = self.N
        loaded = m.data.shape == log_y.shape and np.allclose(m.data, log_y, rtol=1e-14, atol=0.0)
        tally.check(bool(loaded) and list(m.schedule_labels) == self.labels, "load_schedule_csv")
        tally.check(oracles.bad_rows(weights, betas, oracles.BETA_ATOL), "fit_weights", n)
        tally.check(oracles.bad_rows(predicted.data.T, preds.T, oracles.PRED_ATOL),
                    "predict_schedule", n)
        tally.check(oracles.mean_abs_error(metrics.mae, predicted.data, m.data), "error_metrics")

        header, rows, cells = oracles.read_csv(self.pred_path)
        back = np.array([[float(v) for v in row] for row in cells])
        ok = header[1:] == self.pred_labels and rows == list(m.group_labels)
        ok = ok and np.array_equal(back, predicted.data)
        tally.check(ok and oracles.shortest_repr(v for row in cells for v in row),
                    "write_schedule_csv round-trip")
        header, rows, cells = oracles.read_csv(self.weights_path)
        back = np.array([[float(v) for v in row] for row in cells])
        ok = header == ["schedule", "v1", "v2", "residual_norm"] and rows == self.labels
        ok = ok and np.array_equal(back, np.column_stack([weights, residuals]))
        tally.check(ok and oracles.shortest_repr(v for row in cells for v in row),
                    "write_weights_csv round-trip")


WORKLOADS = {w.name: w for w in (AgincourtCli, SvdScale, BatchProject)}
