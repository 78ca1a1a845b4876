import argparse
import csv
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np
import pytest
from test_golden import chain_argvs

import agecomp
from agecomp import cli, cluster, io, linalg, schedule
from agecomp.cli import _build_parser, main

MX_F = "agincourt_mx_female.csv"
MX_M = "agincourt_mx_male.csv"


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """This environment, with the directory agecomp was imported from first
    on PYTHONPATH, so a child interpreter finds the same package."""
    path = [str(Path(agecomp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.fixture()
def basis_and_weights(tmp_path, data_dir):
    basis = tmp_path / "basis.json"
    weights = tmp_path / "weights.csv"
    code = run(
        "decompose", data_dir / MX_F, data_dir / MX_M,
        "--log", "--concat-sexes", "--components", "2",
        "--out", basis, "--weights", weights,
    )
    assert code == 0
    return basis, weights


class TestDecomposeReconstruct:
    def test_decompose_writes_published_singular_values(self, basis_and_weights):
        basis = io.basis_from_json(basis_and_weights[0].read_text())
        assert basis.singular_values[0] == pytest.approx(123.8, abs=0.1)
        assert len(basis.group_labels) == 38

    def test_full_rank_round_trip(self, tmp_path, data_dir):
        basis = tmp_path / "b.json"
        weights = tmp_path / "w.csv"
        out = tmp_path / "back.csv"
        assert run(
            "decompose", data_dir / MX_F, data_dir / MX_M,
            "--log", "--concat-sexes", "--full",
            "--out", basis, "--weights", weights,
        ) == 0
        assert run("reconstruct", "--basis", basis, "--weights", weights, "--out", out) == 0
        back = io.load_schedule_csv(out)
        female = io.load_schedule_csv(data_dir / MX_F, log=True)
        male = io.load_schedule_csv(data_dir / MX_M, log=True)
        original = np.vstack([female.data, male.data])
        np.testing.assert_allclose(back.data, original, atol=1e-8)


class TestSmoothFit:
    def test_smooth_output_rank(self, tmp_path, data_dir):
        out = tmp_path / "smooth.csv"
        assert run(
            "smooth", data_dir / MX_F, data_dir / MX_M,
            "--log", "--concat-sexes", "--components", "2", "--out", out,
        ) == 0
        data = io.load_schedule_csv(out).data
        assert data.shape == (38, 19)
        assert np.linalg.matrix_rank(data, tol=1e-8) == 2

    def test_fit_recovers_svd_weights(self, tmp_path, data_dir, basis_and_weights):
        basis, weights = basis_and_weights
        fitted = tmp_path / "fitted.csv"
        assert run(
            "fit", data_dir / MX_F, data_dir / MX_M,
            "--log", "--concat-sexes", "--basis", basis, "--out", fitted,
        ) == 0
        _, w_ref = io.load_weights_csv(weights)
        _, w_fit = io.load_weights_csv(fitted)
        np.testing.assert_allclose(w_fit, w_ref, atol=1e-8)


class TestRegressPredictMetrics:
    def test_pipeline_reproduces_published_error(self, tmp_path, data_dir, basis_and_weights, capsys):
        basis, weights = basis_and_weights
        models = tmp_path / "models.json"
        assert run(
            "regress", "--weights", weights,
            "--covariates", data_dir / "agincourt_covariates.csv",
            "--predictors", "e0,delta", "--out", models,
        ) == 0
        printed = capsys.readouterr().out
        assert "R^2=0.996" in printed

        pred = tmp_path / "pred.csv"
        assert run(
            "predict", "--basis", basis, "--models", models,
            "--covariates", data_dir / "agincourt_covariates.csv", "--out", pred,
        ) == 0

        metrics_out = tmp_path / "metrics.json"
        assert run(
            "metrics", pred, tmp_path / "obs.csv", "--log",
            "--out", metrics_out,
        ) == 2  # missing observed file is a data error

        obs = tmp_path / "obs.csv"
        assert run(
            "smooth", data_dir / MX_F, data_dir / MX_M,
            "--log", "--concat-sexes", "--components", "19", "--out", obs,
        ) == 0
        assert run("metrics", pred, obs, "--out", metrics_out) == 0
        payload = json.loads(metrics_out.read_text())
        assert float(payload["mae"]) == pytest.approx(0.083, abs=0.003)


class TestCluster:
    def test_seeded_runs_are_byte_identical(self, tmp_path, basis_and_weights):
        # the fit has no random start: --seed is accepted and ignored
        _, weights = basis_and_weights
        outs = [tmp_path / "c1.json", tmp_path / "c2.json", tmp_path / "c3.json"]
        for out, seed in zip(outs, ("0", "0", "7")):
            assert run(
                "cluster", "--weights", weights, "--k-range", "1:6",
                "--seed", seed, "--out", out,
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        seed = next(a for a in subparsers.choices["cluster"]._actions if a.dest == "seed")
        assert seed.help.startswith("accepted and ignored")
        payload = json.loads(outs[0].read_text())
        assert set(payload["labels"]) == set(str(y) for y in range(1993, 2012))

    @staticmethod
    def _cluster_scaled(e, tmp_path, basis_and_weights, capsys):
        # (exit code, printed) of clustering the bundled weights x 10^e
        labels, w = io.load_weights_csv(basis_and_weights[1])
        scaled = tmp_path / "w.csv"
        scaled.write_text("schedule,v1,v2\n" + "".join(
            f"{lab},{a!r},{b!r}\n" for lab, (a, b) in zip(labels, (w * 10.0**e).tolist())))
        capsys.readouterr()
        code = run("cluster", "--weights", scaled, "--k-range", "1:6", "--out", tmp_path / "c.json")
        return code, capsys.readouterr()

    @staticmethod
    def _assert_the_unscaled_selection(e, code, printed):
        # full k=2 with no warning, its BIC moved from -157.15 by
        # 2 * n * d * e * ln 10 = 2 * 19 * 2 * e * ln 10
        assert code == 0
        assert printed.err == ""
        assert printed.out.startswith("selected full mixture with k=2 (BIC ")
        bic = float(printed.out.split("BIC ")[1].rstrip(")\n"))
        assert bic == pytest.approx(-157.14822873376943 + 2 * 19 * 2 * e * math.log(10), abs=0.006)

    @pytest.mark.parametrize("e", [154, 155, 160, 200, 300, 307])
    def test_weights_past_1e154(self, e, tmp_path, basis_and_weights, capsys):
        # past 1e154 the squares of the weights overflow, and the fit runs on
        # them times a power of two
        code, printed = self._cluster_scaled(e, tmp_path, basis_and_weights, capsys)
        self._assert_the_unscaled_selection(e, code, printed)
        if e == 154:
            assert printed.out == "selected full mixture with k=2 (BIC 26792.31)\n"

    @pytest.mark.parametrize("e", [-150, -155, -160, -200, -300])
    def test_weights_below_1e_150(self, e, tmp_path, basis_and_weights, capsys):
        # the variance floor, 1e-8 times the data variance, would be subnormal
        # at e = -150 and -155, and 0 below; the fit runs on the weights times
        # a power of two, so the floor is a normal float at every e
        code, printed = self._cluster_scaled(e, tmp_path, basis_and_weights, capsys)
        self._assert_the_unscaled_selection(e, code, printed)

    def test_csv_format(self, tmp_path, basis_and_weights):
        _, weights = basis_and_weights
        out = tmp_path / "c.csv"
        assert run(
            "cluster", "--weights", weights, "--k-range", "2",
            "--family", "full", "--out", out, "--format", "csv",
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "schedule,cluster"
        assert len(lines) == 20


class TestReentrancy:
    # main() builds its parser once per process; each call must still start
    # from the parser's defaults, not from the previous call's options
    def test_decompose_without_weights_does_not_rewrite_them(
        self, tmp_path, data_dir, basis_and_weights
    ):
        _, weights = basis_and_weights
        weights.unlink()
        assert run(
            "decompose", data_dir / MX_F, data_dir / MX_M,
            "--log", "--concat-sexes", "--out", tmp_path / "again.json",
        ) == 0
        assert not weights.exists()

    def test_cluster_default_format_after_csv(self, tmp_path, basis_and_weights):
        _, weights = basis_and_weights
        csv_out = tmp_path / "c.csv"
        json_out = tmp_path / "c.json"
        common = ("cluster", "--weights", weights, "--k-range", "2", "--family", "full")
        assert run(*common, "--out", csv_out, "--format", "csv") == 0
        assert run(*common, "--out", json_out) == 0
        assert csv_out.read_text().startswith("schedule,cluster\n")
        assert json.loads(json_out.read_text())["k"] == 2


class TestImage:
    def _write_solid(self, path, color=(40, 80, 120), size=9):
        pixels = np.tile(np.array(color, dtype=float), (size, size, 1))
        io.write_ppm(pixels, path, "P6")
        return pixels

    def test_solid_color_rank1_identical(self, tmp_path):
        src = tmp_path / "solid.ppm"
        out = tmp_path / "out.ppm"
        self._write_solid(src)
        assert run("image", src, "--components", "1", "--out", out) == 0
        assert src.read_bytes() == out.read_bytes()

    def test_full_rank_within_one_byte(self, tmp_path, rng):
        src = tmp_path / "noise.ppm"
        out = tmp_path / "out.ppm"
        pixels = rng.integers(0, 256, size=(12, 10, 3)).astype(float)
        io.write_ppm(pixels, src, "P6")
        assert run("image", src, "--components", "10", "--out", out) == 0
        back, _ = io.read_ppm(out)
        assert np.abs(back - pixels).max() <= 1.0

    def test_p3_input_preserves_format(self, tmp_path):
        src = tmp_path / "solid3.ppm"
        out = tmp_path / "out3.ppm"
        self._write_solid(src, size=4)
        pixels, _ = io.read_ppm(src)
        io.write_ppm(pixels, src, "P3")
        assert run("image", src, "--components", "1", "--out", out) == 0
        assert out.read_bytes().startswith(b"P3")

    def test_all_zero_channels(self, tmp_path):
        red = np.zeros((6, 8, 3))
        red[:, :, 0] = np.add.outer(10.0 * np.arange(6), 5.0 * np.arange(8))  # rank 2
        for name, pixels in (("red", red), ("black", np.zeros((6, 8, 3)))):
            src, out = tmp_path / f"{name}.ppm", tmp_path / f"{name}_out.ppm"
            io.write_ppm(pixels, src, "P6")
            assert run("image", src, "--components", "2", "--out", out) == 0
            back, _ = io.read_ppm(out)
            np.testing.assert_array_equal(back, pixels)


class TestLifetablePlot:
    def test_lifetable_csv(self, tmp_path, data_dir, capsys):
        out = tmp_path / "lt.csv"
        assert run(
            "lifetable", data_dir / MX_F, "--column", "2011", "--out", out,
        ) == 0
        assert "life expectancy" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "age,mx,ax,qx,lx,Lx,Tx,ex"
        assert len(lines) == 20
        assert not any(cell == "nan" for line in lines for cell in line.split(","))

    def test_lifetable_empty_column_is_not_the_first_schedule(self, tmp_path, data_dir, capsys):
        out = tmp_path / "lt.csv"
        assert run("lifetable", data_dir / MX_F, "--column", "", "--out", out) == 2
        printed = capsys.readouterr()
        assert printed.err == "data error: no schedule labeled ''\n" and printed.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("group, rate, code, err", [
        ("5-9", -0.001, 2, "data error: mortality rates must be nonnegative and finite"),
        ("85+", 0.0, 2, "data error: open-ended age group needs a positive rate"),
        ("1-4", 1e308, 3, "numerical failure: life table qx is not finite at age '1-4'"),
    ], ids=["negative", "zero-open-rate", "overflow"])
    def test_a_fault_in_one_column_fails_only_that_column(self, group, rate, code, err,
                                                          tmp_path, data_dir, capsys):
        table = io.load_schedule_csv(data_dir / MX_F)
        data = table.data.copy()
        data[table.group_labels.index(group), table.schedule_labels.index("1993")] = rate
        faulty, want, got = tmp_path / "faulty.csv", tmp_path / "want.csv", tmp_path / "got.csv"
        io.write_schedule_csv(replace(table, data=data), faulty)
        assert run("lifetable", data_dir / MX_F, "--column", "2011", "--out", want) == 0
        printed = capsys.readouterr()
        assert run("lifetable", faulty, "--column", "2011", "--out", got) == 0
        assert capsys.readouterr() == printed
        assert got.read_bytes() == want.read_bytes()
        assert run("lifetable", faulty, "--column", "1993", "--out", tmp_path / "lt.csv") == code
        assert capsys.readouterr() == ("", err + "\n")
        assert not (tmp_path / "lt.csv").exists()


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert run("bogus-command") == 1
        assert run("decompose") == 1  # missing inputs and --out
        assert run(
            "decompose", tmp_path / "a.csv", tmp_path / "b.csv",
            "--components", "1", "--out", tmp_path / "o.json",
        ) == 1  # two inputs without --concat-sexes

    def test_data_errors(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert run(
            "decompose", missing, "--components", "1", "--out", tmp_path / "o.json"
        ) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("age,x\n0,abc\n")
        assert run(
            "decompose", bad, "--components", "1", "--out", tmp_path / "o.json"
        ) == 2

    def test_undecodable_input_is_a_data_error(self, tmp_path, basis_and_weights, capsys):
        basis, weights = basis_and_weights
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00x")
        out = tmp_path / "o.csv"
        for argv in (
            ("smooth", bad, "--components", "1", "--out", out),  # schedule CSV
            ("reconstruct", "--basis", basis, "--weights", bad, "--out", out),
            ("reconstruct", "--basis", bad, "--weights", weights, "--out", out),
        ):
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "not UTF-8" in err
            assert err.count("\n") == 1
        assert not out.exists()

    def test_numerical_errors(self, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("age,x,y\n0,2,1\n1,1,1\n2,1,2\n")
        assert run(
            "decompose", small, "--components", "5", "--out", tmp_path / "o.json"
        ) == 3

    def test_lapack_failure_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        small = tmp_path / "small.csv"
        small.write_text("age,x,y\n0,2,1\n1,1,1\n2,1,2\n")
        assert run(
            "decompose", small, "--components", "1", "--out", tmp_path / "o.json"
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "agecomp.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert "decompose" in result.stdout

    def test_package_module_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "agecomp", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert "decompose" in result.stdout

    def test_package_binds_only_its_submodules_and_version(self):
        public = [name for name in vars(agecomp) if not name.startswith("_")]
        assert [n for n in public if getattr(agecomp, n).__name__ != f"agecomp.{n}"] == []
        assert isinstance(agecomp.__version__, str)

    def test_readme_lists_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = next(b for b in readme.split("```sh")[1:] if "agecomp decompose" in b)
        listed = {line.split()[1] for line in block.split("```")[0].splitlines()
                  if line.startswith("agecomp ")}
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert listed == set(subparsers.choices)

    def test_readme_python_quick_start_runs(self, monkeypatch):
        root = Path(__file__).parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n")[1].split("```")[0]
        monkeypatch.chdir(root)  # the block names data files relative to the repo root
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["predicted"].values.shape == (38,)


def one_error_line(capsys, prefix="data error:"):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
    return err


class TestOneDecomposition:
    @pytest.mark.parametrize("argv", [
        ("decompose", "-c", "2", "--out", "b.json", "--weights", "w.csv"),
        ("decompose", "--full", "--out", "b.json"),
        ("smooth", "-c", "2", "--out", "s.csv"),
    ])
    def test_each_command_factorizes_once(self, argv, tmp_path, data_dir, monkeypatch):
        calls = []
        real = linalg.svd

        def counted(x):
            calls.append(np.shape(x))
            return real(x)

        monkeypatch.setattr(linalg, "svd", counted)
        command, *rest = argv
        inputs = (data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes")
        assert run(command, *inputs, *(tmp_path / a if "." in a else a for a in rest)) == 0
        assert calls == [(38, 19)]


class TestWholeMatrixCommands:
    def test_fit_with_a_basis_of_other_groups(self, tmp_path, data_dir, basis_and_weights, capsys):
        basis, _ = basis_and_weights
        out = tmp_path / "f.csv"
        assert run("fit", data_dir / "agincourt_fx.csv", "--log", "--basis", basis, "--out", out) == 2
        assert one_error_line(capsys) == (
            "data error: schedule and basis age-group labels do not match "
            "at position 1: '15-19' vs 'F_0'\n"
        )
        assert not out.exists()

    def _models(self, tmp_path, data_dir, weights, predictors):
        models = tmp_path / "m.json"
        assert run(
            "regress", "--weights", weights, "--covariates", data_dir / "agincourt_covariates.csv",
            "--predictors", predictors, "--out", models,
        ) == 0
        return models

    def test_predict_with_a_model_count_other_than_c(self, tmp_path, data_dir, capsys):
        full = tmp_path / "full.json"
        weights = tmp_path / "w.csv"
        assert run(
            "decompose", data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes",
            "-c", "3", "--out", full, "--weights", weights,
        ) == 0
        models = self._models(tmp_path, data_dir, weights, "e0")
        two = tmp_path / "two.json"
        assert run(
            "decompose", data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes",
            "-c", "2", "--out", two,
        ) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run(
            "predict", "--basis", two, "--models", models,
            "--covariates", data_dir / "agincourt_covariates.csv", "--out", out,
        ) == 2
        assert "3 components, basis has 2" in one_error_line(capsys)
        assert not out.exists()

    def test_predict_with_intercept_only_models(self, tmp_path, data_dir, basis_and_weights):
        # a model without predictors is one constant; it holds for every schedule
        basis, weights = basis_and_weights
        models = self._models(tmp_path, data_dir, weights, "e0")
        payload = json.loads(models.read_text())
        only = payload["models"][1]
        only["predictor_names"] = []
        for key in ("coefficients", "standard_errors", "t_values", "p_values"):
            only[key] = only[key][:1]
        models.write_text(json.dumps(payload))
        out = tmp_path / "p.csv"
        assert run(
            "predict", "--basis", basis, "--models", models,
            "--covariates", data_dir / "agincourt_covariates.csv", "--out", out,
        ) == 0
        b = io.basis_from_json(basis.read_text())
        m = io.models_from_json(models.read_text())
        covariates = io.load_covariates_csv(data_dir / "agincourt_covariates.csv")
        predicted = io.load_schedule_csv(out, log=False).data
        for h in range(len(covariates.labels)):
            row = {name: float(col[h]) for name, col in covariates.columns.items()}
            w = [model.predict_one(row) for model in m]
            np.testing.assert_allclose(predicted[:, h], b.components @ w, rtol=1e-14, atol=1e-14)


class TestRegressAndModels:
    def _weights(self, tmp_path, data_dir, c):
        weights = tmp_path / "w.csv"
        assert run(
            "decompose", data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes",
            "-c", c, "--out", tmp_path / "b.json", "--weights", weights,
        ) == 0
        return weights

    def _regress(self, tmp_path, data_dir, weights, predictors):
        return run(
            "regress", "--weights", weights, "--covariates", data_dir / "agincourt_covariates.csv",
            "--predictors", predictors, "--out", tmp_path / "m.json",
        )

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_regress_factorizes_the_design_once(self, c, tmp_path, data_dir, monkeypatch):
        weights = self._weights(tmp_path, data_dir, c)
        calls = []
        real = np.linalg.svd

        def counted(x, *args, **kwargs):  # LAPACK: the design skips the kept SVD
            calls.append(np.shape(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert self._regress(tmp_path, data_dir, weights, "e0,delta") == 0
        assert calls == [(19, 3)]
        assert len(json.loads((tmp_path / "m.json").read_text())["models"]) == c

    def test_regress_rejects_a_repeated_predictor(self, tmp_path, data_dir, capsys):
        weights = self._weights(tmp_path, data_dir, 2)
        capsys.readouterr()
        assert self._regress(tmp_path, data_dir, weights, "e0,e0") == 2
        assert "duplicate predictor label 'e0'" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key", ["coefficients", "standard_errors", "t_values", "p_values"])
    def test_predict_rejects_a_model_with_the_wrong_term_count(self, key, tmp_path, data_dir, capsys):
        assert self._regress(tmp_path, data_dir, self._weights(tmp_path, data_dir, 2), "e0,delta") == 0
        models = tmp_path / "m.json"
        payload = json.loads(models.read_text())
        payload["models"][0][key] = payload["models"][0][key][:2]
        models.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run(
            "predict", "--basis", tmp_path / "b.json", "--models", models,
            "--covariates", data_dir / "agincourt_covariates.csv", "--out", out,
        ) == 2
        assert f"model 1 has 2 {key} for 3 terms" in one_error_line(capsys)
        assert not out.exists()

    def test_clamped_delta_is_one_warning_line_per_run(self, tmp_path, data_dir, capsys):
        weights = self._weights(tmp_path, data_dir, 2)
        with (data_dir / "agincourt_covariates.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][1:3] == ["hiv_prev", "art_cov"]
        for row in rows[1:4]:
            row[2] = "0.9"  # coverage above prevalence
        covariates = tmp_path / "cov.csv"
        with covariates.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        for _ in range(2):
            assert run(
                "regress", "--weights", weights, "--covariates", covariates,
                "--predictors", "e0,delta", "--out", tmp_path / "m.json",
            ) == 0
            assert capsys.readouterr().err == (
                "warning: ART coverage exceeds HIV prevalence in 3 of 19 entries; "
                "delta clamped to 0\n"
            )

    def _predict(self, tmp_path, data_dir, basis, models):
        return run(
            "predict", "--basis", basis, "--models", models,
            "--covariates", data_dir / "agincourt_covariates.csv", "--out", tmp_path / "p.csv",
        )

    def test_predict_with_a_deeply_nested_basis_json(self, tmp_path, data_dir, capsys):
        assert self._regress(tmp_path, data_dir, self._weights(tmp_path, data_dir, 2), "e0") == 0
        basis = tmp_path / "b.json"
        basis.write_text("[" * 200_000)
        capsys.readouterr()
        assert self._predict(tmp_path, data_dir, basis, tmp_path / "m.json") == 2
        assert "malformed basis JSON" in one_error_line(capsys)
        assert not (tmp_path / "p.csv").exists()

    def test_predict_with_a_list_as_predictor_name(self, tmp_path, data_dir, capsys):
        assert self._regress(tmp_path, data_dir, self._weights(tmp_path, data_dir, 2), "e0") == 0
        models = tmp_path / "m.json"
        payload = json.loads(models.read_text())
        payload["models"][0]["predictor_names"] = [["e0"]]
        models.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self._predict(tmp_path, data_dir, tmp_path / "b.json", models) == 2
        assert "malformed models JSON" in one_error_line(capsys)
        assert not (tmp_path / "p.csv").exists()

    def test_predict_with_an_observation_count_past_the_float_range(
        self, tmp_path, data_dir, capsys
    ):
        # JSON's 1e999 reads as float inf, which int() refuses with an OverflowError
        assert self._regress(tmp_path, data_dir, self._weights(tmp_path, data_dir, 2), "e0") == 0
        models = tmp_path / "m.json"
        text = models.read_text()
        assert text.count('"n": 19') == 2
        models.write_text(text.replace('"n": 19', '"n": 1e999', 1))
        capsys.readouterr()
        assert self._predict(tmp_path, data_dir, tmp_path / "b.json", models) == 2
        assert one_error_line(capsys) == (
            "data error: malformed models JSON: cannot convert float infinity to integer\n")
        assert not (tmp_path / "p.csv").exists()

    def test_predict_rejects_a_model_without_an_intercept(self, tmp_path, data_dir, capsys):
        assert self._regress(tmp_path, data_dir, self._weights(tmp_path, data_dir, 2), "e0") == 0
        models = tmp_path / "m.json"
        payload = json.loads(models.read_text())
        entry = payload["models"][1]
        entry["with_intercept"] = False
        for key in ("coefficients", "standard_errors", "t_values", "p_values"):
            entry[key] = entry[key][1:]  # one value per predictor, as a no-intercept fit has
        models.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self._predict(tmp_path, data_dir, tmp_path / "b.json", models) == 2
        assert "model 2 has no intercept" in one_error_line(capsys)
        assert not (tmp_path / "p.csv").exists()

    def test_reconstruct_with_lists_as_group_labels(self, tmp_path, data_dir, capsys):
        weights = self._weights(tmp_path, data_dir, 2)
        basis = tmp_path / "b.json"
        payload = json.loads(basis.read_text())
        payload["group_labels"] = [[label] for label in payload["group_labels"]]
        basis.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run("reconstruct", "--basis", basis, "--weights", weights, "--out", out) == 2
        assert "malformed basis JSON" in one_error_line(capsys)
        assert not out.exists()

    def test_fit_with_an_all_zero_basis_component(self, tmp_path, data_dir, capsys):
        self._weights(tmp_path, data_dir, 2)
        basis = tmp_path / "b.json"
        payload = json.loads(basis.read_text())
        payload["components"][1] = ["0"] * len(payload["components"][1])
        basis.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "f.csv"
        assert run("fit", data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes",
                   "--basis", basis, "--out", out) == 2
        assert "component 2 is all zeros" in one_error_line(capsys)  # and no warning: line
        assert not out.exists()

    @pytest.mark.parametrize("factor", [1e-200, 1e200, 1e300])
    def test_fit_with_a_basis_component_whose_squared_norm_is_out_of_range_exits_0(
        self, factor, tmp_path, data_dir, capsys
    ):
        # the component is projected on prescaled, so its weights are the
        # unscaled ones over the factor
        self._weights(tmp_path, data_dir, 2)
        basis, scaled = tmp_path / "b.json", tmp_path / "scaled.json"
        payload = json.loads(basis.read_text())
        payload["components"][1] = [repr(float(v) * factor) for v in payload["components"][1]]
        scaled.write_text(json.dumps(payload))
        fits = []
        for path in (basis, scaled):
            out = tmp_path / f"{path.stem}.csv"
            capsys.readouterr()
            assert run("fit", data_dir / MX_F, data_dir / MX_M, "--log", "--concat-sexes",
                       "--basis", path, "--out", out) == 0
            assert capsys.readouterr().err == ""
            fits.append(np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3)))
        unscaled, got = fits
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got[:, 0], unscaled[:, 0])
        np.testing.assert_allclose(got[:, 1], unscaled[:, 1] / factor, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[:, 2], unscaled[:, 2], rtol=1e-12, atol=0.0)

    @staticmethod
    def _decompose_and_fit(tmp_path, name, labels, header, values, capsys):
        """Exit status, stderr and the fitted rows of ``decompose`` then ``fit``."""
        rates, basis, out = (tmp_path / f"{name}.{ext}" for ext in ("csv", "json", "fit.csv"))
        rates.write_text(",".join(header) + "\n" + "".join(
            label + "".join(f",{float(v)!r}" for v in row) + "\n" for label, row in zip(labels, values)))
        capsys.readouterr()
        assert run("decompose", rates, "-c", 2, "--out", basis,
                   "--weights", tmp_path / f"{name}.w.csv") == 0
        code = run("fit", rates, "--basis", basis, "--out", out)
        err = capsys.readouterr().err
        fitted = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3)) if code == 0 else None
        return code, err, fitted

    @pytest.mark.parametrize("factor", [1e-310, 1e-318])
    def test_decompose_then_fit_of_subnormal_rates_exits_0(self, factor, tmp_path, data_dir, capsys):
        # the rates and the basis are fitted prescaled, and each weight is scaled
        # back by one power of two, which stays in range
        with (data_dir / MX_F).open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        labels = [row[0] for row in rows]
        values = np.array([[float(v) * factor for v in row[1:]] for row in rows])
        code, err, fitted = self._decompose_and_fit(tmp_path, "sub", labels, header, values, capsys)
        assert code == 0 and err == ""
        assert np.isfinite(fitted).all()
        if factor == 1e-310:
            # the same values, scaled into range exactly by a power of two
            _, _, in_range = self._decompose_and_fit(
                tmp_path, "normal", labels, header, np.ldexp(values, 1030), capsys)
            np.testing.assert_allclose(fitted[:, :2], in_range[:, :2], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e307])
    def test_regress_on_weights_whose_squares_leave_the_float_range(
        self, scale, tmp_path, capsys
    ):
        weights, covariates, out = tmp_path / "w.csv", tmp_path / "x.csv", tmp_path / "m.json"
        rows = [(1.0, 2.0, 1.0), (2.0, 3.0, 2.0), (3.0, 5.0, 3.0), (4.0, 4.0, 4.0), (6.0, 7.0, 6.0)]
        weights.write_text("schedule,v1,v2\n" + "".join(
            f"y{i},{v1 * scale!r},{v2 * scale!r}\n" for i, (v1, v2, _) in enumerate(rows)))
        covariates.write_text("label,x\n" + "".join(
            f"y{i},{x!r}\n" for i, (*_, x) in enumerate(rows)))
        assert run("regress", "--weights", weights, "--covariates", covariates,
                   "--predictors", "x", "--out", out) == 0
        printed = capsys.readouterr()
        assert printed.err == "" and printed.out.splitlines()[1].endswith("; R^2=0.8694")
        model = json.loads(out.read_text())["models"][1]
        values = [float(v) for key in ("standard_errors", "t_values") for v in model[key]]
        assert all(np.isfinite(values)) and all(v != 0.0 for v in values)

    @pytest.mark.parametrize("v2, x", [
        ([2e307, 3e307, 5e307, 4e307, 7e307], [1e-10, 2e-10, 3e-10, 4e-10, 6e-10]),
        ([0.0] * 5, [1.0, 2.0, 3.0, 4.0, 6.0]),
    ], ids=["slope-past-the-float-maximum", "all-zero-weights"])
    def test_regress_to_a_model_that_is_not_finite_fails(self, v2, x, tmp_path, capsys):
        # the slope of v2 is inf, or its standard errors are 0 and its t-values 0/0
        weights, covariates, out = tmp_path / "w.csv", tmp_path / "x.csv", tmp_path / "m.json"
        v1 = [1.0, 2.0, 3.0, 4.0, 6.0]
        weights.write_text("schedule,v1,v2\n" + "".join(
            f"y{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(v1, v2))))
        covariates.write_text("label,x\n" + "".join(f"y{i},{v!r}\n" for i, v in enumerate(x)))
        assert run("regress", "--weights", weights, "--covariates", covariates,
                   "--predictors", "x", "--out", out) == 3
        err = one_error_line(capsys, "numerical failure:")  # and no warning: line
        assert "response column 2:" in err and "not finite" in err
        assert not out.exists()


class TestCsvRobustness:
    def test_cell_over_the_csv_field_limit(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("age,x\n0," + "1" * 200_000 + "\n1,2\n")
        out = tmp_path / "o.csv"
        assert run("smooth", big, "-c", "1", "--out", out) == 2
        assert "big.csv" in one_error_line(capsys)
        assert not out.exists()

    def test_a_header_cell_over_the_csv_field_limit_is_one_data_error_line(self, tmp_path, capsys):
        # csv.reader reads the header (loadtxt the data rows, as above)
        limit = csv.field_size_limit()
        path, out = tmp_path / "wide.csv", tmp_path / "lt.csv"
        path.write_text(f"age,{'x' * (limit + 1)}\n0,0.5\n")
        assert run("lifetable", path, "--out", out) == 2
        assert capsys.readouterr() == (
            "", f"data error: {path}: field larger than field limit ({limit})\n")
        assert not out.exists()

    def test_a_header_without_data_rows_prints_no_warning(self, tmp_path, capsys):
        # loadtxt warns on input with no data rows; the one line is the data error
        path, out = tmp_path / "h.csv", tmp_path / "o.csv"
        path.write_text("age,x\n\n")
        assert run("smooth", path, "-c", "1", "--out", out) == 2
        err = one_error_line(capsys)
        assert err.endswith("h.csv: need a header row and at least one data row\n")
        assert not out.exists()

    def _weights(self, tmp_path, weights, first, second):
        with weights.open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][0], rows[2][0] = first, second
        path = tmp_path / "w.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_cluster_csv_quotes_labels(self, tmp_path, basis_and_weights):
        _, weights = basis_and_weights
        out = tmp_path / "c.csv"
        path = self._weights(tmp_path, weights, "a,1", 'say "b"')
        assert run("cluster", "--weights", path, "--k-range", "1:2", "--format", "csv",
                   "--out", out) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 20 and all(len(row) == 2 for row in rows)
        assert [rows[1][0], rows[2][0]] == ["a,1", 'say "b"']

    def test_a_k_range_past_the_row_count_stops_at_it(
        self, tmp_path, basis_and_weights, capsys, monkeypatch
    ):
        # only k <= n rows can be fitted, so a range past n costs no more than
        # 1:n; the spy fails a range past n before any fit or list is built
        _, weights = basis_and_weights
        n, select = 19, cluster.select_by_bic

        def spy(points, k_range, families):
            assert len(k_range) <= n + 1, f"k range of {len(k_range)} over {n} rows"
            return select(points, k_range, families)

        monkeypatch.setattr(cluster, "select_by_bic", spy)
        outs = [tmp_path / "whole.json", tmp_path / "huge.json"]
        for k_range, out in zip(("1:19", "1:1000000000"), outs):
            assert run("cluster", "--weights", weights, "--k-range", k_range, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()
        out = tmp_path / "none.json"
        assert run("cluster", "--weights", weights, "--k-range", "20:1000000000",
                   "--out", out) == 3
        assert "cannot fit 20 clusters to 19 observations" in one_error_line(
            capsys, "numerical failure:")
        assert not out.exists()

    def test_duplicate_weight_labels_are_rejected(self, tmp_path, basis_and_weights, capsys):
        _, weights = basis_and_weights
        out = tmp_path / "c.json"
        path = self._weights(tmp_path, weights, "a", "a")
        assert run("cluster", "--weights", path, "--k-range", "1:2", "--out", out) == 2
        assert "duplicate weight row label 'a'" in one_error_line(capsys)
        assert not out.exists()


# (argv, exit code, message) of commands that fail with one stderr line; a name in
# braces stands for one of the test's files
ONE_LINE_FAILURES = [
    (("smooth", "{F}", "--concat-sexes", "-c", "1", "--out", "{out}"), 1,
     "--concat-sexes needs exactly two inputs"),
    (("decompose", "{F}", "--components", "0", "--out", "{out}"), 1,
     "--components must be >= 1"),
    (("regress", "--weights", "{other}", "--covariates", "{COV}", "--predictors", "e0",
      "--out", "{out}"), 2,
     "weight labels and covariate labels do not match at position 1: 'x' vs '1993'"),
    (("regress", "--weights", "{W}", "--covariates", "{COV}", "--predictors", ",",
      "--out", "{out}"), 1, "--predictors must name at least one covariate column"),
    (("cluster", "--weights", "{W}", "--k-range", "a:b", "--out", "{out}"), 1,
     "bad --k-range 'a:b'"),
    (("cluster", "--weights", "{W}", "--k-range", "0:2", "--out", "{out}"), 1,
     "--k-range must cover k >= 1"),
    (("cluster", "--weights", "{W}", "--k-range", "3:2", "--out", "{out}"), 1,
     "--k-range '3:2' is empty"),
    (("lifetable", "{ages}", "--out", "{out}"), 2, "cannot parse age-group label 'x-y'"),
    (("plot", "{F}", "--out", "{out}"), 1, "invalid choice: 'plot'"),
]


class TestOneLineFailures:
    @pytest.mark.parametrize("argv, code, text", ONE_LINE_FAILURES)
    def test_exit_code_and_message(self, argv, code, text, tmp_path, data_dir,
                                   basis_and_weights, capsys):
        _, weights = basis_and_weights
        other, ages = tmp_path / "other.csv", tmp_path / "ages.csv"
        other.write_text("schedule,v1\nx,1\ny,2\n")
        ages.write_text("age,a\n0,0.1\nx-y,0.05\n5+,0.2\n")
        paths = {"F": data_dir / MX_F, "W": weights, "COV": data_dir / "agincourt_covariates.csv",
                 "other": other, "ages": ages, "out": tmp_path / "out"}
        assert run(*(a.format(**paths) for a in argv)) == code
        prefix = "usage error:" if code == 1 else "data error:"
        assert text in one_error_line(capsys, prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ages", [("0", "nan", "5+"), ("nan", "1", "5+"), ("0", "1", "nan"),
                                      ("0", "1", "inf")])
    def test_lifetable_needs_a_finite_ascending_age_grid(self, ages, tmp_path, capsys):
        path, out = tmp_path / "lt.csv", tmp_path / "lt_out.csv"
        path.write_text("age,a\n" + "".join(f"{g},{r}\n" for g, r in zip(ages, (0.1, 0.05, 0.2))))
        assert run("lifetable", path, "--out", out) == 2
        assert "finite and strictly ascending" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("case, column, message", [
        # n m overflows in the closed interval 1-4, so its qx is inf / inf
        ("closed", "x", "life table qx is not finite at age '1'"),
        # 1 / m and l / m of the subnormal open-interval rate overflow
        ("subnormal", "2000", "life table ax is not finite at age '85+'"),
    ], ids=["closed-rate-1e308", "bundled-rates-times-1e-320"])
    def test_lifetable_that_overflows_is_a_numerical_failure(
        self, case, column, message, tmp_path, data_dir, capsys
    ):
        path, out = tmp_path / "mx.csv", tmp_path / "lt.csv"
        if case == "closed":
            path.write_text("age,x\n0,0.01\n1,1e308\n5,0.01\n10+,0.2\n")
        else:
            table = io.load_schedule_csv(data_dir / MX_F)
            io.write_schedule_csv(replace(table, data=table.data * 1e-320), path)
        assert run("lifetable", path, "--column", column, "--out", out) == 3
        printed = capsys.readouterr()
        assert printed.err == f"numerical failure: {message}\n" and printed.out == ""
        assert not out.exists()

    def test_metrics_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        pred, obs, out = tmp_path / "p.csv", tmp_path / "o.csv", tmp_path / "m.json"
        pred.write_text("age,a,b\n0,1e308,-1e308\n")
        obs.write_text("age,a,b\n0,-1e308,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("metrics", pred, obs, "--out", out) == 3
        assert "overflow" in one_error_line(capsys, "numerical failure:")  # no warning: lines
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("decompose", "--full"), ("decompose", "-c", "2"), ("smooth", "-c", "1"),
    ])
    def test_an_all_zero_matrix_is_named(self, argv, tmp_path, capsys):
        path, out = tmp_path / "zero.csv", tmp_path / "out"
        path.write_text("age,a,b\n0,0,0\n1,0,0\n")
        assert run(argv[0], path, *argv[1:], "--out", out) == 3
        err = one_error_line(capsys, "numerical failure:")
        assert err == "numerical failure: the matrix is all zeros (numerical rank 0)\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_fit_residual_norms_at_extreme_magnitudes(self, scale, tmp_path, capsys):
        # the squared residuals overflow (1e200) or underflow (1e-200) float64
        cells = np.array([[1.0, 2.0, 4.0], [2.0, 1.0, 1.0], [3.0, 1.0, 2.0]])
        path, basis, out = tmp_path / "m.csv", tmp_path / "b.json", tmp_path / "w.csv"

        def residual_norms(data):
            io.write_schedule_csv(schedule.ScheduleMatrix(list("xyz"), list("abc"), data), path)
            assert run("fit", path, "--basis", basis, "--out", out) == 0
            return np.array([float(line.split(",")[-1]) for line in out.read_text().split()[1:]])

        io.write_schedule_csv(schedule.ScheduleMatrix(list("xyz"), list("abc"), cells), path)
        assert run("decompose", path, "-c", "1", "--out", basis) == 0
        ref = residual_norms(cells)
        assert np.all(ref > 0)
        np.testing.assert_allclose(residual_norms(cells * scale), ref * scale, rtol=1e-13)
        assert "warning:" not in capsys.readouterr().err

    def test_fit_near_the_float_ceiling(self, tmp_path, capsys):
        # the products y'comp of cells up to 1.7e308 overflow float64
        cells = np.random.default_rng(0).uniform(1.0, 1.7, size=(6, 5))
        path, basis, out = tmp_path / "m.csv", tmp_path / "b.json", tmp_path / "w.csv"

        def fitted(data):
            io.write_schedule_csv(schedule.ScheduleMatrix(list("uvwxyz"), list("abcde"), data), path)
            assert run("fit", path, "--basis", basis, "--out", out) == 0
            return np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3))

        io.write_schedule_csv(schedule.ScheduleMatrix(list("uvwxyz"), list("abcde"), cells), path)
        assert run("decompose", path, "-c", "2", "--out", basis) == 0
        ref = fitted(cells)
        np.testing.assert_allclose(fitted(cells * 1e308), ref * 1e308, rtol=1e-14)
        assert "warning:" not in capsys.readouterr().err

    @pytest.mark.parametrize("last", ["1", "1.5"])
    def test_fit_residual_norm_past_the_float_maximum(self, last, tmp_path, capsys):
        # the 2-norm of the +-1.7e308 residual overflows float64
        ones, basis = tmp_path / "ones.csv", tmp_path / "b.json"
        path, out = tmp_path / "big.csv", tmp_path / "w.csv"
        ones.write_text(f"age,a\na,1\nb,1\nc,1\nd,{last}\n")
        path.write_text("age,x\na,1.7e308\nb,-1.7e308\nc,1.7e308\nd,-1.7e308\n")
        assert run("decompose", ones, "-c", "1", "--out", basis) == 0
        capsys.readouterr()
        assert run("fit", path, "--basis", basis, "--out", out) == 3
        err = one_error_line(capsys, "numerical failure:")  # and no warning: line before it
        assert err == "numerical failure: fitted weights or residuals overflow float64\n"
        assert not out.exists()

    def test_decompose_near_the_float_limit_reports_a_finite_share(self, tmp_path, capsys):
        path, out = tmp_path / "big.csv", tmp_path / "b.json"
        path.write_text("age,a,b\n0,1e200,2e200\n1,3e200,1e200\n2,2e200,3e200\n")
        assert run("decompose", path, "-c", "1", "--out", out) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        share = float(captured.out.split("explaining ")[1].split("%")[0])
        assert 0.0 < share <= 100.0


class TestLabelsMatch:
    # files of the same shape are compared label by label, not by position
    @pytest.mark.parametrize("observed, text", [
        ("age,2001,2000\n0,0.2,0.1\n1,0.4,0.3\n",
         "predicted and observed schedule labels do not match at position 1: '2000' vs '2001'"),
        ("age,x,y\n10,0.1,0.2\n20,0.3,0.4\n",
         "predicted and observed age-group labels do not match at position 1: '0' vs '10'"),
        ("age,2000,2001,2002\n0,0.1,0.2,0.0\n1,0.3,0.4,0.0\n",
         "predicted and observed schedule labels do not match in count: 2 vs 3"),
    ], ids=["swapped-schedules", "other-labels", "one-more-schedule"])
    def test_metrics_needs_the_same_labels(self, observed, text, tmp_path, capsys):
        pred, obs, out = tmp_path / "p.csv", tmp_path / "o.csv", tmp_path / "m.json"
        pred.write_text("age,2000,2001\n0,0.1,0.2\n1,0.3,0.4\n")
        obs.write_text(observed)
        assert run("metrics", pred, obs, "--out", out) == 2
        assert one_error_line(capsys) == f"data error: {text}\n"
        assert not out.exists()

    def test_fit_needs_the_basis_age_groups(self, tmp_path, data_dir, capsys):
        basis, other, out = tmp_path / "fb.json", tmp_path / "other.csv", tmp_path / "w.csv"
        assert run("decompose", data_dir / MX_F, "--log", "-c", "2", "--out", basis) == 0
        matrix = io.load_schedule_csv(data_dir / MX_F)
        ages = [g.split("-")[0].rstrip("+") for g in matrix.group_labels]  # 0, 1, 5, ..., 85
        io.write_schedule_csv(replace(matrix, group_labels=ages), other)
        capsys.readouterr()
        assert run("fit", other, "--log", "--basis", basis, "--out", out) == 2
        assert one_error_line(capsys) == (
            "data error: schedule and basis age-group labels do not match "
            "at position 2: '1' vs '1-4'\n"
        )
        assert not out.exists()


class TestMetricsOutput:
    @pytest.fixture()
    def pair(self, tmp_path, data_dir):
        """A log-scale smoothed female matrix and the natural-scale file it came from."""
        pred = tmp_path / "pred.csv"
        assert run("smooth", data_dir / MX_F, "--log", "-c", "2", "--out", pred) == 0
        return pred, data_dir / MX_F

    def test_csv_format(self, pair, tmp_path):
        pred, raw = pair
        out = tmp_path / "m.csv"
        assert run("metrics", pred, raw, "--log", "--format", "csv", "--out", out) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mae", "p1", "p25", "p50", "p75", "p99"]
        assert len(rows) == 2 and all(float(v) >= 0 for v in rows[1])

    def test_without_out_prints_to_stdout(self, pair, tmp_path, capsys):
        pred, raw = pair
        out = tmp_path / "m.json"
        assert run("metrics", pred, raw, "--log", "--out", out) == 0
        capsys.readouterr()
        assert run("metrics", pred, raw, "--log") == 0
        assert capsys.readouterr().out == out.read_text()

    def test_log_applies_to_the_observed_file_only(self, pair, tmp_path, capsys):
        # the predicted CSV is taken to be on the scale that --log gives the observed one
        pred, raw = pair
        matrix = io.load_schedule_csv(raw)
        logged = tmp_path / "logged.csv"
        io.write_schedule_csv(
            schedule.ScheduleMatrix(matrix.group_labels, matrix.schedule_labels,
                                    np.log(matrix.data)), logged)
        assert run("metrics", pred, raw, "--log") == 0
        with_log = json.loads(capsys.readouterr().out)
        assert run("metrics", pred, logged) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == with_log["mae"]


class TestRunScript:
    """``agecomp run SCRIPT`` runs the script's commands in this one process."""

    @staticmethod
    def _script(path, *lines):
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    def test_skips_blank_and_comment_lines_and_splits_as_a_shell(self, tmp_path, data_dir, capsys):
        spaced = tmp_path / "a dir" / "lt.csv"
        spaced.parent.mkdir()
        table = ["lifetable", str(data_dir / MX_F), "--column", "2011", "--out"]
        script = self._script(tmp_path / "s.txt", "# life tables", "", "   # indented",
                              shlex.join([*table, str(spaced)]))
        assert run("run", script) == 0
        assert capsys.readouterr() == ("life expectancy at birth for '2011': 65.59 years\n", "")
        assert run(*table, tmp_path / "lt.csv") == 0
        assert spaced.read_bytes() == (tmp_path / "lt.csv").read_bytes()

    @pytest.mark.parametrize("line, code, text", [
        ("lifetable {missing} --out {out}", 2, "line 3: data error: cannot read"),
        ("decompose --components 2", 1, "line 3: usage error: the following arguments"),
        ("lifetable 'unclosed", 1, "line 3: usage error: No closing quotation"),
        ("run {script}", 1, "line 3: usage error: a script cannot run a script"),
    ])
    def test_stops_at_the_first_failing_line(self, line, code, text, tmp_path, data_dir, capsys):
        first, last, script = tmp_path / "first.csv", tmp_path / "last.csv", tmp_path / "s.txt"
        table = f"lifetable {data_dir / MX_F} --out"
        line = line.format(missing=tmp_path / "nope.csv", out=tmp_path / "o.csv", script=script)
        self._script(script, f"{table} {first}", "", line, f"{table} {last}")
        assert run("run", script) == code
        one_error_line(capsys, prefix=text)
        assert first.exists() and not last.exists()

    def test_a_help_line_prints_help_and_the_script_goes_on(self, tmp_path, data_dir, capsys):
        out = tmp_path / "lt.csv"
        script = self._script(tmp_path / "s.txt", "lifetable --help",
                              f"lifetable {data_dir / MX_F} --out {out}")
        assert run("run", script) == 0
        assert capsys.readouterr().out.startswith("usage: agecomp lifetable")
        assert out.exists()

    def test_a_warning_prints_once_per_command(self, tmp_path, data_dir, basis_and_weights, capsys):
        _, weights = basis_and_weights
        with (data_dir / "agincourt_covariates.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:4]:
            row[2] = "0.9"  # ART coverage above HIV prevalence
        covariates = tmp_path / "cov.csv"
        with covariates.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        line = (f"regress --weights {weights} --covariates {covariates} "
                f"--predictors e0,delta --out {tmp_path / 'm.json'}")
        capsys.readouterr()
        assert run("run", self._script(tmp_path / "s.txt", line, line)) == 0
        assert capsys.readouterr().err == 2 * (
            "warning: ART coverage exceeds HIV prevalence in 3 of 19 entries; delta clamped to 0\n"
        )

    # str.splitlines breaks a line at each of these; a script line does not
    NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
    def test_a_quoted_argument_keeps_what_splitlines_breaks_at(self, char, tmp_path, data_dir,
                                                                capsys):
        odd = tmp_path / f"f{char}x.csv"
        odd.write_bytes((data_dir / MX_F).read_bytes())
        table = ["lifetable", str(odd), "--column", "2011", "--out"]
        assert run(*table, tmp_path / "direct.csv") == 0
        direct = capsys.readouterr()
        script = self._script(tmp_path / "s.txt", shlex.join([*table, str(tmp_path / "run.csv")]))
        assert run("run", script) == 0
        assert capsys.readouterr() == direct
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_line_numbers_count_line_ends_only(self, source, end, tmp_path, data_dir,
                                               monkeypatch, capsys):
        first = tmp_path / "first.csv"
        lines = ["# " + "".join(self.NOT_LINE_ENDS),
                 f"lifetable {data_dir / MX_F} --out {first}",
                 f"lifetable {tmp_path / 'nope.csv'} --out {tmp_path / 'o.csv'}"]
        raw = end.join(lines).encode("utf-8") + end.encode()
        if source == "file":
            (tmp_path / "s.txt").write_bytes(raw)
            assert run("run", tmp_path / "s.txt") == 2
        else:
            monkeypatch.setattr(sys, "stdin", TextIOWrapper(BytesIO(raw)))
            assert run("run", "-") == 2
        one_error_line(capsys, prefix="line 3: data error: cannot read")
        assert first.exists()

    @pytest.mark.parametrize("raw, code, err", [
        (b"lifetable {F} --column 1993 --out {out}\n", 0, ""),
        (b"\xff\n", 2, "data error: stdin: not UTF-8 text (invalid start byte)\n"),
    ])
    def test_dash_reads_the_script_from_stdin(self, raw, code, err, tmp_path, data_dir,
                                              monkeypatch, capsys):
        raw = raw.replace(b"{F}", bytes(data_dir / MX_F)).replace(b"{out}", bytes(tmp_path / "o"))
        monkeypatch.setattr(sys, "stdin", TextIOWrapper(BytesIO(raw)))
        assert run("run", "-") == code
        assert capsys.readouterr().err == err
        assert (tmp_path / "o").exists() == (code == 0)


def parse_outcome(parse, argv, capsys):
    """What ``parse`` makes of argv: its namespace; or the usage error, whose
    text is the one stderr line after "usage error: "; or the exit code and
    the help printed before it."""
    try:
        return "namespace", vars(parse(argv))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out


def top_level_extras(parser):
    """Dests of the top-level actions other than -h and the subcommands, and
    the names of its set_defaults."""
    return [*(a.dest for a in parser._actions
              if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))),
            *parser._defaults]


def one_pass_argvs():
    """The argvs whose one-pass parse is checked: the golden chain's, those of
    the one-line failures, help, no arguments and argv faults."""
    commands = sorted(next(a for a in _build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices)
    files = {"F": "f.csv", "W": "w.csv", "COV": "cov.csv", "other": "other.csv",
             "ages": "ages.csv", "out": "out"}
    return [
        *(pytest.param(argv, id=f"chain-{i}") for i, argv in enumerate(chain_argvs(Path("out")))),
        *(pytest.param([a.format(**files) for a in argv], id=f"failure-{i}")
          for i, (argv, _, _) in enumerate(ONE_LINE_FAILURES)),
        pytest.param([], id="no-arguments"),
        pytest.param(["-h"], id="-h"),
        pytest.param(["--help"], id="--help"),
        *(pytest.param([command, "--help"], id=f"{command}---help") for command in commands),
        pytest.param(["plot"], id="plot"),
        pytest.param(["lifetable", "mx.csv", "--out", "o.csv", "--bogus"], id="unrecognized"),
        pytest.param(["decompose", "mx.csv", "--out", "b.json", "-c"], id="missing-value"),
        pytest.param(["cluster", "--out", "c.json"], id="missing-required"),
    ]


class TestOnePassParse:
    """``cli._parse`` parses a command's argv with that command's own parser
    only (``tests/test_golden.py`` counts the passes), and gives what the
    top-level parser's two passes give."""

    @pytest.mark.parametrize("argv", one_pass_argvs())
    def test_one_pass_gives_what_the_top_level_parser_gives(self, argv, capsys):
        want = parse_outcome(_build_parser().parse_args, argv, capsys)
        assert parse_outcome(cli._parse, argv, capsys) == want

    def test_the_top_level_parser_holds_only_help_and_the_subcommands(self):
        assert top_level_extras(_build_parser()) == [], (
            "cli._parse hands the arguments after a command straight to that command's "
            "parser, so a top-level option, and its default, would never be seen: "
            "put the option on the subcommands' parsers instead")

    def test_the_top_level_guard_sees_an_extra_option_and_default(self):
        parser = cli._Parser(prog="agecomp")
        parser.add_subparsers(dest="command", required=True).add_parser("lifetable")
        assert top_level_extras(parser) == []
        parser.add_argument("--verbose", action="store_true")
        parser.set_defaults(level=1)
        assert top_level_extras(parser) == ["verbose", "level"]
