import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import agecomp
from agecomp import io
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
        _, weights = basis_and_weights
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        for out in (out1, out2):
            assert run(
                "cluster", "--weights", weights, "--k-range", "1:6",
                "--seed", "0", "--out", out,
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert set(payload["labels"]) == set(str(y) for y in range(1993, 2012))

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

    def test_readme_lists_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = next(b for b in readme.split("```sh")[1:] if "agecomp decompose" in b)
        listed = {line.split()[1] for line in block.split("```")[0].splitlines()
                  if line.startswith("agecomp ")}
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert listed == set(subparsers.choices)


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
        from agecomp import linalg

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
        assert "schedule has 7 groups, basis has 38" in one_error_line(capsys)
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
        for h, label in enumerate(covariates.labels):
            w = [model.predict_one(covariates.row(label)) for model in m]
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
        from agecomp import linalg

        weights = self._weights(tmp_path, data_dir, c)
        calls = []
        real = linalg.svd

        def counted(x):
            calls.append(np.shape(x))
            return real(x)

        monkeypatch.setattr(linalg, "svd", counted)
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


class TestCsvRobustness:
    def test_cell_over_the_csv_field_limit(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("age,x\n0," + "1" * 200_000 + "\n1,2\n")
        out = tmp_path / "o.csv"
        assert run("smooth", big, "-c", "1", "--out", out) == 2
        assert "big.csv" in one_error_line(capsys)
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

    def test_duplicate_weight_labels_are_rejected(self, tmp_path, basis_and_weights, capsys):
        _, weights = basis_and_weights
        out = tmp_path / "c.json"
        path = self._weights(tmp_path, weights, "a", "a")
        assert run("cluster", "--weights", path, "--k-range", "1:2", "--out", out) == 2
        assert "duplicate weight row label 'a'" in one_error_line(capsys)
        assert not out.exists()


class TestOneLineFailures:
    @pytest.mark.parametrize("argv, code, text", [
        (("smooth", "{F}", "--concat-sexes", "-c", "1", "--out", "{out}"), 1,
         "--concat-sexes needs exactly two inputs"),
        (("decompose", "{F}", "--components", "0", "--out", "{out}"), 1,
         "--components must be >= 1"),
        (("regress", "--weights", "{other}", "--covariates", "{COV}", "--predictors", "e0",
          "--out", "{out}"), 2, "weight labels and covariate labels do not match"),
        (("regress", "--weights", "{W}", "--covariates", "{COV}", "--predictors", ",",
          "--out", "{out}"), 1, "--predictors must name at least one covariate column"),
        (("cluster", "--weights", "{W}", "--k-range", "a:b", "--out", "{out}"), 1,
         "bad --k-range 'a:b'"),
        (("cluster", "--weights", "{W}", "--k-range", "0:2", "--out", "{out}"), 1,
         "--k-range must cover k >= 1"),
        (("lifetable", "{ages}", "--out", "{out}"), 2, "cannot parse age-group label 'x-y'"),
        (("plot", "{F}", "--out", "{out}"), 1, "invalid choice: 'plot'"),
    ])
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

    def test_metrics_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        pred, obs, out = tmp_path / "p.csv", tmp_path / "o.csv", tmp_path / "m.json"
        pred.write_text("age,a,b\n0,1e308,-1e308\n")
        obs.write_text("age,a,b\n0,-1e308,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("metrics", pred, obs, "--out", out) == 3
        assert "overflow" in one_error_line(capsys, "numerical failure:")  # no warning: lines
        assert not out.exists()

    def test_decompose_near_the_float_limit_reports_a_finite_share(self, tmp_path, capsys):
        path, out = tmp_path / "big.csv", tmp_path / "b.json"
        path.write_text("age,a,b\n0,1e200,2e200\n1,3e200,1e200\n2,2e200,3e200\n")
        assert run("decompose", path, "-c", "1", "--out", out) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        share = float(captured.out.split("explaining ")[1].split("%")[0])
        assert 0.0 < share <= 100.0


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
            agecomp.ScheduleMatrix(matrix.group_labels, matrix.schedule_labels,
                                   np.log(matrix.data)), logged)
        assert run("metrics", pred, raw, "--log") == 0
        with_log = json.loads(capsys.readouterr().out)
        assert run("metrics", pred, logged) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == with_log["mae"]
