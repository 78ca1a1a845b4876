"""The README chain's output bytes and the BIC grids' records, pinned.

The chain is the 48 commands of the paper's workflow on the bundled
Agincourt tables: decompose, regress, predict, smooth, metrics, cluster,
fit, reconstruct, one lifetable per year and sex, then the fertility
decompose and regress.  ``golden/agincourt_chain.json`` holds the sha256 of
every file it writes and its captured stdout.  ``golden/bic_grids.json``
holds every record of ``select_by_bic(x, range(1, 7))`` on 11 datasets,
with each float as its ``repr``, and the selection and labels.  A change
that moves any of those bytes regenerates the manifests with
``golden/regen.py`` and says which files or records changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
from itertools import zip_longest
from pathlib import Path

import numpy as np
from test_cluster import TWO_TRIPLES, _reference_datasets

from agecomp import cli, cluster, schedule
from agecomp import io as agecomp_io

DATA = Path(__file__).resolve().parent.parent / "data"
MANIFEST = Path(__file__).resolve().parent / "golden" / "agincourt_chain.json"
GRIDS = Path(__file__).resolve().parent / "golden" / "bic_grids.json"


def chain_argvs(out: Path) -> list[list[str]]:
    """The chain's argvs, reading the bundled data and writing under ``out``."""
    f, m, cov, fx, fx_cov = (str(DATA / f"agincourt_{name}.csv")
                             for name in ("mx_female", "mx_male", "covariates", "fx",
                                          "fx_covariates"))

    def o(name):
        return str(out / name)

    mx = [f, m, "--log", "--concat-sexes"]
    years = [str(year) for year in range(1993, 2012)]
    return [
        ["decompose", *mx, "-c", "2", "--out", o("basis.json"), "--weights", o("weights.csv")],
        ["regress", "--weights", o("weights.csv"), "--covariates", cov,
         "--predictors", "e0,delta", "--out", o("models.json")],
        ["predict", "--basis", o("basis.json"), "--models", o("models.json"),
         "--covariates", cov, "--out", o("predicted.csv")],
        ["smooth", *mx, "-c", "19", "--out", o("observed_log.csv")],
        ["metrics", o("predicted.csv"), o("observed_log.csv"), "--out", o("metrics.json")],
        ["cluster", "--weights", o("weights.csv"), "--k-range", "1:6", "--out", o("clusters.json")],
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


def run_chain(out: Path) -> dict:
    """Run the chain through ``cli.main`` into the empty directory ``out``.

    Returns the sha256 of every file written there and the captured stdout
    and stderr, one entry per line, and raises if a command exits nonzero.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for argv in chain_argvs(out):
            if cli.main(argv) != 0:
                raise AssertionError(f"agecomp {' '.join(argv)} failed: {stderr.getvalue()}")
    return {"files": digests(out), "stdout": stdout.getvalue().splitlines(),
            "stderr": stderr.getvalue().splitlines()}


def digests(out: Path) -> dict:
    """The sha256 of every file in ``out``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_chain_outputs_keep_their_bytes(tmp_path):
    """Every chain output and the chain's stdout equal the manifest exactly.

    The bytes depend on the numpy and BLAS/LAPACK build: a different SVD or
    GEMM kernel moves last digits, so on another build this test fails
    rather than passing quietly.  The manifest records the build it was
    made on.  Compare that record before reading a failure as a change in
    agecomp, and do not skip or loosen the test to pass on another build.
    """
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = run_chain(tmp_path)
    names = sorted(set(want["files"]) | set(got["files"]))
    differ = [n for n in names if want["files"].get(n) != got["files"].get(n)]
    assert not differ, f"{len(differ)} chain outputs differ from the manifest: {differ}"
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]


def test_chain_parses_each_run_of_the_same_bytes_once(tmp_path, monkeypatch):
    """The chain reads a CSV 54 times, but 37 reads repeat the bytes and the
    columns of the read before them, so np.loadtxt runs 17 times."""
    reads, parses = [], []
    read_csv, loadtxt = agecomp_io._read_csv, np.loadtxt
    monkeypatch.setattr(agecomp_io, "_read_csv", lambda *a: reads.append(1) or read_csv(*a))
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
    run_chain(tmp_path)
    assert (len(reads), len(parses)) == (54, 17)


def test_chain_builds_one_life_table_matrix_per_sex(tmp_path, monkeypatch):
    """The chain's 38 lifetable commands read 19 columns of each sex's rates
    in turn, so the tables of every column are built twice, once per sex."""
    builds, cumprod = [], np.cumprod
    monkeypatch.setattr(np, "cumprod", lambda *a, **k: builds.append(1) or cumprod(*a, **k))
    run_chain(tmp_path)
    assert len(builds) == 2


def spy_parses_and_lapack(monkeypatch):
    """(argparse passes, shapes LAPACK factors), appended to as they run."""
    parses, shapes = [], []
    parse, svd = argparse.ArgumentParser.parse_known_args, np.linalg.svd
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: parses.append(self.prog) or parse(self, *a, **k))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *a, **k: shapes.append(x.shape) or svd(x, *a, **k))
    return parses, shapes


def test_chain_parses_each_command_once_and_factors_four_matrices(tmp_path, monkeypatch):
    """Each of the 48 commands is one argparse pass, by its own parser; and
    LAPACK runs 4 times: regress's designs skip the kept SVD, so smooth gets
    decompose's 38 x 19 factorization."""
    parses, shapes = spy_parses_and_lapack(monkeypatch)
    run_chain(tmp_path)
    assert parses == [f"agecomp {argv[0]}" for argv in chain_argvs(tmp_path)]
    assert shapes == [(38, 19), (19, 3), (7, 19), (19, 2)]


def test_chain_twice_as_one_script_keeps_its_bytes(tmp_path, monkeypatch):
    """``agecomp run`` of the chain, one command a line and twice over in one
    script, writes the manifest's bytes twice and prints its stdout twice;
    the second chain's commands see the state the first left, and each chain
    still parses 17 times, builds the life tables of each sex once and runs
    LAPACK 4 times; the script and each of its commands is one argparse pass."""
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    outs = tmp_path / "first", tmp_path / "second"
    script = tmp_path / "chain.txt"
    script.write_text("".join(f"{shlex.join(argv)}\n" for out in outs for argv in chain_argvs(out)),
                      encoding="utf-8")
    parses, loadtxt, builds, cumprod = [], np.loadtxt, [], np.cumprod
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
    monkeypatch.setattr(np, "cumprod", lambda *a, **k: builds.append(1) or cumprod(*a, **k))
    passes, shapes = spy_parses_and_lapack(monkeypatch)
    stdout, stderr = io.StringIO(), io.StringIO()
    for out in outs:
        out.mkdir()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(["run", str(script)]) == 0
    assert [digests(out) for out in outs] == 2 * [want["files"]]
    assert stdout.getvalue().splitlines() == 2 * want["stdout"]
    assert stderr.getvalue().splitlines() == 2 * want["stderr"]
    assert (len(parses), len(builds), len(shapes)) == (2 * 17, 2 * 2, 2 * 4)
    assert len(passes) == 1 + 2 * 48


def grid_datasets() -> dict:
    """The 11 BIC-grid datasets: the bundled weights, in and off range, and four samples."""
    female, male = (agecomp_io.load_schedule_csv(DATA / f"agincourt_mx_{sex}.csv", log=True)
                    for sex in ("female", "male"))
    weights = schedule.svd_weights(schedule.concat_sexes(female, male), 2)
    return {
        "mortality": weights,
        "mortality_1e3": weights * 1e3,
        "mortality_1e-3": weights * 1e-3,
        **_reference_datasets(),
        "normal40x2": np.random.default_rng(3).normal(size=(40, 2)),
        "two_triples": TWO_TRIPLES,
        **{f"mortality_1e{e}": weights * 10.0**e for e in (154, -150, -155, -160)},
    }


def grid_records(points) -> dict:
    """Every record of the ``range(1, 7)`` grid on ``points``, floats as ``repr``."""
    model = cluster.select_by_bic(points, range(1, 7))
    return {
        "grid": [{key: repr(float(value)) if key in ("bic", "log_likelihood") else value
                  for key, value in point.items()} for point in model.grid],
        "selected": {"family": model.family, "k": model.k, "bic": repr(float(model.bic))},
        "labels": cluster.assign(model, points).labels.tolist(),
    }


def test_bic_grids_keep_their_records():
    """Every grid record, selection and label list equals the manifest exactly.

    Like the chain's bytes, the records depend on the numpy and BLAS/LAPACK
    build that ``bic_grids.json`` records; on another build the test fails
    rather than passing, and is not to be skipped or loosened there.
    """
    want = json.loads(GRIDS.read_text(encoding="utf-8"))["datasets"]
    got = {name: grid_records(points) for name, points in grid_datasets().items()}
    assert list(got) == list(want)
    for name in want:
        for i, (old, new) in enumerate(zip_longest(want[name]["grid"], got[name]["grid"])):
            assert new == old, f"{name}: grid record {i} is {new}, the manifest has {old}"
        for key in ("selected", "labels"):
            assert got[name][key] == want[name][key], f"{name}: the {key} differ from the manifest"
