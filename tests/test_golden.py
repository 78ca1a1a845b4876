"""The README chain's output bytes, pinned.

The chain is the 48 commands of the paper's workflow on the bundled
Agincourt tables: decompose, regress, predict, smooth, metrics, cluster,
fit, reconstruct, one lifetable per year and sex, then the fertility
decompose and regress.  ``golden/agincourt_chain.json`` holds the sha256 of
every file it writes and its captured stdout.  A change that moves any of
those bytes regenerates the manifest with ``golden/regen.py`` and says
which files changed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from agecomp import cli

DATA = Path(__file__).resolve().parent.parent / "data"
MANIFEST = Path(__file__).resolve().parent / "golden" / "agincourt_chain.json"


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
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {"files": files, "stdout": stdout.getvalue().splitlines(),
            "stderr": stderr.getvalue().splitlines()}


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
