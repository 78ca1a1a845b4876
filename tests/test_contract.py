"""The exit-code contract: every input either loads or fails as one DataError,
and every CLI run exits 0-3 with one error line and otherwise only warnings.

The CLI property runs each subcommand on valid inputs with one input file
replaced by arbitrary bytes or by the valid file with a few edits; a missing
path and a directory in each input slot are checked one by one.  The scale
property clusters the bundled weights times 10^e at any decade e the floats
hold: the selection is the unscaled one, with no warning.  The power-of-two
property decomposes and fits the bundled rates, and fits weight models, times
2^j: the results are the unscaled ones times 2^j, bit for bit.  The decade
property runs the README chain on the bundled rates times 10^e: every
command exits 0, with finite numbers in its outputs and stdout and no warning.
"""

import contextlib
import io as stdio
import json
import math
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agecomp import io, regress, schedule
from agecomp.cli import main
from agecomp.errors import DataError

MISSING, DIRECTORY = "missing", "directory"

LOADERS = {
    "schedule": io.load_schedule_csv,
    "covariates": io.load_covariates_csv,
    "weights": io.load_weights_csv,
    "basis": lambda path: io.basis_from_json(io.read_text(path)),
    "models": lambda path: io.models_from_json(io.read_text(path)),
    "ppm": io.read_ppm,
}

# Each subcommand; {name} is an input file of the fixture below, {out} the output.
COMMANDS = {
    "decompose": "decompose {mx} --log -c 2 --out {out}",
    "reconstruct": "reconstruct --basis {basis} --weights {weights} --out {out}",
    "smooth": "smooth {mx} -c 2 --out {out}",
    "fit": "fit {mx} --log --basis {basis} --out {out}",
    "regress": "regress --weights {weights} --covariates {cov} --predictors e0,delta --out {out}",
    "predict": "predict --basis {basis} --models {models} --covariates {cov} --out {out}",
    "cluster": "cluster --weights {weights} --k-range 1:3 --out {out}",
    "metrics": "metrics {mx} {observed} --out {out}",
    "image": "image {ppm} -c 1 --out {out}",
    "lifetable": "lifetable {mx} --out {out}",
}
SLOTS = [(cmd, slot) for cmd, template in COMMANDS.items()
         for slot in re.findall(r"\{(\w+)\}", template) if slot != "out"]
ERROR_PREFIX = {1: "usage error: ", 2: "data error: ", 3: "numerical failure: "}


def stand_in(content, path: Path) -> Path:
    """Write bytes to ``path``; for MISSING or DIRECTORY return such a path instead."""
    if content == MISSING:
        return path.with_name("absent")
    if content == DIRECTORY:
        return path.parent
    path.write_bytes(content)
    return path


@pytest.mark.parametrize("load", LOADERS.values(), ids=LOADERS.keys())
@settings(max_examples=50, deadline=None)
@given(content=st.binary(max_size=300))
@example(content=MISSING)
@example(content=DIRECTORY)
def test_a_loader_returns_or_raises_one_data_error(load, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = stand_in(content, Path(tmp) / "input")
        try:
            load(path)
        except DataError as exc:
            assert "\n" not in str(exc)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, data_dir):
    """Valid bytes of every input file the COMMANDS read."""
    d = tmp_path_factory.mktemp("valid")
    for name, source in (("mx", "agincourt_mx_female.csv"), ("observed", "agincourt_mx_female.csv"),
                         ("cov", "agincourt_covariates.csv")):
        shutil.copy(data_dir / source, d / name)
    io.write_ppm(np.random.default_rng(3).integers(0, 256, (4, 5, 3)), d / "ppm")
    for argv in ("decompose {mx} --log -c 2 --out {basis} --weights {weights}",
                 "regress --weights {weights} --covariates {cov} --predictors e0,delta "
                 "--out {models}"):
        assert run_cli(argv, {n: d / n for n in ("mx", "basis", "weights", "cov", "models")})[0] == 0
    return {path.name: path.read_bytes() for path in d.iterdir()}


def input_paths(inputs, root: Path, slot, content):
    """The valid inputs written under ``root``, with ``slot`` replaced by ``content``."""
    paths = {name: root / name for name in inputs}
    for name, valid in inputs.items():
        paths[name].write_bytes(valid)
    (root / "sub").mkdir()
    paths[slot] = stand_in(content, root / "sub" / slot)
    paths["out"] = root / "out"
    return paths


def run_cli(template, paths):
    """main() on the template filled with ``paths``: (exit code, stderr lines)."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        code = main([token.format(**paths) for token in template.split()])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("content", [MISSING, DIRECTORY])
@pytest.mark.parametrize("cmd, slot", SLOTS)
def test_an_unreadable_input_is_one_data_error_line(cmd, slot, content, inputs, tmp_path):
    paths = input_paths(inputs, tmp_path, slot, content)
    code, err = run_cli(COMMANDS[cmd], paths)
    assert (code, len(err)) == (2, 1)
    assert err[0].startswith(f"data error: cannot read {paths[slot]}: ")


# A few edits to a valid file: each replaces up to 8 bytes at a position
# (taken modulo the file length) by bytes that matter to CSV, JSON or PPM.
EDIT = st.tuples(
    st.integers(0, 1 << 16), st.integers(0, 8),
    st.one_of(st.binary(max_size=4), st.sampled_from(
        [b",", b"\n", b"\"", b"-", b"e", b"0", b"9", b"nan", b"inf", b"1e308", b"[", b"{", b"#"])),
)
MUTATION = st.one_of(st.binary(max_size=200), st.lists(EDIT, min_size=1, max_size=4))


def mutate(valid: bytes, mutation):
    if not isinstance(mutation, list):
        return mutation
    out = bytearray(valid)
    for pos, delete, insert in mutation:
        pos %= len(out) + 1
        out[pos:pos + delete] = insert
    return bytes(out)


DEEP_JSON = b"[" * 200_000
LIST_LABELS_BASIS = (b'{"group_labels": [["0"], ["1"]], "components": [["1", "2"], ["3", "4"]],'
                     b' "singular_values": ["2", "1"], "scale": "log"}')
LIST_PREDICTOR_MODELS = (b'{"models": [{"predictor_names": [["e0"]], "with_intercept": true,'
                         b' "coefficients": ["1", "2"], "standard_errors": ["1", "1"],'
                         b' "t_values": ["1", "1"], "p_values": ["1", "1"],'
                         b' "r_squared": "0.5", "n": 19}]}')


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(SLOTS), mutation=MUTATION)
@example(case=("predict", "basis"), mutation=DEEP_JSON)
@example(case=("reconstruct", "basis"), mutation=LIST_LABELS_BASIS)
@example(case=("predict", "models"), mutation=LIST_PREDICTOR_MODELS)
def test_every_subcommand_exits_0_to_3_with_one_error_line(case, mutation, inputs):
    cmd, slot = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = input_paths(inputs, Path(tmp), slot, mutate(inputs[slot], mutation))
        code, err = run_cli(COMMANDS[cmd], paths)
    assert code in (0, 1, 2, 3)
    if code:
        *err, last = err
        assert last.startswith(ERROR_PREFIX[code])
    assert all(line.startswith("warning: ") for line in err)


@pytest.fixture(scope="module")
def bundled_weights(tmp_path_factory, data_dir):
    """(labels, c = 2 weights) of the bundled female and male log rates."""
    d = tmp_path_factory.mktemp("weights")
    paths = {"f": data_dir / "agincourt_mx_female.csv", "m": data_dir / "agincourt_mx_male.csv",
             "basis": d / "basis", "weights": d / "weights"}
    argv = "decompose {f} {m} --log --concat-sexes -c 2 --out {basis} --weights {weights}"
    assert run_cli(argv, paths)[0] == 0
    return io.load_weights_csv(paths["weights"])


def cluster_scaled(bundled_weights, e):
    """(exit code, stderr lines, output JSON) of ``cluster`` on the weights x 10^e."""
    labels, weights = bundled_weights
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"weights": Path(tmp) / "weights", "out": Path(tmp) / "out"}
        paths["weights"].write_text("schedule,v1,v2\n" + "".join(
            f"{label},{a!r},{b!r}\n" for label, (a, b) in zip(labels, (weights * 10.0**e).tolist())))
        code, err = run_cli("cluster --weights {weights} --k-range 1:6 --out {out}", paths)
        return code, err, json.loads(paths["out"].read_text()) if code == 0 else None


@pytest.fixture(scope="module")
def unscaled_clusters(bundled_weights):
    code, err, payload = cluster_scaled(bundled_weights, 0)
    assert (code, err) == (0, [])
    return payload


@settings(max_examples=30, deadline=None)
@given(e=st.integers(-300, 307))
@example(e=-160)
@example(e=-300)
@example(e=155)
@example(e=307)
def test_clustering_selects_the_same_mixture_at_every_magnitude(
    e, bundled_weights, unscaled_clusters
):
    # a mixture fit is affine equivariant: times 10^e, each of the n x d
    # coordinates' densities is 10^-e times the unscaled one, so the BIC moves
    # by 2 * n * d * e * ln 10, the means scale by 10^e and nothing else changes
    code, err, got = cluster_scaled(bundled_weights, e)
    assert (code, err) == (0, [])
    want = unscaled_clusters
    assert (got["family"], got["k"], got["labels"]) == (want["family"], want["k"], want["labels"])
    n, d = bundled_weights[1].shape
    shifted = float(want["bic"]) + 2 * n * d * e * math.log(10)
    assert float(got["bic"]) == pytest.approx(shifted, rel=0, abs=1e-9)
    means = np.array(want["means"], dtype=float) * 10.0**e
    np.testing.assert_allclose(np.array(got["means"], dtype=float), means, rtol=1e-9)


@pytest.fixture(scope="module")
def natural_fit(data_dir):
    """(the bundled female and male natural rates, their c = 2 basis, and
    fit_matrix of the rates on it)."""
    rates = schedule.concat_sexes(*(io.load_schedule_csv(data_dir / f"agincourt_mx_{sex}.csv")
                                    for sex in ("female", "male")))
    basis = schedule.build_basis(rates, 2)
    return rates, basis, schedule.fit_matrix(rates, basis)


@pytest.fixture(scope="module")
def weight_models(bundled_weights, data_dir):
    """(the weights' e0 + delta models at the scales 2^0 and 2^300, and a
    function fitting them at 2^j)."""
    covariates = io.load_covariates_csv(data_dir / "agincourt_covariates.csv")

    def fit(j):
        return regress.fit_weight_models(np.ldexp(bundled_weights[1], j), covariates, ("e0", "delta"))

    return fit(0), fit(300), fit


@settings(max_examples=40, deadline=None)
@given(j=st.integers(-1000, 1000))
@example(j=-1000)
@example(j=1000)
def test_a_power_of_two_scales_every_fit_exactly(j, natural_fit, bundled_weights, weight_models):
    # times 2^j, the fitted weights and residual norms are the unscaled ones
    # times 2^j to the bit, whether or not the data are prescaled
    rates, basis, (betas, norms) = natural_fit
    scaled = replace(rates, data=np.ldexp(rates.data, j))
    got_betas, got_norms = schedule.fit_matrix(scaled, basis)
    assert got_betas.tobytes() == np.ldexp(betas, j).tobytes()
    assert got_norms.tobytes() == np.ldexp(norms, j).tobytes()
    # so are the basis decomposed from them, its singular values and the
    # smoothed rates; fitted on that basis, the weights are the unscaled ones
    smoothed = schedule.smooth_matrix(rates, 2).data
    assert schedule.smooth_matrix(scaled, 2).data.tobytes() == np.ldexp(smoothed, j).tobytes()
    got_basis = schedule.build_basis(scaled, 2)
    assert got_basis.components.tobytes() == np.ldexp(basis.components, j).tobytes()
    assert got_basis.singular_values.tobytes() == np.ldexp(basis.singular_values, j).tobytes()
    got_betas, got_norms = schedule.fit_matrix(scaled, got_basis)
    assert got_betas.tobytes() == betas.tobytes()
    assert got_norms.tobytes() == np.ldexp(norms, j).tobytes()
    # a weight column off range at 2^j is fitted on the same prescaled bits as
    # at 2^300, where both columns are off range; t, p and R^2 are scale-free
    unscaled, at_300, fit = weight_models
    exponents = np.frexp(np.abs(bundled_weights[1]).max(axis=0))[1]
    for model, want, ref, e in zip(fit(j), at_300, unscaled, exponents):
        if abs(e + j) > 256:
            for field in ("coefficients", "standard_errors", "residuals"):
                got = getattr(model, field)
                assert got.tobytes() == np.ldexp(getattr(want, field), j - 300).tobytes(), field
            assert model.t_values.tobytes() == want.t_values.tobytes()
            assert model.p_values.tobytes() == want.p_values.tobytes()
            assert model.r_squared == want.r_squared
        np.testing.assert_allclose(model.t_values, ref.t_values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(model.p_values, ref.p_values, rtol=1e-13, atol=0.0)
        assert model.r_squared == pytest.approx(ref.r_squared, rel=0.0, abs=1e-13)


# The README chain on rates: {f} and {m} are the bundled rates times 10^e, {log}
# is empty or --log, and each other name is a file in the run's directory.
SCALED_CHAIN = (
    "decompose {f} {m} {log} --concat-sexes -c 2 --out {basis} --weights {weights}",
    "regress --weights {weights} --covariates {cov} --predictors e0,delta --out {models}",
    "predict --basis {basis} --models {models} --covariates {cov} --out {predicted}",
    "smooth {f} {m} {log} --concat-sexes -c 19 --out {observed}",
    "metrics {predicted} {observed} --out {metrics}",
    "cluster --weights {weights} --k-range 1:6 --out {clusters}",
    "fit {f} {m} {log} --concat-sexes --basis {basis} --out {fitted}",
    "reconstruct --basis {basis} --weights {weights} --out {back}",
    "lifetable {f} --column 1993 --out {lt_f}",
    "lifetable {m} --column 2011 --out {lt_m}",
)
# a decimal number, as repr, json and the printed summaries write one
NUMBER = re.compile(
    r"(?i)(?<![\w.])[-+]?(?:nan|inf(?:inity)?|(?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?)(?![\w.])")


@pytest.fixture(scope="module")
def bundled_rates(data_dir):
    """The bundled female and male natural rates."""
    return [io.load_schedule_csv(data_dir / f"agincourt_mx_{sex}.csv") for sex in ("female", "male")]


@settings(max_examples=40, deadline=None)
@given(e=st.integers(-300, 307))
@example(e=-300)
@example(e=307)
def test_the_chain_on_rates_at_any_decade_exits_0_with_finite_outputs(e, bundled_rates, data_dir):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {name: root / name for template in SCALED_CHAIN
                 for name in re.findall(r"\{(\w+)\}", template) if name != "log"}
        paths["cov"] = data_dir / "agincourt_covariates.csv"
        for name, rates in zip("fm", bundled_rates):
            io.write_schedule_csv(replace(rates, data=rates.data * 10.0**e), paths[name])
        for log in ("", "--log"):
            for template in SCALED_CHAIN:
                argv = [token.format(**paths, log=log) for token in template.split()]
                out, err = stdio.StringIO(), stdio.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([token for token in argv if token])
                assert (code, err.getvalue()) == (0, ""), (template, log)
                written = [paths[name].read_text(encoding="utf-8") for name in paths
                           if name not in ("f", "m", "cov") and f"{{{name}}}" in template]
                bad = [t for text in (out.getvalue(), *written) for t in NUMBER.findall(text)
                       if not math.isfinite(float(t))]
                assert bad == [], (template, log)
