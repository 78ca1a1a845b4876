"""The exit-code contract: every input either loads or fails as one DataError,
and every CLI run exits 0-3 with one error line and otherwise only warnings.

The CLI property runs each subcommand on valid inputs with one input file
replaced by arbitrary bytes or by the valid file with a few edits; a missing
path and a directory in each input slot are checked one by one.
"""

import contextlib
import io as stdio
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agecomp import io
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
