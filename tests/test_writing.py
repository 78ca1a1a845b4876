"""Outputs are overwritten in place through ``io.writing``, the one place that
opens an output: the new bytes and nothing after them, through any exit."""

import ast
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from agecomp import io
from agecomp.cli import main

SRC = Path(io.__file__).parent
OLD = b"old bytes that must not survive\n" * 8192  # 256 KB, longer than any output


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Basis, weights and models of the bundled mortality data, and small PPMs."""
    data = Path(__file__).resolve().parent.parent / "data"
    d = tmp_path_factory.mktemp("inputs")
    mx = (data / "agincourt_mx_female.csv", data / "agincourt_mx_male.csv")
    assert run("decompose", *mx, "--log", "--concat-sexes", "-c", "2",
               "--out", d / "basis.json", "--weights", d / "weights.csv") == 0
    assert run("regress", "--weights", d / "weights.csv", "--covariates",
               data / "agincourt_covariates.csv", "--predictors", "e0,delta",
               "--out", d / "models.json") == 0
    for magic in ("P3", "P6"):
        io.write_ppm(np.arange(4 * 3 * 3).reshape(4, 3, 3) * 7.0, d / f"{magic}.ppm", magic)
    return {"data": data, "mx": mx, "dir": d}


# every subcommand and format that writes a file, as argv with "OUT" for its output
COMMANDS = {
    "decompose_json": lambda i: ["decompose", *i["mx"], "--log", "--concat-sexes", "--out", "OUT"],
    "decompose_weights": lambda i: ["decompose", *i["mx"], "--log", "--concat-sexes",
                                    "--out", i["dir"] / "unused.json", "--weights", "OUT"],
    "regress": lambda i: ["regress", "--weights", i["dir"] / "weights.csv", "--covariates",
                          i["data"] / "agincourt_covariates.csv", "--predictors", "e0",
                          "--out", "OUT"],
    "predict": lambda i: ["predict", "--basis", i["dir"] / "basis.json", "--models",
                          i["dir"] / "models.json", "--covariates",
                          i["data"] / "agincourt_covariates.csv", "--out", "OUT"],
    "smooth": lambda i: ["smooth", *i["mx"], "--concat-sexes", "-c", "1", "--out", "OUT"],
    "fit": lambda i: ["fit", *i["mx"], "--log", "--concat-sexes",
                      "--basis", i["dir"] / "basis.json", "--out", "OUT"],
    "reconstruct": lambda i: ["reconstruct", "--basis", i["dir"] / "basis.json",
                              "--weights", i["dir"] / "weights.csv", "--out", "OUT"],
    "metrics_json": lambda i: ["metrics", i["mx"][0], i["mx"][1], "--out", "OUT"],
    "metrics_csv": lambda i: ["metrics", i["mx"][0], i["mx"][1], "--format", "csv",
                              "--out", "OUT"],
    "cluster_json": lambda i: ["cluster", "--weights", i["dir"] / "weights.csv",
                               "--k-range", "1:2", "--family", "spherical", "--out", "OUT"],
    "cluster_csv": lambda i: ["cluster", "--weights", i["dir"] / "weights.csv",
                              "--k-range", "1:2", "--family", "spherical",
                              "--format", "csv", "--out", "OUT"],
    "lifetable": lambda i: ["lifetable", i["mx"][0], "--column", "2011", "--out", "OUT"],
    "image_p3": lambda i: ["image", i["dir"] / "P3.ppm", "-c", "1", "--out", "OUT"],
    "image_p6": lambda i: ["image", i["dir"] / "P6.ppm", "-c", "1", "--out", "OUT"],
}


def command(name, inputs, out):
    return [out if a == "OUT" else a for a in COMMANDS[name](inputs)]


@pytest.mark.parametrize("name", COMMANDS)
def test_shorter_output_over_a_longer_file_leaves_only_the_new_bytes(name, inputs, tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.write_bytes(OLD)
    assert run(*command(name, inputs, fresh)) == 0
    assert run(*command(name, inputs, reused)) == 0
    assert 0 < fresh.stat().st_size < len(OLD)
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_an_output_to_the_null_device_exits_0(name, inputs):
    assert run(*command(name, inputs, os.devnull)) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("name", ["lifetable", "image_p6"])
def test_an_output_to_a_fifo_is_written_and_not_cut(name, inputs, tmp_path):
    fifo, fresh = tmp_path / "fifo", tmp_path / "fresh"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        assert run(*command(name, inputs, fifo)) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert run(*command(name, inputs, fresh)) == 0
    assert received == [fresh.read_bytes()]


@pytest.mark.parametrize("name", ["decompose_json", "metrics_csv", "lifetable", "image_p6"])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_an_unwritable_output_is_one_data_error(name, where, inputs, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "no" / "such.out"
    assert run(*command(name, inputs, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err


def test_an_existing_file_keeps_its_inode_and_mode(inputs, tmp_path):
    out = tmp_path / "lt.csv"
    out.write_bytes(OLD)
    out.chmod(0o640)
    before = out.stat()
    assert run(*command("lifetable", inputs, out)) == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert after.st_size < len(OLD)


def test_an_output_through_a_symlink_updates_its_target(inputs, tmp_path):
    target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "fresh"
    target.write_bytes(OLD)
    link.symlink_to(target)
    inode = target.stat().st_ino
    assert run(*command("decompose_json", inputs, link)) == 0
    assert run(*command("decompose_json", inputs, fresh)) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode


def test_a_writer_that_fails_leaves_what_it_wrote_and_nothing_more(tmp_path):
    out = tmp_path / "w.csv"
    out.write_bytes(OLD)
    with pytest.raises(ValueError):  # format_rows zips labels and rows strictly
        io.write_weights_csv(["a", "b", "c"], np.ones((2, 2)), out)
    assert out.read_bytes() == b"schedule,v1,v2\r\na,1.0,1.0\r\nb,1.0,1.0\r\n"


@pytest.mark.parametrize("mode, text", [("w", "naïve,\n"), ("wb", b"\x00\xff\n")])
def test_writing_cuts_the_file_at_the_exception(mode, text, tmp_path):
    out = tmp_path / "f"
    out.write_bytes(OLD)
    with pytest.raises(RuntimeError), io.writing(out, mode) as fh:
        fh.write(text)
        raise RuntimeError
    assert out.read_bytes() == (text.encode() if mode == "w" else text)


def test_writing_creates_a_missing_file_with_untranslated_newlines(tmp_path):
    out = tmp_path / "new.csv"
    with io.writing(out) as fh:
        fh.write("a\r\nb\n")
    assert out.read_bytes() == b"a\r\nb\n"


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_no_descriptor_leaks_on_any_path(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    with io.writing(tmp_path / "ok") as fh:
        fh.write("x")
    with pytest.raises(RuntimeError), io.writing(tmp_path / "ok", "wb"):
        raise RuntimeError
    with pytest.raises(IsADirectoryError), io.writing(tmp_path):
        pass
    with pytest.raises(ValueError), io.writing(tmp_path / "ok", "bogus"):
        pass
    assert open_fds() == before


def _output_opens(tree):
    """(function, line) of every call in ``tree`` that can open a file for writing:
    os.open, open(...) with a mode that is not a read mode, write_text,
    write_bytes, savetxt and tofile."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                owner = getattr(getattr(f, "value", None), "id", None)
                if name in ("write_text", "write_bytes", "savetxt", "tofile") or (
                    name == "open" and owner == "os"
                ):
                    found.append((inner, child.lineno))
                elif name == "open":
                    mode = child.args[1] if len(child.args) > 1 else next(
                        (k.value for k in child.keywords if k.arg == "mode"), None)
                    read_only = mode is None or (
                        isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
                    )
                    if not read_only:
                        found.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_io_writing_is_the_only_place_outputs_are_opened():
    stray = {}
    for path in sorted(SRC.glob("*.py")):
        opens = _output_opens(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "io.py":
            assert "writing" in {f for f, _ in opens}  # the guard sees writing's own opens
        stray.update({f"{path.name}:{line}": func for func, line in opens if func != "writing"})
    assert stray == {}


def test_the_guard_finds_every_kind_of_output_open():
    code = ("def f(p):\n    open(p, 'w')\n    open(p, mode='ab')\n    open(p, 'r+')\n"
            "    p.write_text('x')\n    p.write_bytes(b'x')\n    os.open(p, 1)\n"
            "    open(p)\n    open(p, 'rb')\n")
    assert [line for _, line in _output_opens(ast.parse(code))] == [2, 3, 4, 5, 6, 7]
