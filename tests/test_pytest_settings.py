"""The repo's pytest settings still let a falsified property report itself.

Warnings are errors in ``pyproject.toml``; Hypothesis's failure report must
not trip one, or pytest stops with INTERNALERROR and prints no example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_falsified_property_prints_its_example(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert run.returncode == 1, out
