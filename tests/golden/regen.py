"""Regenerate agincourt_chain.json and bic_grids.json, the pinned outputs.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py

It runs the chain of ``tests/test_golden.py`` in a temporary directory and
writes the sha256 of every output and the captured stdout and stderr; then
it writes the BIC grid records of every dataset of ``grid_datasets``.  Each
manifest records the numpy version and BLAS build it was made on.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import GRIDS, MANIFEST, grid_datasets, grid_records, run_chain  # noqa: E402


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")}}


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        manifest = {"build": build(), **run_chain(Path(out))}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST.name}: {len(manifest['files'])} files")
    grids = {name: grid_records(points) for name, points in grid_datasets().items()}
    GRIDS.write_text(json.dumps({"build": build(), "datasets": grids}, indent=1) + "\n",
                     encoding="utf-8")
    print(f"wrote {GRIDS.name}: {len(grids)} datasets")


if __name__ == "__main__":
    main()
