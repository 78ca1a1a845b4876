"""Properties of the CSV writers and loaders on generated matrices and labels."""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agecomp import io
from agecomp.schedule import ScheduleMatrix

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, 1e300)
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))

# The loaders strip labels, so generated labels carry no surrounding whitespace.
LABEL = st.text(alphabet="ab1-+ ,\"'é", max_size=6).filter(lambda s: s == s.strip())


def labels(n):
    return st.lists(LABEL, min_size=n, max_size=n, unique=True)


@st.composite
def labeled_blocks(draw):
    block = draw(arrays(np.float64, (draw(st.integers(1, 5)), draw(st.integers(1, 5))),
                        elements=VALUES))
    return block, draw(labels(block.shape[0])), draw(labels(block.shape[1]))


def reference_csv(path, header, row_labels, rows):
    """The per-cell writer: csv.writer over fmt_number of every value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for label, row in zip(row_labels, rows):
            writer.writerow([label, *(io.fmt_number(v) for v in row)])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(labeled_blocks())
def test_schedule_csv_matches_per_cell_writer_and_reads_back_exactly(case):
    block, group_labels, schedule_labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "m.csv", Path(tmp) / "ref.csv"
        io.write_schedule_csv(ScheduleMatrix(group_labels, schedule_labels, block), path)
        reference_csv(ref, ["age", *schedule_labels], group_labels, block)
        assert path.read_bytes() == ref.read_bytes()
        back = io.load_schedule_csv(path)
    assert back.group_labels == tuple(group_labels)
    assert back.schedule_labels == tuple(schedule_labels)
    assert same_bits(back.data, block)


@settings(deadline=None)
@given(labeled_blocks(), st.data())
def test_weights_csv_matches_per_cell_writer_and_reads_back_exactly(case, data):
    weights, row_labels, _ = case
    residuals = data.draw(st.lists(VALUES, min_size=len(row_labels), max_size=len(row_labels)))
    names = [f"v{i + 1}" for i in range(weights.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "w.csv", Path(tmp) / "ref.csv"
        io.write_weights_csv(row_labels, weights, path, residual_norms=residuals)
        reference_csv(ref, ["schedule", *names, "residual_norm"], row_labels,
                      [[*w, r] for w, r in zip(weights, residuals)])
        assert path.read_bytes() == ref.read_bytes()
        back_labels, back = io.load_weights_csv(path)
        table = io.load_covariates_csv(path)
    assert back_labels == row_labels
    assert same_bits(back, weights)
    assert table.labels == tuple(row_labels)
    for i, name in enumerate(names):
        assert same_bits(table.column(name), weights[:, i])
    assert same_bits(table.column("residual_norm"), np.array(residuals, dtype=float))
