"""Properties of the CSV writers and loaders on generated matrices and labels."""

import csv
import re
import tempfile
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agecomp import io
from agecomp.errors import DataError
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


# The loaders' reader before np.loadtxt, kept as the reference: csv.reader for
# every row, then one float() per cell of the columns ``cols``.

def _read_rows(path):
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    with io._reading(path), open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
    return rows


def _parse_block(path, rows, cols) -> np.ndarray:
    keep = [c in cols for c in range(len(rows[0]))]
    try:
        return np.array([list(map(float, compress(row, keep))) for row in rows[1:]])
    except ValueError:
        for r, row in enumerate(rows[1:]):
            for c, cell in enumerate(compress(row, keep)):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at row {r + 2}, column {cols[c] + 1}"
                    ) from None
        raise


# float() reads digit-group underscores and non-ASCII digits; loadtxt does not
_LOADTXT_REJECTS = re.compile(r"_|[^\x00-\x7f]")
COLUMN_CHOICES = {"every": io._data_columns, "odd": lambda header: range(1, len(header), 2)}


def _as_read(text):
    """Text as the loaders read it: '\\r' and '\\r\\n' become '\\n'."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


CSV_ALPHABET = '0123456789.eE+-_,"\n\r #a\u0661'


@st.composite
def csv_rows(draw):
    """Rows of one width of cells over CSV_ALPHABET less ',', joined by one line end."""
    cell = st.text(alphabet=CSV_ALPHABET.replace(",", ""), max_size=5)
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=4))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(row) for row in rows) + draw(st.sampled_from(["", end]))


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.text(alphabet=CSV_ALPHABET, max_size=40), csv_rows()),
       st.sampled_from(sorted(COLUMN_CHOICES)))
@example("age,x\n0,1_000\n", "every")  # float() reads 1000.0, loadtxt rejects the cell
@example("age,x\n0,\u0661\n", "every")  # float() reads 1.0, loadtxt rejects the cell
@example("age,x\n0,nan\n1,1e400\n", "every")  # parsed by both, rejected as non-finite
@example('age,"x\ry"\n"a\r\nb",1\n', "every")  # quoted line ends are read as '\\n'
@example("age,x\r0,1\r\r1,2\r", "every")  # old Mac line ends, and a blank line
@example("age,x,y\n0,1,a\n", "odd")  # cells of a column that is not read are not parsed
@example("age,x\n", "every")  # no data rows: DataError, and no loadtxt warning
def test_reader_matches_the_csv_and_float_reader(text, columns):
    numeric = COLUMN_CHOICES[columns]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            rows = _read_rows(path)
            cols = list(numeric(rows[0]))
            block = _parse_block(path, rows, cols).reshape(len(rows) - 1, len(cols))
        except DataError:
            old = None
        else:
            picked = [row[c].strip() for row in rows[1:] for c in cols]
            if any(_LOADTXT_REJECTS.search(cell) for cell in picked):
                old = None
            elif not np.isfinite(block).all():
                old = None
            else:
                labels = [_as_read(row[0].strip()) for row in rows[1:]]
                old = [_as_read(c) for c in rows[0]], labels, block
        if old is None:
            with pytest.raises(DataError):
                io._read_csv(path, numeric)
            return
        header, labels, names, block = io._read_csv(path, numeric)
    assert (header, labels) == old[:2]
    assert names == [header[c].strip() for c in numeric(header)]
    assert same_bits(block, old[2])


def test_a_valid_wide_file_is_read_in_one_pass(tmp_path, monkeypatch):
    # a 38 x 5,000 schedule file, as the batch benchmark reads, never reaches the fault scan
    def fault(*args):
        raise AssertionError("the fault scan ran on a valid file")

    monkeypatch.setattr(io, "_fault", fault)
    rng = np.random.default_rng(0)
    block = np.exp(rng.normal(-4.0, 2.0, size=(38, 5000)))
    matrix = ScheduleMatrix([f"g{i}" for i in range(38)], [f"s{j:05d}" for j in range(5000)], block)
    path = tmp_path / "wide.csv"
    io.write_schedule_csv(matrix, path)
    back = io.load_schedule_csv(path)
    assert back.group_labels == matrix.group_labels
    assert back.schedule_labels == matrix.schedule_labels
    assert same_bits(back.data, block)
    # in C order, as before: the bits of BLAS products, and so of outputs, follow the layout
    assert back.data.flags.c_contiguous
    io.write_weights_csv(matrix.schedule_labels, block.T[:, :3], path, residual_norms=block[0])
    assert io.load_weights_csv(path)[1].flags.c_contiguous
