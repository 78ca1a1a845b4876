import builtins
import csv
import io as stdlib_io
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agecomp import io, schedule
from agecomp.errors import DataError
from agecomp.regress import ols_fit
from agecomp.schedule import ScheduleMatrix


class TestScheduleCsv:
    def test_round_trip(self, tmp_path, rng):
        matrix = ScheduleMatrix(
            ["0", "1-4", "85+"],
            ["1993", "1994"],
            np.exp(rng.normal(size=(3, 2))),
        )
        path = tmp_path / "m.csv"
        io.write_schedule_csv(matrix, path)
        back = io.load_schedule_csv(path)
        assert back.group_labels == matrix.group_labels
        assert back.schedule_labels == matrix.schedule_labels
        np.testing.assert_array_equal(back.data, matrix.data)

    def test_log_flag(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("age,x\n0,1.0\n1,2.718281828459045\n")
        back = io.load_schedule_csv(path, log=True)
        assert back.scale == "log"
        np.testing.assert_allclose(back.data[:, 0], [0.0, 1.0])

    def test_one_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("age,only\n0,0.5\n1,0.25\n")
        back = io.load_schedule_csv(path)
        assert back.data.shape == (2, 1)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("years,x\n0,0.5\n")
        with pytest.raises(DataError, match="age"):
            io.load_schedule_csv(path)

    def test_a_header_of_age_only_names_the_path(self, tmp_path):
        path = tmp_path / "ages.csv"
        path.write_text("age\n0\n1\n")
        with pytest.raises(DataError) as info:
            io.load_schedule_csv(path)
        assert str(info.value) == f"{path}: need at least one schedule column"

    def test_a_cell_over_the_csv_field_limit_is_one_data_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "wide.csv"
        path.write_text(f"age,{'x' * (limit + 1)}\n0,0.5\n")
        with pytest.raises(DataError) as info:
            io.load_schedule_csv(path)
        assert str(info.value) == f"{path}: field larger than field limit ({limit})"

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,x,y\n0,0.5,0.2\n1,abc,0.3\n")
        with pytest.raises(DataError, match=r"row 3, column 2"):
            io.load_schedule_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("age,x,y\n0,0.5\n")
        with pytest.raises(DataError, match="row 2"):
            io.load_schedule_csv(path)

    def test_nonpositive_under_log(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("age,x\n0,0.0\n")
        with pytest.raises(DataError, match="non-positive"):
            io.load_schedule_csv(path, log=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            io.load_schedule_csv(tmp_path / "absent.csv")

    def test_byte_order_mark_is_ignored(self, tmp_path, data_dir):
        # spreadsheet exports start UTF-8 files with a byte-order mark
        text = (data_dir / "agincourt_mx_female.csv").read_text(encoding="utf-8")
        plain = tmp_path / "plain.csv"
        marked = tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfage,")
        a = io.load_schedule_csv(plain)
        b = io.load_schedule_csv(marked)
        assert (b.group_labels, b.schedule_labels) == (a.group_labels, a.schedule_labels)
        np.testing.assert_array_equal(b.data, a.data)

    def test_duplicate_schedule_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("age,a,a\n0,0.5,0.6\n1,0.2,0.3\n")
        with pytest.raises(DataError, match="duplicate schedule label 'a'"):
            io.load_schedule_csv(path)


class TestWeightsCsv:
    def test_round_trip_with_residuals(self, tmp_path, rng):
        w = rng.normal(size=(4, 2))
        path = tmp_path / "w.csv"
        io.write_weights_csv(["a", "b", "c", "d"], w, path, residual_norms=[0, 1, 2, 3])
        labels, back = io.load_weights_csv(path)
        assert labels == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(back, w)

    def test_only_numbered_v_columns_are_weights(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("schedule,v1,value,v2,v\na,1.5,9,2.5,7\nb,3,9,4,7\n")
        labels, w = io.load_weights_csv(path)
        assert labels == ["a", "b"]
        np.testing.assert_array_equal(w, [[1.5, 2.5], [3.0, 4.0]])
        path.write_text("schedule,value,v\na,9,7\n")
        with pytest.raises(DataError, match=r"no weight columns \(v1, v2, ...\) found"):
            io.load_weights_csv(path)

    @pytest.mark.parametrize("header", ["schedule,v2,v1", "schedule,v1,v3"])
    def test_weight_columns_must_be_v1_to_vc_in_order(self, tmp_path, header):
        path = tmp_path / "w.csv"
        path.write_text(f"{header}\na,1,2\nb,3,4\n")
        got = header.split(",")[1:]
        with pytest.raises(DataError, match=re.escape(f"must be v1..v2 in order, got {got}")):
            io.load_weights_csv(path)


def _block_csv(path, first, names, bad=()):
    """A file of label rows r1, r2, ... under ``first,<names>``, every cell 0.5
    except the 1-based (row, column) positions in ``bad``, which hold 'x'."""
    rows = [[first, *names]] + [[f"r{r}"] + ["0.5"] * len(names) for r in range(1, 38)]
    for r, c in bad:
        rows[r - 1][c - 1] = "x"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return path


WIDE_LOADERS = [
    (io.load_schedule_csv, "age", "s"),
    (io.load_weights_csv, "schedule", "v"),
    (io.load_covariates_csv, "year", "c"),
]


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
def test_non_numeric_cell_in_a_wide_block_names_position(tmp_path, loader, first, prefix):
    names = [f"{prefix}{i}" for i in range(1, 5000)]  # a 38 x 5000 file
    path = _block_csv(tmp_path / "wide.csv", first, names, bad=[(30, 4000)])
    with pytest.raises(DataError, match=r"non-numeric cell 'x' at row 30, column 4000$"):
        loader(path)


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
def test_first_bad_cell_follows_the_loaders_reading_order(tmp_path, loader, first, prefix):
    # every loader reads row by row, so the earlier row's bad cell is named
    names = [f"{prefix}{i}" for i in range(1, 5000)]
    path = _block_csv(tmp_path / "two.csv", first, names, bad=[(30, 4000), (35, 10)])
    with pytest.raises(DataError, match="row 30, column 4000$"):
        loader(path)


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
@pytest.mark.parametrize("cell", ["1_000", "\u0661", "0x10", ""])
def test_a_cell_that_loadtxt_does_not_parse_is_named(tmp_path, loader, first, prefix, cell):
    # float() reads '1_000' as 1000.0 and the Arabic-Indic digit as 1.0; loadtxt reads neither
    path = tmp_path / "g.csv"
    path.write_text(f"{first},{prefix}1,{prefix}2\nr1,0.5,0.5\nr2,0.5,{cell}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"non-numeric cell {cell!r} at row 3, column 3")):
        loader(path)


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
@pytest.mark.parametrize("cell, value", [("nan", "nan"), ("-inf", "-inf"), ("1e400", "inf")])
def test_a_non_finite_cell_is_named_with_the_path(tmp_path, loader, first, prefix, cell, value):
    path = tmp_path / "n.csv"
    path.write_text(f"{first},{prefix}1,{prefix}2\nr1,0.5,0.5\nr2,0.5,{cell}\nr3,{cell},1\n")
    message = f"{path}: non-finite cell ({value}) at row 3, column 3"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        loader(path)


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
@pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
def test_a_header_without_data_rows_is_named_without_a_warning(tmp_path, loader, first, prefix,
                                                                body):
    # loadtxt warns on input with no data; the suite turns warnings into errors
    path = tmp_path / "h.csv"
    path.write_text(f"{first},{prefix}1{body}")
    with pytest.raises(DataError, match="need a header row and at least one data row$"):
        loader(path)


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
def test_row_labels_outside_latin_1_are_read_as_text(tmp_path, loader, first, prefix):
    # loadtxt hands converters str on numpy 2 (numpy 1 handed them latin-1 bytes)
    path = tmp_path / "u.csv"
    path.write_text(f"{first},{prefix}1\n中,0.5\n١-٤,1\n", encoding="utf-8")
    loaded = loader(path)
    labels = {io.load_schedule_csv: lambda m: m.group_labels,
              io.load_weights_csv: lambda lw: tuple(lw[0]),
              io.load_covariates_csv: lambda t: t.labels}[loader](loaded)
    assert labels == ("中", "١-٤")


def test_blank_lines_and_old_mac_line_ends_are_read(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b'\r\nage,x,"y z"\r\r\n"0-4",0.5,1e-3\r\n\n5+, 2 ,-0.25\r')
    back = io.load_schedule_csv(path)
    assert back.group_labels == ("0-4", "5+") and back.schedule_labels == ("x", "y z")
    np.testing.assert_array_equal(back.data, [[0.5, 1e-3], [2.0, -0.25]])


@pytest.mark.parametrize("loader, first, prefix", WIDE_LOADERS)
@pytest.mark.parametrize("body", ["r1,0.5\nr2,x\n", "r1,0.5,1\n", ""])
def test_a_faulty_file_is_opened_once_per_load(tmp_path, monkeypatch, loader, first, prefix,
                                               body):
    # the fault scan reads the bytes that failed to parse, not the file again
    path = tmp_path / "f.csv"
    path.write_text(f"{first},{prefix}1\n{body}")
    opened = []
    real = builtins.open

    def spy(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(stdlib_io, "open", spy)  # pathlib opens through io.open
    for n in (1, 2):
        with pytest.raises(DataError, match=re.escape(str(path))):
            loader(path)
        assert len(opened) == n


@pytest.mark.parametrize("lineterminator", ["\r\n", "\n"], ids=["CRLF", "LF"])
def test_format_rows_quotes_each_label_as_csv_quotes_the_whole_row(lineterminator):
    # csv quotes a field that holds a character of the line terminator
    labels = ["", "plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " "]
    block = np.array([[1.5, -0.1], [1e-300, 123456789.0], [0.0, -0.0], [2.0, 3.0],
                      [np.pi, 1e300], [5e-324, 7.0], [1.0, 1.0]])
    want = stdlib_io.StringIO()
    csv.writer(want, lineterminator=lineterminator).writerows(
        [label, *row] for label, row in zip(labels, block.tolist()))
    got = "".join(io.format_rows(labels, block, lineterminator=lineterminator))
    assert got == want.getvalue()


class TestKeptParse:
    """The last parse is kept, keyed on the bytes' sha256 and the columns read."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []
        real = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    def test_the_same_bytes_are_parsed_once_from_any_path(self, tmp_path, parses):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            path.write_text("age,v1\n0,0.5\n")
        first = io.load_schedule_csv(a)
        assert io.load_schedule_csv(a) == first and io.load_schedule_csv(b) == first
        assert len(parses) == 1
        io.load_covariates_csv(b)  # the same bytes, other columns: the same parse
        assert len(parses) == 1
        io.load_weights_csv(b)  # the same bytes, but the key names the weight columns
        assert len(parses) == 2

    def test_a_rewrite_with_the_same_size_and_mtime_loads_the_new_values(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("age,x\n0,0.5\n")
        assert io.load_schedule_csv(path).data[0, 0] == 0.5
        before = path.stat()
        path.write_text("age,x\n0,0.7\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert io.load_schedule_csv(path).data[0, 0] == 0.7

    def test_a_failed_parse_keeps_the_last_one(self, tmp_path, parses):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("age,x\n0,0.5\n")
        bad.write_text("age,x\n0,0.5\n1,nan\n")
        io.load_schedule_csv(good)
        with pytest.raises(DataError, match="non-finite cell"):
            io.load_schedule_csv(bad)
        assert len(parses) == 2
        assert io.load_schedule_csv(good).data.tolist() == [[0.5]]
        assert len(parses) == 2  # still kept
        bad.write_text("age,x\n0,0.5\n1,0.25\n")
        assert io.load_schedule_csv(bad).data.tolist() == [[0.5], [0.25]]
        assert len(parses) == 3

    def test_writing_into_a_load_does_not_change_the_next(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("schedule,v1,v2\na,1,2\nb,3,4\n")
        want = io._read_csv(path)
        for got in (want, io._read_csv(path)):
            header, labels, names, block = got
            assert block.flags.writeable and block.flags.c_contiguous
        header, labels, names, block = io._read_csv(path)
        for cells in (header, labels, names):
            cells[0] = "changed"
            cells.append("added")
        block[:] = 0.0
        again = io._read_csv(path)
        assert again[:3] == (["schedule", "v1", "v2"], ["a", "b"], ["v1", "v2"])
        assert again[3].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        labels, weights = io.load_weights_csv(path)
        weights[0, 0] = -1.0
        labels.append("c")
        assert io.load_weights_csv(path)[0] == ["a", "b"]
        assert io.load_weights_csv(path)[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestJson:
    def test_basis_round_trip_is_exact(self, mortality_log):
        basis = schedule.build_basis(mortality_log, 2, source_id="mx")
        back = io.basis_from_json(io.basis_to_json(basis))
        np.testing.assert_array_equal(back.components, basis.components)
        np.testing.assert_array_equal(back.singular_values, basis.singular_values)
        assert back.group_labels == basis.group_labels
        assert back.scale == basis.scale and back.source_id == "mx"

    def test_models_round_trip_is_exact(self, rng):
        x = rng.normal(size=12)
        y = 1.0 + 0.5 * x + 0.1 * rng.normal(size=12)
        model = ols_fit(y, {"x": x})
        (back,) = io.models_from_json(io.models_to_json([model]))
        np.testing.assert_array_equal(back.coefficients, model.coefficients)
        np.testing.assert_array_equal(back.standard_errors, model.standard_errors)
        assert back.r_squared == model.r_squared
        assert back.predictor_names == model.predictor_names

    def test_malformed_json(self):
        with pytest.raises(DataError):
            io.basis_from_json("{}")
        with pytest.raises(DataError):
            io.models_from_json('{"models": [{"bad": 1}]}')


class TestPpm:
    def test_p6_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(5, 7, 3)).astype(float)
        path = tmp_path / "img.ppm"
        io.write_ppm(pixels, path, "P6")
        back, magic = io.read_ppm(path)
        assert magic == "P6"
        np.testing.assert_array_equal(back, pixels)

    def test_p3_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(4, 3, 3)).astype(float)
        path = tmp_path / "img.ppm"
        io.write_ppm(pixels, path, "P3")
        back, magic = io.read_ppm(path)
        assert magic == "P3"
        np.testing.assert_array_equal(back, pixels)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n# a comment\n2 1\n# another\n255\n1 2 3 4 5 6\n")
        back, _ = io.read_ppm(path)
        np.testing.assert_array_equal(back, [[[1, 2, 3], [4, 5, 6]]])

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match="P3 or P6"):
            io.read_ppm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n1 1\n65535\n0 0 0\n")
        with pytest.raises(DataError, match="8-bit"):
            io.read_ppm(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DataError, match="pixel"):
            io.read_ppm(path)

    @pytest.mark.parametrize("raw, message", [
        (b"P3\n1 x\n255\n0 0 0\n", "malformed PPM header"),
        (b"P3\n1 1\n255\n0 x 0\n", "non-numeric P3 pixel data"),
        (b"P3\n1 1\n255\n0 0\n", "expected 3 pixel values, got 2"),
        (b"P3\n1 1\n255\n0 256 0\n", "P3 pixel value out of 0..255"),
    ])
    def test_malformed_p3(self, tmp_path, raw, message):
        path = tmp_path / "img.ppm"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message):
            io.read_ppm(path)


def _tokenize_by_byte(raw):
    # byte-at-a-time reference for io._PPM_HEADER: returns the header tokens
    # after the magic (at most three) and the offset just past the last one
    tokens = []
    pos = 2
    while len(tokens) < 3 and pos < len(raw):
        ch = raw[pos:pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace():
                pos += 1
            tokens.append(raw[start:pos])
    return tokens, pos


_HEADER_PIECES = [
    *(bytes([b]) for b in b" \t\n\r\x0b\x0c#0123456789aZ\x80\xff"), b"P3", b"P6", b"255",
]


@settings(max_examples=200, deadline=None)
@given(magic=st.sampled_from([b"P3", b"P6"]),
       pieces=st.lists(st.sampled_from(_HEADER_PIECES), max_size=40))
@example(magic=b"P3", pieces=[b"#3P2\n1 2 3"])  # a comment runs to its newline
@example(magic=b"P6", pieces=[b"1#2 3\n4"])  # a '#' inside a token is part of it
def test_ppm_header_regex_matches_the_byte_tokenizer(magic, pieces):
    raw = magic + b"".join(pieces)
    tokens, pos = _tokenize_by_byte(raw)
    header = io._PPM_HEADER.match(raw)
    if len(tokens) < 3:
        assert header is None
    else:
        assert header is not None
        assert list(header.groups()) == tokens and header.end() == pos

