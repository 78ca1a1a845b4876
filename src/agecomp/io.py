"""File formats: schedule/weight/covariate CSV, basis and model JSON, PPM.

Numbers are written as shortest round-trip decimal strings (``fmt_number``)
so a load restores the exact float.  A CSV's header is read by csv.reader and
all its data rows by one np.loadtxt call; a numeric cell is one that loadtxt
reads as a float (not '1_000' or '١', which float() reads), and a cell that
is not finite is an error.  CSV rows are formatted a whole row per call, with
the same bytes as formatting each cell by ``fmt_number``.
An input that cannot be read, or whose bytes are not UTF-8 text, raises DataError.
A CSV file is read once, as bytes, and the last successful parse is kept for
the life of the process, keyed on the sha256 of those bytes and on which
columns the loader reads: a load of the same bytes, from any path, returns
copies of it and parses nothing, and the one kept parse's lists and float
block stay in memory until a load of other bytes replaces them.  The
commands of one ``agecomp run`` script share it; separate processes do not.
Every output is written through ``writing``, which overwrites an existing file
in place and then cuts it to the new length, instead of truncating it to zero
first; a process killed mid-write can therefore leave old bytes after new ones.
"""

import csv
import hashlib
import json
import os
import re
import stat
import warnings
from contextlib import contextmanager
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import linalg
from .errors import DataError
from .regress import CovariateTable, LinearModel
from .schedule import ComponentBasis, ScheduleMatrix, label_index


def fmt_number(value) -> str:
    """Shortest decimal string that round-trips to the exact float."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# CSV

@contextmanager
def _reading(path):
    """The one place where failing to read input ``path`` becomes a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # such as a cell over the csv module's field limit
        raise DataError(f"{path}: {exc}") from None


@contextmanager
def writing(path, mode: str = "w"):
    """The one place an output is opened: yields ``path`` open for writing, as
    UTF-8 text without newline translation (``mode="w"``) or as bytes (``"wb"``).

    An existing file is overwritten in place and, on exit, normal or by an
    exception, cut to what was written, so no old byte stays after the new
    ones; it keeps its inode, its mode and any symlink to it.  Truncating it
    to zero on open instead makes ext4 force writeback at close
    (``auto_da_alloc``), about ten times the cost of a small write.  Only a
    regular file is cut, so ``os.devnull`` and FIFOs work.  A process killed
    mid-write (no Python exception) can leave old bytes after the new ones.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        fh = open(fd, mode, encoding="utf-8", newline="") if mode == "w" else open(fd, mode)
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            fh.flush()
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > (end := fh.tell()):
                os.ftruncate(fd, end)


def _numbers(cells) -> bool:
    """Whether np.loadtxt, as :func:`_read_csv` calls it, reads every one of
    ``cells`` (csv.reader's cells, quoted back) as a float."""
    line = ",".join('"' + cell.replace('"', '""') + '"' for cell in cells)
    try:
        np.loadtxt(StringIO(line), **_LOADTXT)
    except ValueError:
        return False
    return True


def _text(raw):
    r"""The bytes of a CSV as text: UTF-8, with any byte-order mark (which
    spreadsheet exports put first) dropped, and with the default universal
    newlines, which read '\r' and '\r\n' as '\n', as loadtxt needs."""
    return TextIOWrapper(BytesIO(raw), encoding="utf-8-sig")


def _fault(path, raw, numeric, exc=None) -> DataError:
    """The first fault of ``raw``, a CSV's bytes that the one-pass read in
    :func:`_read_csv` rejected, found by reading them again row by row: fewer
    than two rows, a row whose width is not the header's, or, in row-major
    order, a cell of the ``numeric`` columns that loadtxt does not read as a
    number.  ``exc`` is loadtxt's error, for a fault that the row-by-row
    reading does not see."""
    rows = [row for row in csv.reader(_text(raw)) if row]
    if len(rows) < 2:
        return DataError(f"{path}: need a header row and at least one data row")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            return DataError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
    cols = list(numeric(rows[0]))
    for r, row in enumerate(rows[1:]):
        if cols and not _numbers([row[c] for c in cols]):  # one call a row, then a call a cell
            for c in cols:
                if not _numbers([row[c]]):
                    return DataError(
                        f"{path}: non-numeric cell {row[c]!r} at row {r + 2}, column {c + 1}"
                    )
    return DataError(f"{path}: {exc or 'a row cannot be split into cells'}")


def _data_columns(header):
    return range(1, len(header))


_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def _read_csv(path, numeric=_data_columns):
    """(header, row labels, column names, float block) of a CSV of a header row
    and then rows of a label and cells; the block holds the ascending columns
    ``numeric(header)``, named by their stripped header cells, and the cells of
    any other column are not read.

    The file's bytes are read once.  The last parse is kept, keyed on
    ``numeric`` and the sha256 of the bytes, not on ``path``, so a load of the
    same bytes, from any path, parses nothing.  Each call returns new lists
    and a new writable C-order copy of the kept block; the one kept parse
    holds its lists and block, but not the bytes, until a load of other bytes
    replaces it.  A parse that fails keeps nothing and leaves the last one kept.
    """
    with _reading(path), open(path, "rb") as fh:
        raw = fh.read()
    header, labels, names, block = _last_parse(path, numeric, raw)
    return list(header), list(labels), list(names), block.copy()


def _parse_csv(path, numeric, raw):
    """:func:`_read_csv` of the bytes ``raw``, with a read-only block.

    The header comes from csv.reader and every data row from one np.loadtxt
    call, which parses the cells in C; a numeric cell is what it reads as a
    float.  Blank lines are skipped.  If loadtxt fails, :func:`_fault` reads
    the bytes again only to name the fault; a cell that is not finite, such
    as 'nan' or '1e400', is named here.
    """
    labels = []

    def label(cell):
        labels.append(cell.strip())
        return 0.0

    with _reading(path), _text(raw) as fh:
        header = next(filter(None, csv.reader(fh)), [])
        cols = list(numeric(header))
        skipped = dict.fromkeys(set(range(1, len(header))).difference(cols), lambda cell: 0.0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data" warning
                block = np.loadtxt(fh, converters={0: label, **skipped}, **_LOADTXT)
        except ValueError as exc:
            raise _fault(path, raw, numeric, exc) from None
        if block.shape[0] == 0 or block.shape[1] != len(header):
            raise _fault(path, raw, numeric)
    block = block.take(cols, axis=1)  # C order; block[:, cols] would be Fortran order
    if not np.isfinite(block).all():
        r, c = np.unravel_index(np.argmax(~np.isfinite(block)), block.shape)
        raise DataError(
            f"{path}: non-finite cell ({block[r, c]}) at row {r + 2}, column {cols[c] + 1}"
        )
    block.flags.writeable = False
    return header, labels, [header[c].strip() for c in cols], block


_last_parse = linalg._keep_last(
    _parse_csv, key=lambda path, numeric, raw: (numeric, hashlib.sha256(raw).digest())
)


def format_rows(labels, block, lineterminator="\r\n"):
    """CSV lines ``label,v1,...`` of a float block, a row at a time.  csv quotes
    the label; values are ``repr`` of a float (``fmt_number``), which never
    needs quoting, so they are joined without csv's per-character scan."""
    # writerow returns what the file's write returns: here the line itself
    quote = csv.writer(SimpleNamespace(write=str), lineterminator=lineterminator).writerow
    for label, row in zip(labels, np.asarray(block, dtype=float), strict=True):
        head = quote([label, ""])[: -len(lineterminator)]  # the csv label and a comma
        yield head + ",".join(map(repr, row.tolist())) + lineterminator


def _write_csv(path, header, labels, block) -> None:
    with writing(path) as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(format_rows(labels, block))


def load_schedule_csv(path, log: bool = False) -> ScheduleMatrix:
    """Read an age-by-schedule matrix: header 'age,<label>...', one row per group."""
    header, group_labels, schedule_labels, data = _read_csv(path)
    if header[0].strip().lower() != "age":
        raise DataError(f"{path}: first header cell must be 'age', got {header[0]!r}")
    if not schedule_labels:
        raise DataError(f"{path}: need at least one schedule column")
    matrix = ScheduleMatrix(group_labels, schedule_labels, data)
    return matrix.to_log() if log else matrix


def write_schedule_csv(matrix: ScheduleMatrix, path) -> None:
    _write_csv(path, ["age", *matrix.schedule_labels], matrix.group_labels, matrix.data)


def load_covariates_csv(path) -> CovariateTable:
    """Read a covariate table: label column first, one named column per covariate."""
    _, labels, names, block = _read_csv(path)
    return CovariateTable(labels, dict(zip(names, block.T)))


def write_weights_csv(labels, weights, path, residual_norms=None) -> None:
    """Weight rows (one per schedule), columns v1..vc, optional residual norm."""
    w = np.asarray(weights, dtype=float)
    header = ["schedule"] + [f"v{i + 1}" for i in range(w.shape[1])]
    if residual_norms is not None:
        header.append("residual_norm")
        w = np.column_stack([w, residual_norms])
    _write_csv(path, header, labels, w)


def _weight_columns(header):
    return [c for c, name in enumerate(header) if c and re.fullmatch(r"v\d+", name.strip())]


def load_weights_csv(path):
    """Return (unique labels, H x c weights) from columns v1..vc in order; others are ignored."""
    _, labels, found, weights = _read_csv(path, _weight_columns)
    if not found:
        raise DataError(f"{path}: no weight columns (v1, v2, ...) found")
    if found != [f"v{i + 1}" for i in range(len(found))]:
        raise DataError(f"{path}: weight columns must be v1..v{len(found)} in order, got {found}")
    label_index(labels, "weight row")
    return labels, weights


def read_text(path) -> str:
    """UTF-8 text of a file, such as a basis or models JSON; raises DataError if unreadable."""
    with _reading(path):
        return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON

def basis_to_json(basis: ComponentBasis) -> str:
    payload = {
        "group_labels": list(basis.group_labels),
        "singular_values": [fmt_number(v) for v in basis.singular_values],
        "components": [[fmt_number(v) for v in basis.components[:, i]] for i in range(basis.c)],
        "c": basis.c,
        "scale": basis.scale,
        "source_id": basis.source_id,
    }
    return json.dumps(payload, indent=2)


def basis_from_json(text: str) -> ComponentBasis:
    try:
        payload = json.loads(text)
        return ComponentBasis(
            group_labels=payload["group_labels"],
            components=np.array([list(map(float, comp)) for comp in payload["components"]]).T,
            singular_values=list(map(float, payload["singular_values"])),
            scale=payload["scale"],
            source_id=payload.get("source_id", ""),
        )
    except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise DataError(f"malformed basis JSON: {exc}") from exc


_MODEL_ARRAYS = ("coefficients", "standard_errors", "t_values", "p_values")


def models_to_json(models) -> str:
    payload = {
        "models": [
            {
                "response": f"v{i + 1}",
                "predictor_names": list(m.predictor_names),
                "with_intercept": True,
                **{key: [fmt_number(v) for v in getattr(m, key)] for key in _MODEL_ARRAYS},
                "r_squared": fmt_number(m.r_squared),
                "n": m.n,
            }
            for i, m in enumerate(models)
        ]
    }
    return json.dumps(payload, indent=2)


def models_from_json(text: str):
    """Models as written by models_to_json; each has an intercept, and each
    array holds one value per term (the intercept, then the predictors)."""
    models = []
    try:
        for i, entry in enumerate(json.loads(text)["models"]):
            names = tuple(label_index(entry["predictor_names"], "predictor"))
            if entry["with_intercept"] is not True:
                raise DataError(f"model {i + 1} has no intercept; every model needs one")
            terms = len(names) + 1
            arrays = {key: np.array(list(map(float, entry[key]))) for key in _MODEL_ARRAYS}
            for key, values in arrays.items():
                if values.size != terms:
                    raise DataError(f"model {i + 1} has {values.size} {key} for {terms} terms")
            models.append(LinearModel(
                predictor_names=names, **arrays, r_squared=float(entry["r_squared"]),
                n=int(entry["n"]), residuals=np.array([]),
            ))
    except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise DataError(f"malformed models JSON: {exc}") from exc
    return models


# ---------------------------------------------------------------------------
# PPM (P3 ascii / P6 binary, 8-bit)

# width, height and maxval: a token is a whole run of non-space bytes that does
# not start with '#'; a '#' where a token would start comments out its line
_PPM_HEADER = re.compile(rb"P[36]" + rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)(?!\S)" * 3)


def read_ppm(path):
    """Read a PPM image; returns (pixels H x W x 3 float array, magic)."""
    with _reading(path):
        raw = Path(path).read_bytes()
    if raw[:2] not in (b"P3", b"P6"):
        raise DataError(f"{path}: unsupported format {raw[:2]!r}, need P3 or P6")
    magic = raw[:2].decode()
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise DataError(f"{path}: truncated PPM header")
    pos = header.end()
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit channels supported, maxval={maxval}")

    count = width * height * 3
    if magic == "P6":
        pos += 1  # exactly one whitespace byte separates maxval from the raster
        body = raw[pos:pos + count]
        if len(body) != count:
            raise DataError(f"{path}: expected {count} pixel bytes, got {len(body)}")
        flat = np.frombuffer(body, dtype=np.uint8).astype(float)
    else:
        try:
            values = raw[pos:].split()
            flat = np.array([int(v) for v in values[:count]], dtype=float)
        except ValueError:
            raise DataError(f"{path}: non-numeric P3 pixel data") from None
        if flat.size != count:
            raise DataError(f"{path}: expected {count} pixel values, got {flat.size}")
        if np.any(flat < 0) or np.any(flat > 255):
            raise DataError(f"{path}: P3 pixel value out of 0..255")
    return flat.reshape(height, width, 3), magic


def write_ppm(pixels, path, magic: str = "P6") -> None:
    arr = np.clip(np.rint(np.asarray(pixels, dtype=float)), 0, 255).astype(np.uint8)
    height, width, _ = arr.shape
    header = f"{magic}\n{width} {height}\n255\n"
    with writing(path, "wb") as fh:
        fh.write(header.encode())
        if magic == "P6":
            fh.write(arr.tobytes())
        else:
            flat = arr.reshape(-1, 3)
            lines = [" ".join(f"{r} {g} {b}" for r, g, b in flat[i:i + 5])
                     for i in range(0, len(flat), 5)]
            fh.write(("\n".join(lines) + "\n").encode())
