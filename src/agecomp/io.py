"""File formats: schedule/weight/covariate CSV, basis and model JSON, PPM.

Numbers are written as shortest round-trip decimal strings (``fmt_number``)
so a load restores the exact float.  CSV rows are parsed and formatted whole,
a row per call, with the same bytes as formatting each cell by ``fmt_number``.
An input that cannot be read, or whose bytes are not UTF-8 text, raises DataError.
Every output is written through ``writing``, which overwrites an existing file
in place and then cuts it to the new length, instead of truncating it to zero
first; a process killed mid-write can therefore leave old bytes after new ones.
"""

import csv
import json
import os
import re
import stat
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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


def _read_rows(path):
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    with _reading(path), open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
    return rows


def _parse_block(path, rows, cols) -> np.ndarray:
    """Float array of the data cells in ascending columns ``cols``, a row per
    data row, each parsed by one map(float); cells are tried one at a time, in
    that order, only to name a bad one."""
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
    rows = _read_rows(path)
    if rows[0][0].strip().lower() != "age":
        raise DataError(f"{path}: first header cell must be 'age', got {rows[0][0]!r}")
    schedule_labels = [c.strip() for c in rows[0][1:]]
    group_labels = [row[0].strip() for row in rows[1:]]
    data = _parse_block(path, rows, range(1, len(rows[0])))
    matrix = ScheduleMatrix(group_labels, schedule_labels, data)
    return matrix.to_log() if log else matrix


def write_schedule_csv(matrix: ScheduleMatrix, path) -> None:
    _write_csv(path, ["age", *matrix.schedule_labels], matrix.group_labels, matrix.data)


def load_covariates_csv(path) -> CovariateTable:
    """Read a covariate table: label column first, one named column per covariate."""
    rows = _read_rows(path)
    names = [c.strip() for c in rows[0][1:]]
    labels = [row[0].strip() for row in rows[1:]]
    columns = _parse_block(path, rows, range(1, len(rows[0]))).T
    return CovariateTable(labels, dict(zip(names, columns)))


def write_weights_csv(labels, weights, path, residual_norms=None) -> None:
    """Weight rows (one per schedule), columns v1..vc, optional residual norm."""
    w = np.asarray(weights, dtype=float)
    header = ["schedule"] + [f"v{i + 1}" for i in range(w.shape[1])]
    if residual_norms is not None:
        header.append("residual_norm")
        w = np.column_stack([w, residual_norms])
    _write_csv(path, header, labels, w)


def load_weights_csv(path):
    """Return (unique labels, H x c weights) from columns v1..vc in order; others are ignored."""
    rows = _read_rows(path)
    names = [c.strip() for c in rows[0][1:]]
    keep = [c + 1 for c, name in enumerate(names) if re.fullmatch(r"v\d+", name)]
    if not keep:
        raise DataError(f"{path}: no weight columns (v1, v2, ...) found")
    found = [names[c - 1] for c in keep]
    if found != [f"v{i + 1}" for i in range(len(found))]:
        raise DataError(f"{path}: weight columns must be v1..v{len(found)} in order, got {found}")
    labels = [row[0].strip() for row in rows[1:]]
    label_index(labels, "weight row")
    return labels, _parse_block(path, rows, keep)


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
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
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
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
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
