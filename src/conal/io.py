"""On-disk formats.

Feature files
    CSV     header ``id,label,f0,...,f{d-1}``; empty label = unlabeled row;
            UTF-8, LF line endings; ids hold no comma or line break.
    binary  magic ``ALCV1`` | u32 n | u32 d | u8 has_labels | n*d LE f32
            values | (n LE u16 labels when labeled) | n ids, each a u16 LE
            byte length followed by UTF-8 bytes.

Score files are CSV ``id,predicted_class,score`` rows of one ``%s,%d,%r``
template: a score is the ``repr`` of its float64, an id is quoted as
``csv.writer`` quotes and holds no CR. CSV values and one-width id tables take
numpy's bulk C paths; other input goes cell by cell or id by id, for exact errors.

Checkpoints reuse the same little-endian framing under a ``MODL1`` magic:
a u32-length JSON header (config echo plus an array manifest of
name/shape/dtype entries) followed by the raw arrays in manifest order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np

from .data import FeatureMatrix, first_repeat
from .errors import ConfigError, DataError

FEATURE_MAGIC = b"ALCV1"
MODEL_MAGIC = b"MODL1"

FORMATS = ("binary", "csv")

_CSV_BLOCK_ROWS = 4096  # CSV or score rows formatted per write, binary ids encoded per block
_CSV_READ_BYTES = 1 << 16  # bytes of whole lines read per window, split and parsed at once
# ``,`` ends a CSV cell; the rest are every line break ``str.splitlines`` splits on
_CSV_ID_BREAKS = re.compile("[,\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_CSV_QUOTED = re.compile('[,"\n]')  # what csv.writer quotes, bar the CR no score id holds


@contextlib.contextmanager
def replacing(path, mode: str, **open_kwargs):
    """The one way conal writes a file: yield ``<path>.tmp`` as ``open`` opens it, renamed
    over ``path`` when the block ends, removed if it raises. No fsync: power loss can lose it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):  # gone once renamed, or never made
            os.remove(tmp)


def save_features(data: FeatureMatrix, path: str | Path, format: str = "binary") -> None:
    path = Path(path)
    if format == "binary":
        _save_binary(data, path)
    elif format == "csv":
        _save_csv(data, path)
    else:
        raise ConfigError(f"unknown feature format {format!r}; valid: {', '.join(FORMATS)}")


def load_features(path: str | Path, format: str = "binary") -> FeatureMatrix:
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature file not found: {path}")
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path)
    raise ConfigError(f"unknown feature format {format!r}; valid: {', '.join(FORMATS)}")


def _save_binary(data: FeatureMatrix, path: Path) -> None:
    has_labels = data.labels is not None
    if has_labels and data.labels.max(initial=0) > 0xFFFF:
        raise DataError("labels exceed the u16 range of the binary format")
    table = []  # the id table, one bytes object per block of ids
    for ids in _id_blocks(data.ids):
        raws = [sid.encode("utf-8") for sid in ids]
        if max(map(len, raws), default=0) > 0xFFFF:
            bad = next(sid for sid, raw in zip(ids, raws) if len(raw) > 0xFFFF)
            raise DataError(f"sample id {bad[:40]!r}... is {len(bad.encode('utf-8'))} UTF-8 "
                            "bytes; the binary format holds at most 65535")
        table.append(b"".join([len(raw).to_bytes(2, "little") + raw for raw in raws]))
    with replacing(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIB", data.n, data.d, int(has_labels)))
        fh.write(np.ascontiguousarray(data.values, dtype="<f4"))
        if has_labels:
            fh.write(data.labels.astype("<u2"))
        fh.writelines(table)


def _id_blocks(ids: np.ndarray):
    """A FeatureMatrix's ``str`` ids as lists, ``_CSV_BLOCK_ROWS`` ids at a time."""
    for start in range(0, len(ids), _CSV_BLOCK_ROWS):
        yield ids[start:start + _CSV_BLOCK_ROWS].tolist()


def _load_binary(path: Path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        head = fh.read(14)
        if head[:5] != FEATURE_MAGIC:
            raise DataError(f"{path}: bad magic, not a feature file")
        if len(head) < 14:
            raise DataError(f"{path}: truncated header")
        n, d, has_labels = struct.unpack_from("<IIB", head, 5)
        if has_labels > 1:
            raise DataError(f"{path}: corrupt header (label flag {has_labels})")
        size = os.fstat(fh.fileno()).st_size
        if 14 + (4 * d + 2 * has_labels) * n > size:
            raise DataError(f"{path}: truncated, header promises {n} x {d} values")
        values = np.empty((n, d), dtype="<f4")
        labels = np.empty(n if has_labels else 0, dtype="<u2")
        if fh.readinto(values) != values.nbytes or fh.readinto(labels) != labels.nbytes:
            raise DataError(f"{path}: truncated, header promises {n} x {d} values")
        ids = _read_id_table(path, fh.read(), n, size)
    try:
        return FeatureMatrix(values, ids, labels.astype(np.int64) if has_labels else None)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_id_table(path: Path, table: bytes, n: int, size: int) -> np.ndarray:
    """The ``n`` ids of a binary feature file's id table, the last ``len(table)``
    of its ``size`` bytes: if all are ASCII and ``w >= 1`` bytes long, the ``S{w}``
    view of one ``(n, 2 + w)`` byte grid (cast as decoding casts), else id by id."""
    if n and (w := len(table) // n - 2) > 0 and len(table) == n * (2 + w):
        grid = np.frombuffer(table, dtype=np.uint8).reshape(n, 2 + w)
        if (grid[:, :2] == [w & 0xFF, w >> 8]).all() and (grid[:, 2:] < 0x80).all():
            return grid[:, 2:].view(f"S{w}")[:, 0].astype(str)
    offset, raw = 0, []
    try:
        for _ in range(n):
            start = offset + 2
            offset = start + (table[offset] | table[offset + 1] << 8)
            raw.append(table[start:offset])
    except IndexError:
        raise DataError(f"{path}: truncated id table ({len(raw)} of {n} ids)") from None
    if offset != len(table):
        raise DataError(f"{path}: the id table ends at byte {size - len(table) + offset} "
                        f"of {size}")
    try:
        return np.array([sid.decode("utf-8") for sid in raw], dtype=str)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: corrupt id table ({exc})") from None


def _save_csv(data: FeatureMatrix, path: Path) -> None:
    for ids in _id_blocks(data.ids):
        if _CSV_ID_BREAKS.search("".join(ids)):
            bad = next(sid for sid in ids if _CSV_ID_BREAKS.search(sid))
            raise DataError(f"sample id {bad!r} holds a comma or line break, "
                            "which a CSV row cannot carry")
    # 9 significant digits reproduce float32 values exactly
    row = "%s,%s," + ",".join(["%.9g"] * data.d) + "\n"
    with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["id", "label"] + [f"f{j}" for j in range(data.d)]) + "\n")
        for start, ids in zip(range(0, data.n, _CSV_BLOCK_ROWS), _id_blocks(data.ids)):
            stop = start + _CSV_BLOCK_ROWS
            labels = [""] * len(ids) if data.labels is None else data.labels[start:stop].tolist()
            fh.write("".join([row % (sid, label, *values) for sid, label, values
                              in zip(ids, labels, data.values[start:stop].tolist())]))


def save_scores(path: str | Path, ids: np.ndarray, predicted: np.ndarray,
                scores: np.ndarray) -> None:
    """Write ``id,predicted_class,score`` rows as ``csv.writer`` writes them:
    ``%s,%d,%r`` a block at a time, a float64 score as its ``repr``, and an id
    holding ``,``, ``"`` or LF wrapped in ``"``, each inner ``"`` doubled.

    ``csv.writer`` leaves an id holding a bare CR unquoted, and a CSV reader
    then splits its row in two; such an id is a data error, raised before
    the file is opened.
    """
    id_list = ids.tolist()
    if "\r" in (joined := "".join(id_list)):
        bad = next(sid for sid in id_list if "\r" in sid)
        raise DataError(f"score id {bad!r} holds a carriage return, which the "
                        "score CSV cannot carry")
    if _CSV_QUOTED.search(joined):
        id_list = ['"%s"' % sid.replace('"', '""') if _CSV_QUOTED.search(sid) else sid
                   for sid in id_list]
    rows = zip(id_list, predicted.tolist(),
               np.asarray(scores, dtype=np.float64).tolist())
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,predicted_class,score\n")
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
            fh.write("".join(["%s,%d,%r\n" % row for row in block]))


def _csv_windows(path: Path):
    """The lines of a UTF-8 text file as ``read().splitlines()`` gives them in
    universal-newlines mode, one list per read of about ``_CSV_READ_BYTES`` of
    whole lines.

    Each read ends just after a LF byte, which no UTF-8 sequence and no
    ``\\r\\n`` pair spans, so each read decodes and splits on its own; a file
    with no LF is read whole. Invalid UTF-8 is a ``DataError`` that names its
    row (the header is row 0).
    """
    row = read = 0
    with open(path, "rb") as fh:
        while raw := b"".join(fh.readlines(_CSV_READ_BYTES)):
            try:
                lines = raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                row += len((raw[:exc.start].decode("utf-8") + "|").splitlines()) - 1
                raise DataError(f"{path}: row {row}: not UTF-8 text ({exc.reason} at byte "
                                f"{read + exc.start})") from None
            row += len(lines)
            read += len(raw)
            yield lines


def _load_csv(path: Path) -> FeatureMatrix:
    windows = _csv_windows(path)
    first = next(windows, None)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = first[0].split(",")
    if header[:2] != ["id", "label"]:
        raise DataError(f"{path}: header must start with id,label")
    d = len(header) - 2
    if d < 1:
        raise DataError(f"{path}: no feature columns in header")
    ids, labels, values, rows = _csv_rows(path, itertools.chain([first[1:]], windows), d)
    if not any(labels):
        parsed_labels = None
    elif all(labels):
        parsed_labels = _parse_cells(path, labels, rows, int, np.int64,
                                     "unparseable label {cell!r}",
                                     lambda v: v >= 0, "negative label {cell!r}")
    else:
        raise DataError(
            f"{path}: row {rows[labels.index('')]}: empty label in a labeled file "
            "(label all rows or none)"
        )
    try:
        return FeatureMatrix(values, ids, parsed_labels)
    except DataError:
        # a duplicate id gets its row number, which FeatureMatrix cannot give
        repeat = first_repeat(np.array(ids))
        if repeat is not None:
            raise DataError(f"{path}: row {rows[repeat]}: duplicate id {ids[repeat]!r}") from None
        raise


def _csv_rows(path: Path, windows, d: int) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """The ids, the label cells, the (n, d) float32 values and the file row
    numbers of the nonempty rows in ``windows``, the line lists that follow
    the header, each read by ``_bulk_window`` or else ``_window_by_cell``."""
    ids, labels, blocks, row_blocks = [], [], [], []
    row_idx = 0
    for lines in windows:
        rows = np.flatnonzero(np.fromiter(map(len, lines), np.int64, len(lines))) + row_idx + 1
        row_idx += len(lines)
        new_ids, new_labels, block = _bulk_window(lines, d) or _window_by_cell(path, lines, rows, d)
        ids += new_ids
        labels += new_labels
        blocks.append(block)
        row_blocks.append(rows)
    return ids, labels, np.concatenate(blocks), np.concatenate(row_blocks)


def _bulk_window(lines: list[str], d: int):
    """The ids, label cells and (m, d) float32 values of the m nonempty ``lines`` by
    numpy's C text reader, else None (a line not of d + 2 cells, a non-finite value).
    Bar ``\\x1f``, refused here, it reads a subset of what ``float`` reads, bit for bit."""
    try:  # ValueError: no nonempty line, one of < 3 cells, or a cell the reader rejects
        ids, labels, text = zip(*[line.split(",", 2) for line in lines if line])
        if "" in text or "\x1f" in "".join(text):  # numpy skips "", strips \x1f; float won't
            return None
        values = np.loadtxt(text, delimiter=",", dtype=np.float32, comments=None, ndmin=2)
    except ValueError:
        return None
    ok = values.shape == (len(text), d) and np.isfinite(values).all()
    return (ids, labels, values) if ok else None


def _window_by_cell(path: Path, lines: list[str], rows: np.ndarray, d: int):
    """``_bulk_window``'s result by ``float``, cell by cell: a fault names its row."""
    ids, labels, cells = [], [], []
    for row, line in zip(rows.tolist(), filter(None, lines)):
        cols = line.split(",")
        if len(cols) != d + 2:
            raise DataError(f"{path}: row {row} has {len(cols) - 2} feature values, expected {d}")
        ids.append(cols[0])
        labels.append(cols[1])
        cells += cols[2:]
    values = _parse_cells(path, cells, rows, float, np.float32,
                          "unparseable feature value ({exc})", np.isfinite,
                          "feature value {cell!r} is not a finite float32")
    return ids, labels, values.reshape(len(ids), d)


def _parse_cells(path: Path, cells: list[str], rows, parse, dtype, fault: str,
                 valid, invalid: str) -> np.ndarray:
    """The ``dtype`` array of ``parse`` applied to ``cells``, the cells of the
    file rows numbered ``rows``, each row holding the same number of cells.

    The first cell that ``parse`` rejects, that ``dtype`` cannot hold or whose
    value the elementwise test ``valid`` rejects raises a ``DataError`` naming
    its row: ``fault`` formatted from the ``cell`` and its ``exc``, or ``invalid``.
    """
    with np.errstate(over="ignore"):  # a float32 overflow reads inf, which ``valid`` rejects
        with contextlib.suppress(ValueError, OverflowError):
            out = np.fromiter(map(parse, cells), dtype=dtype, count=len(cells))
            if valid(out).all():
                return out
        for i, cell in enumerate(cells):
            try:
                message = None if valid(dtype(parse(cell))) else invalid.format(cell=cell)
            except (ValueError, OverflowError) as exc:
                message = fault.format(cell=cell, exc=exc)
            if message is not None:
                raise DataError(f"{path}: row {rows[i // (len(cells) // len(rows))]}: {message}")


# ---------------------------------------------------------------------------
# MODL1 container: JSON header + named float64 arrays
# ---------------------------------------------------------------------------


def write_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = []
    payload = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": "f8"})
        payload.append(arr.tobytes())
    header = json.dumps({"meta": meta, "manifest": manifest}, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.writelines([MODEL_MAGIC, struct.pack("<I", len(header)), header, *payload])


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:5] != MODEL_MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint container")
    try:
        # a header cut short fails to parse, since no proper prefix of it is JSON
        offset = 9 + struct.unpack_from("<I", blob, 5)[0]
        header = json.loads(blob[9:offset].decode("utf-8"))
        meta = dict(header["meta"])
        manifest = [(str(e["name"]), tuple(int(x) for x in e["shape"]), e["dtype"])
                    for e in header["manifest"]]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: truncated or corrupt header ({exc!r})") from None
    if any(dtype != "f8" or min(shape, default=0) < 0 for _, shape, dtype in manifest):
        raise DataError(f"{path}: corrupt manifest")
    needed = 8 * sum(math.prod(shape) for _, shape, _ in manifest)
    if offset + needed != len(blob):
        raise DataError(f"{path}: payload has {len(blob) - offset} bytes, "
                        f"manifest needs {needed}")
    arrays = {}
    for name, shape, _ in manifest:
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays[name] = arr.copy()
        offset += 8 * count
    return meta, arrays
