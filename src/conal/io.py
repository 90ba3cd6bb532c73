"""On-disk formats.

Feature files
    CSV     header ``id,label,f0,...,f{d-1}``; empty label = unlabeled row;
            UTF-8, LF line endings; ids hold no comma or line break.
    binary  magic ``ALCV1`` | u32 n | u32 d | u8 has_labels | n*d LE f32
            values | (n LE u16 labels when labeled) | n ids, each a u16 LE
            byte length followed by UTF-8 bytes.

Score files are CSV ``id,predicted_class,score`` with the score as ``repr``
of its float64 value, quoted as ``csv.writer`` quotes; ids hold no CR.

Checkpoints reuse the same little-endian framing under a ``MODL1`` magic:
a u32-length JSON header (config echo plus an array manifest of
name/shape/dtype entries) followed by the raw arrays in manifest order.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path
from typing import NoReturn

import numpy as np

from .data import FeatureMatrix
from .errors import ConfigError, DataError

FEATURE_MAGIC = b"ALCV1"
MODEL_MAGIC = b"MODL1"

FORMATS = ("binary", "csv")

_CSV_BLOCK_ROWS = 4096  # rows formatted per write, and parsed per float conversion
# ``,`` ends a CSV cell; the rest are every line break ``str.splitlines`` splits on
_CSV_ID_BREAKS = re.compile("[,\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


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
    table = []
    for sid in map(str, data.ids.tolist()):
        raw = sid.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise DataError(f"sample id {sid[:40]!r}... is {len(raw)} UTF-8 bytes; "
                            "the binary format holds at most 65535")
        table += (len(raw).to_bytes(2, "little"), raw)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIB", data.n, data.d, int(has_labels)))
        fh.write(np.ascontiguousarray(data.values, dtype="<f4").tobytes())
        if has_labels:
            fh.write(np.ascontiguousarray(data.labels, dtype="<u2").tobytes())
        fh.write(b"".join(table))


def _load_binary(path: Path) -> FeatureMatrix:
    blob = path.read_bytes()
    if blob[:5] != FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic, not a feature file")
    if len(blob) < 14:
        raise DataError(f"{path}: truncated header")
    n, d, has_labels = struct.unpack_from("<IIB", blob, 5)
    if has_labels > 1:
        raise DataError(f"{path}: corrupt header (label flag {has_labels})")
    offset = 5 + 9
    if offset + (4 * d + 2 * has_labels) * n > len(blob):
        raise DataError(f"{path}: truncated, header promises {n} x {d} values")
    values = np.frombuffer(blob, dtype="<f4", count=n * d, offset=offset).reshape(n, d)
    offset += 4 * n * d
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<u2", count=n, offset=offset).astype(np.int64)
        offset += 2 * n
    raw = []
    try:
        for _ in range(n):
            start = offset + 2
            offset = start + (blob[offset] | blob[offset + 1] << 8)
            raw.append(blob[start:offset])
    except IndexError:
        raise DataError(f"{path}: truncated id table ({len(raw)} of {n} ids)") from None
    if offset != len(blob):
        raise DataError(f"{path}: the id table ends at byte {offset} of {len(blob)}")
    try:
        ids = [sid.decode("utf-8") for sid in raw]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: corrupt id table ({exc})") from None
    return FeatureMatrix(values.copy(), np.array(ids, dtype=str), labels)


def _save_csv(data: FeatureMatrix, path: Path) -> None:
    ids = [str(sid) for sid in data.ids]
    bad = next((sid for sid in ids if _CSV_ID_BREAKS.search(sid)), None)
    if bad is not None:
        raise DataError(f"sample id {bad!r} holds a comma or line break, "
                        "which a CSV row cannot carry")
    labels = [""] * data.n if data.labels is None else data.labels.tolist()
    # 9 significant digits reproduce float32 values exactly
    row = "%s,%s," + ",".join(["%.9g"] * data.d) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["id", "label"] + [f"f{j}" for j in range(data.d)]) + "\n")
        for start in range(0, data.n, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            fh.write("".join([row % (sid, label, *values) for sid, label, values
                              in zip(ids[start:stop], labels[start:stop],
                                     data.values[start:stop].tolist())]))


def save_scores(path: str | Path, ids: np.ndarray, predicted: np.ndarray,
                scores: np.ndarray) -> None:
    """Write ``id,predicted_class,score`` rows with ``csv.writer``, which
    formats each float64 score of ``tolist()`` as its ``repr``.

    ``csv.writer`` leaves an id holding a bare CR unquoted, and a CSV reader
    then splits its row in two; such an id is a data error, raised before
    the file is opened.
    """
    id_list = ids.tolist()
    if "\r" in "".join(id_list):
        bad = next(sid for sid in id_list if "\r" in sid)
        raise DataError(f"score id {bad!r} holds a carriage return, which the "
                        "score CSV cannot carry")
    rows = zip(id_list, predicted.tolist(),
               np.asarray(scores, dtype=np.float64).tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,predicted_class,score\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _load_csv(path: Path) -> FeatureMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:2] != ["id", "label"]:
        raise DataError(f"{path}: header must start with id,label")
    d = len(header) - 2
    if d < 1:
        raise DataError(f"{path}: no feature columns in header")
    ids, labels, cells, blocks = [], [], [], []
    for row_idx, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        row = line.split(",")
        if len(row) != d + 2:
            raise DataError(
                f"{path}: row {row_idx} has {len(row) - 2} feature values, expected {d}"
            )
        ids.append(row[0])
        labels.append(row[1])
        cells += row[2:]
        if len(ids) % _CSV_BLOCK_ROWS == 0:
            blocks.append(_parse_values(path, lines, cells))
            cells = []
    blocks.append(_parse_values(path, lines, cells))
    n_labeled = sum(1 for cell in labels if cell != "")
    if n_labeled == 0:
        parsed_labels = None
    elif n_labeled == len(labels):
        parsed_labels = np.empty(len(labels), dtype=np.int64)
        for row_idx, cell in enumerate(labels, start=1):
            try:
                parsed_labels[row_idx - 1] = int(cell)
            except ValueError as exc:
                raise DataError(f"{path}: row {row_idx}: unparseable label {cell!r}") from exc
    else:
        first_empty = 1 + labels.index("")
        raise DataError(
            f"{path}: row {first_empty}: empty label in a labeled file "
            "(label all rows or none)"
        )
    values = np.concatenate(blocks).reshape(len(ids), d)
    id_arr = np.array(ids, dtype=str)
    try:
        return FeatureMatrix(values, id_arr, parsed_labels)
    except DataError:
        # a duplicate id gets its row number, which FeatureMatrix cannot give
        _raise_first_duplicate(path, id_arr)
        raise


def _raise_first_duplicate(path: Path, ids: np.ndarray) -> None:
    """Raise the row-numbered ``DataError`` for the first repeated id, if any."""
    seen = set()
    for row_idx, sid in enumerate(ids.tolist(), start=1):
        if sid in seen:
            raise DataError(f"{path}: row {row_idx}: duplicate id {sid!r}")
        seen.add(sid)


def _parse_values(path: Path, lines: list[str], cells: list[str]) -> np.ndarray:
    """The float32 values of ``cells``; Python's ``float`` decides what parses."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float32, count=len(cells))
    except ValueError:
        _raise_first_bad_value(path, lines)


def _raise_first_bad_value(path: Path, lines: list[str]) -> NoReturn:
    """Raise the row-numbered ``DataError`` for the first feature cell ``float`` rejects."""
    for row_idx, line in enumerate(lines[1:], start=1):
        for cell in line.split(",")[2:]:
            try:
                float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: row {row_idx}: unparseable feature value ({exc})") from exc


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
    with open(path, "wb") as fh:
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
