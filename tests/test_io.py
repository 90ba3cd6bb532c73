import re
import warnings

import numpy as np
import pytest

from conal.data import DatasetSpec, FeatureMatrix, generate_mixture
from conal.errors import ConfigError, DataError
from conal.io import load_features, read_container, save_features, write_container


@pytest.fixture
def labeled(tmp_path):
    return generate_mixture(DatasetSpec(k=3, d=4, n_per_class=7, seed=2))


def _reference_csv(data: FeatureMatrix) -> str:
    """The CSV text formatted one value at a time."""
    lines = [",".join(["id", "label"] + [f"f{j}" for j in range(data.d)])]
    for i in range(data.n):
        label = "" if data.labels is None else str(int(data.labels[i]))
        lines.append(",".join([str(data.ids[i]), label] + [f"{v:.9g}" for v in data.values[i]]))
    return "\n".join(lines) + "\n"


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, labeled, tmp_path):
        path = tmp_path / "feats.bin"
        save_features(labeled, path, "binary")
        back = load_features(path, "binary")
        assert np.array_equal(back.values, labeled.values)
        assert np.array_equal(back.ids, labeled.ids)
        assert np.array_equal(back.labels, labeled.labels)

    def test_unlabeled_round_trip(self, labeled, tmp_path):
        path = tmp_path / "feats.bin"
        save_features(FeatureMatrix(labeled.values, labeled.ids), path, "binary")
        back = load_features(path, "binary")
        assert back.labels is None
        assert np.array_equal(back.values, labeled.values)

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_id_table_edge_ids_round_trip(self, with_labels, tmp_path):
        ids = ["", "x" * 0xFFFF, "é" * 0x7FFF + "!", "日本語", "🙂", "a"]
        labels = np.arange(len(ids)) if with_labels else None
        data = FeatureMatrix(np.arange(2.0 * len(ids)).reshape(-1, 2), np.array(ids), labels)
        path = tmp_path / "edge.bin"
        save_features(data, path, "binary")
        back = load_features(path, "binary")
        assert back.ids.tolist() == ids
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.labels, data.labels)

    @pytest.mark.parametrize("labels", [None, np.zeros(0, dtype=np.int64)])
    def test_zero_rows_round_trip(self, labels, tmp_path):
        data = FeatureMatrix(np.zeros((0, 3)), np.array([], dtype=str), labels)
        path = tmp_path / "empty.bin"
        save_features(data, path, "binary")
        back = load_features(path, "binary")
        assert back.values.shape == (0, 3)
        assert back.ids.shape == (0,) and back.ids.dtype.kind == "U"
        assert (back.labels is None) == (labels is None)

    def test_trailing_bytes_rejected(self, labeled, tmp_path):
        path = tmp_path / "feats.bin"
        save_features(labeled, path, "binary")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="id table ends at byte"):
            load_features(path, "binary")

    def test_invalid_utf8_id_rejected(self, labeled, tmp_path):
        path = tmp_path / "feats.bin"
        save_features(labeled, path, "binary")
        blob = bytearray(path.read_bytes())
        blob[-1] = 0xFF  # the last byte of the last id
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="corrupt id table"):
            load_features(path, "binary")

    @pytest.mark.parametrize("ids, labels", [
        (["a", "x" * 0x10000], None),
        (["a", "é" * 0x8000], None),
        (["a", "b"], [0, 0x10000]),
    ], ids=["long_id", "long_utf8_id", "big_label"])
    def test_unwritable_data_rejected_before_opening(self, ids, labels, tmp_path):
        data = FeatureMatrix(np.zeros((2, 3)), np.array(ids), labels)
        path = tmp_path / "feats.bin"
        with pytest.raises(DataError) as err:
            save_features(data, path, "binary")
        assert not path.exists()
        assert "np.str_" not in str(err.value)

    def test_non_finite_value_names_file(self, labeled, tmp_path):
        path = tmp_path / "inf.bin"
        save_features(labeled, path)
        blob = bytearray(path.read_bytes())
        blob[14:18] = np.float32(np.inf).tobytes()  # the first value
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"{path}: values contain NaN or Inf")):
            load_features(path, "binary")

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_features(path, "binary")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_features(tmp_path / "absent.bin", "binary")

    def test_unknown_format(self, labeled, tmp_path):
        with pytest.raises(ConfigError):
            save_features(labeled, tmp_path / "x", "parquet")


class TestTruncation:
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_feature_file_cut_anywhere(self, with_labels, tmp_path):
        data = generate_mixture(DatasetSpec(k=2, d=2, n_per_class=3, seed=5), id_prefix="é-")
        path = tmp_path / "feats.bin"
        save_features(data if with_labels else FeatureMatrix(data.values, data.ids), path,
                      "binary")
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(DataError):
                load_features(cut, "binary")

    def test_container_cut_anywhere(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_container(path, {"kind": "model"}, {"w": np.ones((2, 3)), "b": np.zeros(2)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(DataError):
                read_container(cut)

    def test_corrupt_label_flag(self, labeled, tmp_path):
        path = tmp_path / "feats.bin"
        save_features(labeled, path, "binary")
        blob = bytearray(path.read_bytes())
        blob[13] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="label flag"):
            load_features(path, "binary")

    @pytest.mark.parametrize("header", [b"not json", b"[1, 2]", b'{"meta": {}}',
                                        b'{"meta": {}, "manifest": [{"name": "w"}]}'])
    def test_corrupt_container_header(self, header, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"MODL1" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(DataError, match="corrupt header"):
            read_container(path)


class TestCsvFormat:
    def test_round_trip_bit_exact(self, labeled, tmp_path):
        path = tmp_path / "feats.csv"
        save_features(labeled, path, "csv")
        back = load_features(path, "csv")
        assert np.array_equal(back.values, labeled.values)
        assert np.array_equal(back.ids, labeled.ids)
        assert np.array_equal(back.labels, labeled.labels)

    @pytest.mark.parametrize("labels", [None, [0, 7]])
    def test_bytes_match_per_value_reference(self, tmp_path, labels):
        f32 = np.finfo(np.float32)
        values = np.array([[-0.0, f32.smallest_subnormal, f32.max, f32.tiny, 1e-5, 123456789],
                           [0.0, -f32.smallest_subnormal * 3, -f32.max, -f32.tiny, 0.1, 1 / 3]],
                          dtype=np.float32)
        data = FeatureMatrix(values, np.array(["a", "b"]), labels)
        path = tmp_path / "tricky.csv"
        save_features(data, path, "csv")
        assert path.read_bytes() == _reference_csv(data).encode("utf-8")
        back = load_features(path, "csv")
        assert np.array_equal(back.values.view(np.uint32), values.view(np.uint32))

    def test_bytes_match_reference_across_write_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        values = (rng.standard_normal((4099, 3)) * 10.0 ** rng.integers(-8, 8, (4099, 3)))
        data = FeatureMatrix(values, np.array([f"s{i}" for i in range(4099)]),
                             rng.integers(0, 5, 4099))
        path = tmp_path / "many.csv"
        save_features(data, path, "csv")
        assert path.read_bytes() == _reference_csv(data).encode("utf-8")
        assert np.array_equal(load_features(path, "csv").values, data.values)

    @pytest.mark.parametrize("sid", ["a,b", "a\nb", "a\rb", "a\r\n", "a\x85b"])
    def test_id_a_row_cannot_hold_rejected_before_writing(self, tmp_path, sid):
        data = FeatureMatrix(np.zeros((2, 1)), np.array(["ok", sid]))
        path = tmp_path / "ids.csv"
        with pytest.raises(DataError, match="sample id"):
            save_features(data, path, "csv")
        assert not path.exists()

    def test_unparseable_feature_value_names_row(self, tmp_path):
        path = tmp_path / "val.csv"
        path.write_text("id,label,f0,f1\na,0,1.0,2.0\n\nb,1,3.0,x\nc,1,y,1\n")
        with pytest.raises(DataError, match="row 3: unparseable feature value"):
            load_features(path, "csv")

    def test_small_hand_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("id,label,f0,f1\na,0,1.5,2.5\nb,1,-1,0.25\n")
        data = load_features(path, "csv")
        assert data.n == 2 and data.d == 2
        assert list(data.labels) == [0, 1]

    def test_unlabeled_rows(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,label,f0\na,,1.0\nb,,2.0\n")
        data = load_features(path, "csv")
        assert data.labels is None

    def test_short_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\na,0,1.0,2.0\nb,1,3.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_features(path, "csv")

    def test_duplicate_id_names_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,label,f0\na,0,1.0\na,1,2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_features(path, "csv")

    def test_unparseable_label_names_row(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("id,label,f0\na,0,1.0\nb,cat,2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_features(path, "csv")

    def test_label_beyond_int64_names_row(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,label,f0\na,0,1.0\nb,99999999999999999999,2.0\n")
        with pytest.raises(DataError, match="row 2: unparseable label"):
            load_features(path, "csv")

    @pytest.mark.parametrize("label, value, fault", [
        ("-1", "2", "row 3: negative label '-1'"),
        ("1", "inf", "row 3: feature value 'inf' is not a finite float32"),
        ("1", "nan", "row 3: feature value 'nan' is not a finite float32"),
        ("1", "1e39", "row 3: feature value '1e39' is not a finite float32"),
    ], ids=["negative_label", "inf", "nan", "float32_overflow"])
    def test_value_a_feature_matrix_rejects_names_row(self, tmp_path, label, value, fault):
        path = tmp_path / "v.csv"
        path.write_text(f"id,label,f0\na,0,1\n\nb,{label},{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a float32 overflow warns nothing
            with pytest.raises(DataError, match=re.escape(f"{path}: {fault}")):
                load_features(path, "csv")

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("id,label,f0\na,0,1.0\nb,,2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_features(path, "csv")


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.0, 2.0])}
        write_container(path, {"kind": "model", "note": 7}, arrays)
        meta, back = read_container(path)
        assert meta["kind"] == "model" and meta["note"] == 7
        for name in arrays:
            assert np.array_equal(back[name], arrays[name])

    def test_empty_array_round_trip(self, tmp_path):
        path = tmp_path / "pca.ckpt"
        write_container(path, {"kind": "pca"}, {"basis": np.zeros((4, 0))})
        _, back = read_container(path)
        assert back["basis"].shape == (4, 0)


# every line break str.splitlines knows, "\r\n" included
LINE_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _reference_read(path):
    """What a whole-file ``read().splitlines()`` parse gives: (ids, labels,
    values) for a good file, else (error text, row number) of its one fault.

    Invalid UTF-8 is found as the U+FFFD its replacement decoding leaves.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    bad_text = next((row for row, line in enumerate(lines) if "\ufffd" in line), None)
    if bad_text is not None:
        return "not UTF-8 text", bad_text
    d = len(lines[0].split(",")) - 2
    ids, labels, values, rows = [], [], [], []
    for row, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != d + 2:
            return "feature values, expected", row
        try:
            values.append([float(cell) for cell in cells[2:]])
        except ValueError:
            return "unparseable feature value", row
        ids.append(cells[0])
        labels.append(cells[1])
        rows.append(row)
    # the file is labeled, so every label cell must hold an integer
    if "" in labels:
        return "empty label in a labeled file", rows[labels.index("")]
    bad_label = next((row for row, label in zip(rows, labels) if not label.isdigit()), None)
    if bad_label is not None:
        return "unparseable label", bad_label
    repeat = next((row for i, (row, sid) in enumerate(zip(rows, ids)) if sid in ids[:i]), None)
    if repeat is not None:
        return "duplicate id", repeat
    return ids, [int(label) for label in labels], np.array(values, dtype=np.float32)


def _csv_bytes(brk: str, pad: int, fault: str | None = None) -> bytes:
    """A small labeled CSV file with ``brk`` ending every line, one empty line,
    and the first id ``pad`` characters longer; ``fault`` spoils row 9."""
    rows = [f"id{'p' * pad},0,1.5,-2"] + [f"r{i}é,{i % 3},{i}.25,-{i}e-3" for i in range(1, 12)]
    rows.insert(4, "")
    if fault == "value":
        rows[8] = rows[8].replace(".25", ".2x5")
    if fault == "width":
        rows[8] += ",7"
    cells = rows[8].split(",")
    if fault == "label":
        cells[1] = "x"
    if fault == "mixed":
        cells[1] = ""
    if fault == "duplicate":
        cells[0] = rows[0].split(",")[0]
    rows[8] = ",".join(cells)
    blob = brk.join(["id,label,f0,f1"] + rows).encode("utf-8") + brk.encode("utf-8")
    if fault == "utf8":
        at = blob.index(b"r8")
        blob = blob[:at + 1] + b"\xff" + blob[at + 1:]
    if fault == "cut_utf8":
        blob += b"r99,0,1,2\xe2\x80"
    return blob


class TestCsvReadWindows:
    """The CSV reader decodes a bounded window at a time and must read a file
    exactly as the whole-file ``read().splitlines()`` did: every line break
    placed at and across each window edge, with windows of 1 to 7 bytes."""

    @pytest.mark.parametrize("window", [1, 2, 7])
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
    def test_rows_match_whole_file_reference(self, tmp_path, monkeypatch, brk, window):
        monkeypatch.setattr("conal.io._CSV_READ_BYTES", window)
        path = tmp_path / "w.csv"
        for pad in range(8):
            path.write_bytes(_csv_bytes(brk, pad))
            ids, labels, values = _reference_read(path)
            data = load_features(path, "csv")
            assert data.ids.tolist() == ids
            assert data.labels.tolist() == labels
            assert np.array_equal(data.values.view(np.uint32), values.view(np.uint32))

    @pytest.mark.parametrize("fault", ["value", "width", "utf8", "cut_utf8",
                                       "label", "mixed", "duplicate"])
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
    def test_fault_in_a_later_window_names_its_row(self, tmp_path, monkeypatch, brk, fault):
        monkeypatch.setattr("conal.io._CSV_READ_BYTES", 7)
        path = tmp_path / "w.csv"
        for pad in range(8):
            path.write_bytes(_csv_bytes(brk, pad, fault))
            what, row = _reference_read(path)
            assert row > 3  # past the first windows
            with pytest.raises(DataError) as err:
                load_features(path, "csv")
            message = str(err.value)
            assert what in message
            assert re.search(rf"\brow {row}\b", message), message

    def test_invalid_utf8_in_header_is_row_0(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"id,label,f\xff0\na,0,1\n")
        with pytest.raises(DataError, match=r"row 0: not UTF-8 text"):
            load_features(path, "csv")


# cells that numpy's text reader and ``float`` both read, or one of them rejects
BULK_CELLS = ["1_0", "１", " 1.5 ", "+.5", "1.", "inf", "nan", "1e39", "", '"1"', "0x1p3",
              "\x00", "1\x00", "-0", "4e-45", "1e-46", "1\u3000", "\x1f2", "2\x1f", "1e400"]
CELL_ROW, EMPTY_ROW, ROWS = 150, 20, 400


def _cell_file(path, cell: str) -> None:
    """A labeled d = 6 CSV file of ``ROWS`` rows: row ``EMPTY_ROW`` is an empty
    line and row ``CELL_ROW`` holds ``cell`` as its third value."""
    rng = np.random.default_rng(0)
    lines = ["id,label,f0,f1,f2,f3,f4,f5"]
    for row in range(1, ROWS + 1):
        values = [f"{v:.9g}" for v in rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, 6)]
        if row == CELL_ROW:
            values[2] = cell
        lines.append("" if row == EMPTY_ROW else f"r{row},{row % 3}," + ",".join(values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_outcome(path):
    """The ids, labels and value bits of a CSV file, or its DataError text."""
    try:
        data = load_features(path, "csv")
    except DataError as exc:
        return str(exc)
    return data.ids.tolist(), data.labels.tolist(), data.values.view(np.uint32).tolist()


class TestCsvBulkRead:
    """numpy's C text reader reads a window only when ``float``, cell by cell,
    reads it to the same bits, and leaves every fault to that path."""

    @pytest.mark.parametrize("window", [1, 7, 1 << 10, 7 << 10, 1 << 16])
    @pytest.mark.parametrize("cell", BULK_CELLS, ids=repr)
    def test_matches_per_cell_path(self, tmp_path, monkeypatch, cell, window):
        monkeypatch.setattr("conal.io._CSV_READ_BYTES", window)
        path = tmp_path / "cells.csv"
        _cell_file(path, cell)
        bulk = _csv_outcome(path)
        monkeypatch.setattr("conal.io._bulk_window", lambda lines, d: None)
        assert bulk == _csv_outcome(path)
        try:
            with np.errstate(over="ignore"):
                value = np.float32(float(cell))
        except ValueError:
            assert bulk.endswith(f"row {CELL_ROW}: unparseable feature value "
                                 f"(could not convert string to float: {cell!r})")
            return
        if not np.isfinite(value):
            assert bulk.endswith(f"row {CELL_ROW}: feature value {cell!r} is not a finite float32")
        else:
            ids, _, bits = bulk
            assert bits[ids.index(f"r{CELL_ROW}")][2] == value.view(np.uint32)

    @pytest.mark.parametrize("window", [1, 1 << 16])
    def test_plain_file_reads_in_bulk(self, tmp_path, monkeypatch, window):
        from conal.io import _window_by_cell

        def blank_only(path, lines, rows, d):
            assert not any(lines), "a window of rows went cell by cell"
            return _window_by_cell(path, lines, rows, d)

        monkeypatch.setattr("conal.io._CSV_READ_BYTES", window)
        monkeypatch.setattr("conal.io._window_by_cell", blank_only)
        path = tmp_path / "plain.csv"
        _cell_file(path, " 1.5 ")
        data = load_features(path, "csv")
        assert data.n == ROWS - 1 and data.values[CELL_ROW - 2, 2] == 1.5


def _reference_id_table(path, table: bytes, n: int, size: int) -> np.ndarray:
    """The id-by-id read of a binary id table that the byte grid stands in for."""
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


ID_TABLES = {
    "fixed": [b"abc", b"def", b"ghi"],
    "trailing_nul": [b"a\x00", b"b\x00", b"cd"],
    "all_trailing_nul": [b"a\x00", b"\x00\x00"],
    "embedded_nul": [b"a\x00b", b"ccc"],
    "non_ascii": ["é".encode(), b"ab"],
    "invalid_utf8": [b"\xff\xfe", b"ab"],
    "one_empty": [b""],
    "all_empty": [b"", b""],
    "mixed": [b"ab", b"abc", b"a"],
    "mixed_one_mean_width": [b"a", b"abc"],
    "wide": [b"x" * 300, b"y" * 300],
}


class TestIdTableGrid:
    @pytest.mark.parametrize("cut", ["whole", "last_byte", "last_id", "extra_byte"])
    @pytest.mark.parametrize("name", list(ID_TABLES))
    def test_matches_id_by_id_read(self, name, cut):
        from conal.io import _read_id_table

        raws = ID_TABLES[name]
        table = b"".join(len(raw).to_bytes(2, "little") + raw for raw in raws)
        table = {"whole": table, "last_byte": table[:-1], "extra_byte": table + b"a",
                 "last_id": table[:-(2 + len(raws[-1]))]}[cut]
        outcomes = []
        for read in (_read_id_table, _reference_id_table):
            try:
                ids = read("f.bin", table, len(raws), 100 + len(table))
                outcomes.append((ids.dtype, ids.tolist()))
            except DataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# ids that csv.writer quotes, or writes as they are
SCORE_IDS = ["a,b", 'say "hi"', "a\nb", "a\x00b", " lead", "a\tb", "é日本🙂", ""]


def _assert_scores_match_csv_writer(path, ids):
    import csv
    import io

    from conal.io import save_scores

    rng = np.random.default_rng(1)
    predicted = rng.integers(0, 10, len(ids))
    scores = rng.standard_normal(len(ids)) * 10.0 ** rng.integers(-20, 20, len(ids))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "predicted_class", "score"])
    writer.writerows(zip(ids, predicted.tolist(), scores.tolist()))
    save_scores(path, np.array(ids), predicted, scores)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


class TestScoreRows:
    @pytest.mark.parametrize("odd", [None] + SCORE_IDS, ids=repr)
    def test_bytes_match_csv_writer(self, tmp_path, odd):
        ids = [f"s{i}" for i in range(4100)]  # across a write block
        if odd is not None:
            ids[4097] = odd
        _assert_scores_match_csv_writer(tmp_path / "scores.csv", ids)

    @pytest.mark.parametrize("odd_rows", [
        {10: "a,b", 11: 'say "hi"', 12: "plain", 4000: "a\nb", 4001: '""'},  # one block
        {4095: "a,b", 4096: 'say "hi"'},  # both sides of the block edge
        {4094: "x", 4095: "a\nb", 4096: "y", 4097: '"a","b"'},
        {0: '"', 4099: ","},  # one-character ids, first and last row
        {4095: ",", 4096: '"'},
    ], ids=repr)
    def test_quoted_ids_anywhere_match_csv_writer(self, tmp_path, odd_rows):
        ids = [f"s{i}" for i in range(4100)]
        for row, odd in odd_rows.items():
            ids[row] = odd
        _assert_scores_match_csv_writer(tmp_path / "scores.csv", ids)
