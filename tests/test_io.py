import numpy as np
import pytest

from conal.data import DatasetSpec, generate_mixture
from conal.errors import ConfigError, DataError
from conal.io import load_features, read_container, save_features, write_container


@pytest.fixture
def labeled(tmp_path):
    return generate_mixture(DatasetSpec(k=3, d=4, n_per_class=7, seed=2))


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
        save_features(labeled.without_labels(), path, "binary")
        back = load_features(path, "binary")
        assert back.labels is None
        assert np.array_equal(back.values, labeled.values)

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
        save_features(data if with_labels else data.without_labels(), path, "binary")
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
    def test_round_trip_within_tolerance(self, labeled, tmp_path):
        path = tmp_path / "feats.csv"
        save_features(labeled, path, "csv")
        back = load_features(path, "csv")
        np.testing.assert_allclose(back.values, labeled.values, atol=1e-6)
        assert np.array_equal(back.ids, labeled.ids)
        assert np.array_equal(back.labels, labeled.labels)

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
