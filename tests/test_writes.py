"""Every file conal writes is published whole: one writer, ``io.replacing``, writes it
beside its path and renames it into place, so an interrupted write leaves the old file."""

import ast
import errno
from pathlib import Path

import numpy as np
import pytest

import conal
from conal import io as conal_io
from conal.cli import main
from conal.data import FeatureMatrix
from conal.io import save_features, save_scores
from conal.metrics import IterationReport, write_reports_jsonl
from conal.model import ModelConfig, init_model, save_model
from conal.report import write_table

SRC = Path(conal.__file__).parent
GEN_CONFIG = """
data.k = 3
data.d = 4
data.n_per_class = 40
data.imbalance_ratio = 4
data.test_n_per_class = 10
data.ood_n = 10
"""


class _Interrupted(BaseException):
    """Not an ``Exception``, like ``KeyboardInterrupt``: no ``except Exception`` catches it."""


class _Partway:
    """A file opened for writing whose first chunk goes through and whose next raises."""

    def __init__(self, fh, error):
        self.fh, self.error, self.written = fh, error, False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        if self.written:
            raise self.error
        self.written = True
        return self.fh.write(chunk)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def _fail_writes(monkeypatch, error):
    real = open

    def fake(file, mode="r", *args, **kwargs):
        fh = real(file, mode, *args, **kwargs)
        return _Partway(fh, error) if set(mode) & set("wax+") else fh

    monkeypatch.setattr(conal_io, "open", fake, raising=False)


def _features(seed):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.standard_normal((50, 4)).astype(np.float32),
                         [f"s{i}" for i in range(50)], rng.integers(0, 3, 50))


def _reports(seed):
    return [IterationReport(t, 10 * t, 0.5 + seed / 10, 0.1, 1.0, 0.2, 0.0, None, None)
            for t in range(1, 4)]


WRITERS = {
    "features-binary": lambda seed, p: save_features(_features(seed), p, "binary"),
    "features-csv": lambda seed, p: save_features(_features(seed), p, "csv"),
    "scores": lambda seed, p: save_scores(p, np.array(["a", "b,c", "d"]), np.array([0, 1, 2]),
                                          np.array([0.5, 0.25, seed])),
    "model": lambda seed, p: save_model(init_model(ModelConfig(d_in=4, n_classes=3, d_hidden=8,
                                                               d_feat=6, d_proj=4, seed=seed)), p),
    "reports": lambda seed, p: write_reports_jsonl(_reports(seed), p),
    "table": lambda seed, p: write_table([["a", "b"], [seed, 1], [2, 3]], p),
}


@pytest.mark.parametrize("name", WRITERS)
def test_interrupted_write_leaves_the_old_file_whole(tmp_path, monkeypatch, name):
    path = tmp_path / "out"
    WRITERS[name](0, path)
    old = path.read_bytes()
    _fail_writes(monkeypatch, _Interrupted())
    with pytest.raises(_Interrupted):
        WRITERS[name](1, path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    monkeypatch.undo()
    WRITERS[name](1, path)  # the same write, uninterrupted, replaces the file
    assert path.read_bytes() != old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_gen_that_fails_partway_keeps_the_old_directory(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CONFIG + f"data.seed = 0\nrun.out = {out}\n")
    assert main(["gen", str(cfg), "--format", "csv"]) == 0
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(old) == ["ood.csv", "test.csv", "train.csv"]
    cfg.write_text(GEN_CONFIG + f"data.seed = 1\nrun.out = {out}\n")
    _fail_writes(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    assert main(["gen", str(cfg), "--format", "csv"]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


def _writes_outside_replacing(source: str, filename: str) -> list[int]:
    """Lines of ``source`` that write a file other than inside ``io.replacing``: a
    ``write_text``, ``write_bytes``, ``os.replace``, ``os.rename`` or ``os.open`` call, or
    an ``open`` whose mode is not a literal without ``w``, ``a``, ``x`` or ``+``."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree) if filename == "io.py"
              and isinstance(fn, ast.FunctionDef) and fn.name == "replacing"
              for node in ast.walk(fn)}
    lines = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in exempt:
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or (owner == "os" and name in
                                                     ("replace", "rename", "open")):
            lines.append(call.lineno)
        elif name == "open":  # the mode follows the path, but is first in ``Path.open``
            at = 0 if isinstance(func, ast.Attribute) and owner not in ("io", "builtins") else 1
            modes = call.args[at:at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
            if any(not isinstance(mode, ast.Constant) or not isinstance(mode.value, str)
                   or set(mode.value) & set("wax+") for mode in modes):
                lines.append(call.lineno)
    return sorted(lines)


def test_replacing_is_the_only_writer():
    found = {p.name: lines for p in sorted(SRC.glob("*.py"))
             if (lines := _writes_outside_replacing(p.read_text(encoding="utf-8"), p.name))}
    assert found == {}


@pytest.mark.parametrize("source, flagged", [
    ("open(p, 'w')", True), ("open(p, mode='ab')", True), ("open(p, m)", True),
    ("io.open(p, 'x')", True), ("p.open('w')", True), ("p.write_text('x')", True),
    ("p.write_bytes(b'')", True), ("os.replace(a, b)", True), ("os.open(p, 1)", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("p.open()", False),
    ("s.replace('a', 'b')", False),
])
def test_the_writer_scan_sees_each_form(source, flagged):
    assert _writes_outside_replacing(source, "cli.py") == ([1] if flagged else [])
    wrapped = f"def replacing(p, m):\n    {source}\n"
    assert _writes_outside_replacing(wrapped, "io.py") == []
    assert _writes_outside_replacing(wrapped, "cli.py") == ([2] if flagged else [])
