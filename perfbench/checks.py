"""Output checks and digests. Each check returns a list of error strings;
an empty list means the output is correct."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import (ACQUISITION, D, ITERATIONS, K, N_SHIFTS,
                       expected_query_passes)

UNIT_RANGE = ("accuracy", "ece", "sampling_bias", "sampling_bias_acquired",
              "auroc_ood", "mce")
CURVE_METRICS = ("accuracy", "ece", "nll", "brier", "sampling_bias", "auroc_ood", "mce")


def _in_range(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def read_report(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_report(rows: list[dict], strategy: str) -> list[str]:
    """One row per iteration, labeled_count = t*M, metrics finite and in
    range, and the query passes the paper's cost model predicts."""
    if len(rows) != ITERATIONS:
        return [f"{strategy}: {len(rows)} report rows, expected {ITERATIONS}"]
    errors = []
    for t, row in enumerate(rows, start=1):
        where = f"{strategy} iteration {t}"
        if row.get("iteration") != t or row.get("labeled_count") != t * ACQUISITION:
            errors.append(f"{where}: iteration/labeled_count "
                          f"{row.get('iteration')}/{row.get('labeled_count')}")
        for name in UNIT_RANGE:
            if not _in_range(row.get(name), 0.0, 1.0):
                errors.append(f"{where}: {name} = {row.get(name)!r} outside [0, 1]")
        if not _in_range(row.get("brier"), 0.0, 2.0):
            errors.append(f"{where}: brier = {row.get('brier')!r} outside [0, 2]")
        if not _in_range(row.get("nll"), 0.0, math.inf):
            errors.append(f"{where}: nll = {row.get('nll')!r} not finite and >= 0")
        shifts = row.get("per_shift") or []
        if len(shifts) != N_SHIFTS or not all(
                _in_range(s.get("accuracy"), 0.0, 1.0) and _in_range(s.get("ece"), 0.0, 1.0)
                for s in shifts):
            errors.append(f"{where}: per_shift is not {N_SHIFTS} in-range cells")
        expected = 0 if t == 1 else expected_query_passes(strategy)
        if row.get("forward_passes_used") != expected:
            errors.append(f"{where}: forward_passes_used = "
                          f"{row.get('forward_passes_used')}, cost model says {expected}")
        if row.get("truncated") is not False:
            errors.append(f"{where}: truncated")
    return errors


def check_report_tables(run_dir: Path, strategies) -> list[str]:
    """`conal report` wrote the summary and one curve table per metric."""
    report_dir = run_dir / "report"
    errors = []
    tables = {"summary_final.csv": len(strategies)}
    tables.update({f"curve_{m}.csv": ITERATIONS for m in CURVE_METRICS})
    for name, rows in tables.items():
        path = report_dir / name
        if not path.is_file():
            errors.append(f"report table {name} missing")
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        if len(lines) != rows + 1:
            errors.append(f"report table {name}: {len(lines) - 1} rows, expected {rows}")
    return errors


def report_digest_lines(rows: list[dict]) -> list[str]:
    """Deterministic part of a report: every field except query_wall_ms."""
    return [json.dumps({k: v for k, v in row.items() if k != "query_wall_ms"},
                       sort_keys=True) for row in rows]


def check_features(path: Path, fmt: str, n: int, labeled: bool):
    """Reload a generated feature file; returns (errors, ids, labels).

    Binary files go through conal's reader. CSV files are checked for shape
    and header only (labels None), so the benchmark does not pay for a
    second full parse.
    """
    if fmt == "binary":
        from conal.io import load_features

        data = load_features(path, "binary")
        errors = []
        if (data.n, data.d) != (n, D):
            errors.append(f"{path.name}: reloads as {data.n} x {data.d}, expected {n} x {D}")
        if (data.labels is not None) != labeled:
            errors.append(f"{path.name}: labels present = {data.labels is not None}")
        return errors, [str(s) for s in data.ids], data.labels
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        ids = [line.split(",", 1)[0] for line in fh]
    errors = []
    if header != ["id", "label"] + [f"f{j}" for j in range(D)]:
        errors.append(f"{path.name}: header has {len(header)} columns")
    if len(ids) != n:
        errors.append(f"{path.name}: {len(ids)} rows, expected {n}")
    return errors, ids, None


def check_scores(path: Path, expected_ids: list):
    """One finite score per input id, in input order; returns (errors, classes)."""
    if not path.is_file():
        return [f"{path.name} missing"], None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != ["id", "predicted_class", "score"]:
        return [f"{path.name}: header {header}"], None
    if [r[0] for r in rows] != expected_ids:
        return [f"{path.name}: ids differ from the input file's ids or order"], None
    classes = np.array([int(r[1]) for r in rows])
    scores = np.array([float(r[2]) for r in rows])
    errors = []
    if classes.size and (classes.min() < 0 or classes.max() >= K):
        errors.append(f"{path.name}: predicted class outside [0, {K})")
    if not np.all(np.isfinite(scores)):
        errors.append(f"{path.name}: non-finite scores")
    return errors, classes


def digest(parts: list[tuple[str, bytes]]) -> str:
    """SHA-256 over (name, content) pairs in the given order."""
    h = hashlib.sha256()
    for name, content in parts:
        h.update(name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(content).digest())
    return h.hexdigest()
