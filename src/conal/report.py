"""A run's tables, as pure functions from its cells to rows, and the one CSV writer. A cell
is ``(strategy, seed, report rows)``; a table is a list of rows of plain values, header first."""

from __future__ import annotations

import csv
import os

import numpy as np

from .metrics import CURVE_METRICS


def curves_table(cells) -> list[list]:
    """``curves.csv``: a row per (cell, iteration, metric value), with the mean and std
    across seeds, in cell order."""
    groups = _group(cells)
    return [["strategy", "seed", "iteration", "metric", "value", "mean", "std"]] + [
        [s, seed, i, m, repr(value)] + _mean_std(groups, [(s, i, m)])
        for s, seed, i, m, value in _curve_values(cells)]


def report_tables(cells) -> dict[str, list[list]]:
    """``summary_final.csv``, then each ``curve_<metric>.csv``, by name. The summary groups
    each cell's last row as one iteration, so it sums over seeds in the curves' order."""
    strategies = sorted({strategy for strategy, _, _ in cells})
    final_metrics = ("accuracy", "auroc_ood", "mce", "ece", "sampling_bias")
    last = _group([(s, seed, [dict(rows[-1], iteration="last")]) for s, seed, rows in cells])
    tables = {"summary_final.csv": [["strategy"] + _columns(final_metrics)] + [
        [s] + _mean_std(last, [(s, "last", m) for m in final_metrics]) for s in strategies]}
    groups = _group(cells)
    for metric in CURVE_METRICS:
        tables[f"curve_{metric}.csv"] = [["iteration"] + _columns(strategies)] + [
            [i] + _mean_std(groups, [(s, i, metric) for s in strategies])
            for i in sorted({row["iteration"] for _, _, rows in cells for row in rows})]
    return tables


def write_table(rows, path) -> None:
    """Write ``rows`` as CSV (UTF-8, LF line ends) to a temporary file beside ``path``, then
    rename it over ``path``: a reader finds the old table or the new one, never a partial one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _curve_values(cells):
    """(strategy, seed, iteration, metric, value) of each non-null curve value, in cell order."""
    for strategy, seed, rows in cells:
        for row in rows:
            for metric in CURVE_METRICS:
                if row[metric] is not None:
                    yield strategy, seed, row["iteration"], metric, row[metric]


def _group(cells) -> dict[tuple, list]:
    """(strategy, iteration, metric) -> its values across seeds, in ascending seed order:
    one order for every table, so ``curves.csv`` (cells in config order) and the report
    tables (cells in directory-name order) sum alike."""
    groups: dict[tuple, list] = {}
    for s, _, i, m, value in _curve_values(sorted(cells, key=lambda cell: cell[1])):
        groups.setdefault((s, i, m), []).append(value)
    return groups


def _mean_std(groups, keys) -> list[str]:
    """Mean and std (ddof=1) as text of each key's values: "", "" for none, std 0.0 for one."""
    texts = []
    for values in (groups.get(key, []) for key in keys):
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        texts += [repr(float(np.mean(values))), repr(std)] if values else ["", ""]
    return texts


def _columns(names) -> list[str]:
    return [f"{name}_{stat}" for name in names for stat in ("mean", "std")]
