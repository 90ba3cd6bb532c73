"""A run's cell directories and tables. A cell ``<strategy>_seed<int>`` holds ``manifest.cfg``
and either ``FAILED.txt`` or ``timing.jsonl`` and ``report.jsonl``. ``write_cell`` removes
``report.jsonl`` first and writes it last, so it marks a whole cell. ``read_cells`` reads named
cells as ``(strategy, seed, report rows)``; a table is a list of rows of plain values, header first:
``conal run`` writes ``CURVES_TABLE``, ``conal report`` the ``REPORT_TABLES`` in ``REPORT_DIR``."""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError
from .io import replacing
from .metrics import CURVE_METRICS, read_reports_jsonl, write_jsonl, write_reports_jsonl

CURVES_TABLE = "curves.csv"
REPORT_DIR = "report"
REPORT_TABLES = ("summary_final.csv", *(f"curve_{metric}.csv" for metric in CURVE_METRICS))


def cell_name(strategy: str, seed: int) -> str:
    return f"{strategy}_seed{seed}"


def write_cell(cell_dir, manifest: str, outcome) -> None:
    """Replace ``cell_dir``'s files with ``manifest`` and the cell's RunResult or exception."""
    cell_dir.mkdir(parents=True, exist_ok=True)
    (cell_dir / "report.jsonl").unlink(missing_ok=True)
    with replacing(cell_dir / "manifest.cfg", "w", encoding="utf-8") as fh:
        fh.write(manifest)
    failed = isinstance(outcome, BaseException)
    (cell_dir / ("timing.jsonl" if failed else "FAILED.txt")).unlink(missing_ok=True)
    if failed:
        with replacing(cell_dir / "FAILED.txt", "w", encoding="utf-8") as fh:
            fh.write(f"{type(outcome).__name__}: {outcome}\n")
        return
    write_jsonl([{"iteration": report.iteration, "query_wall_ms": ms} for report, ms
                 in zip(outcome.reports, outcome.query_wall_ms)], cell_dir / "timing.jsonl")
    write_reports_jsonl(outcome.reports, cell_dir / "report.jsonl")


def read_cells(run_dir, pairs) -> list[tuple[str, int, list[dict]]]:
    """The cell of each ``(strategy, seed)`` in ``pairs`` under ``run_dir``, in that order;
    a DataError names every one that holds no ``report.jsonl``, or ``run_dir`` if none is named."""
    paths = [run_dir / cell_name(strategy, seed) / "report.jsonl" for strategy, seed in pairs]
    missing = [str(path.parent) for path in paths if not path.is_file()]
    if missing or not paths:
        raise DataError(f"no run cells with report.jsonl at {', '.join(missing) or run_dir}")
    return [(strategy, seed, read_reports_jsonl(path))
            for (strategy, seed), path in zip(pairs, paths)]


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
    summary = [["strategy"] + _columns(final_metrics)] + [
        [s] + _mean_std(last, [(s, "last", m) for m in final_metrics]) for s in strategies]
    groups = _group(cells)
    iterations = sorted({row["iteration"] for _, _, rows in cells for row in rows})
    curves = [[["iteration"] + _columns(strategies)] + [
        [i] + _mean_std(groups, [(s, i, metric) for s in strategies]) for i in iterations]
        for metric in CURVE_METRICS]
    return dict(zip(REPORT_TABLES, [summary] + curves))


def remove_tables(run_dir) -> None:
    """Remove the run's ``CURVES_TABLE`` and ``REPORT_TABLES``, so none outlives its cells."""
    for path in [run_dir / CURVES_TABLE] + [run_dir / REPORT_DIR / name for name in REPORT_TABLES]:
        path.unlink(missing_ok=True)


def write_table(rows, path) -> None:
    """Write ``rows`` as CSV (UTF-8, LF line ends) through ``io.replacing``."""
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _curve_values(cells):
    """(strategy, seed, iteration, metric, value) of each non-null curve value, in cell order."""
    for strategy, seed, rows in cells:
        for row in rows:
            for metric in CURVE_METRICS:
                if row[metric] is not None:
                    yield strategy, seed, row["iteration"], metric, row[metric]


def _group(cells) -> dict[tuple, list]:
    """(strategy, iteration, metric) -> its values across seeds, in ascending seed order:
    one order for every table, whatever order its cells are read in."""
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
