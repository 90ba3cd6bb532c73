"""The run's tables built from hand-made cells, with no CLI and no run on disk."""

import numpy as np
import pytest

from conal.metrics import CURVE_METRICS
from conal.report import curves_table, report_tables, write_table


def row(iteration, accuracy, auroc_ood=None):
    """A report row: every other curve metric reads 0.5."""
    return dict({metric: 0.5 for metric in CURVE_METRICS},
                iteration=iteration, accuracy=accuracy, auroc_ood=auroc_ood)


def stats(values):
    return [repr(float(np.mean(values))), repr(float(np.std(values, ddof=1)))]


# seeds out of order; random's seed 2 stops one iteration early (a truncated
# last iteration), entropy has one seed and no OOD set (auroc_ood null)
CELLS = [
    ("random", 2, [row(1, 0.25, 0.6)]),
    ("random", 0, [row(1, 0.5, 0.7), row(2, 0.75, 0.8)]),
    ("entropy", 0, [row(1, 0.125), row(2, 0.375)]),
    ("random", 1, [row(1, 0.1, 0.9), row(2, 0.3, 0.65)]),
]


class TestCurvesTable:
    def test_rows_in_cell_order_with_seed_statistics(self):
        table = curves_table(CELLS)
        assert table[0] == ["strategy", "seed", "iteration", "metric", "value", "mean", "std"]
        accuracy = [r for r in table[1:] if r[3] == "accuracy"]
        assert [r[:5] for r in accuracy] == [
            ["random", 2, 1, "accuracy", "0.25"], ["random", 0, 1, "accuracy", "0.5"],
            ["random", 0, 2, "accuracy", "0.75"], ["entropy", 0, 1, "accuracy", "0.125"],
            ["entropy", 0, 2, "accuracy", "0.375"], ["random", 1, 1, "accuracy", "0.1"],
            ["random", 1, 2, "accuracy", "0.3"]]
        # each group sums in ascending seed order, whatever the cell order
        assert accuracy[0][5:] == stats([0.5, 0.1, 0.25])
        assert accuracy[2][5:] == stats([0.75, 0.3])
        assert accuracy[3][5:] == ["0.125", "0.0"]  # one seed: std 0.0

    def test_null_values_have_no_row(self):
        table = curves_table(CELLS)
        assert not [r for r in table if r[0] == "entropy" and r[3] == "auroc_ood"]
        per_cell = [r for r in table if r[:2] == ["random", 0]]
        assert len(per_cell) == 2 * len(CURVE_METRICS)

    def test_cell_order_changes_no_statistic(self):
        key = {(r[0], r[1], r[2], r[3]): r[4:] for r in curves_table(CELLS)[1:]}
        assert {(r[0], r[1], r[2], r[3]): r[4:]
                for r in curves_table(CELLS[::-1])[1:]} == key


class TestReportTables:
    def test_table_names_in_write_order(self):
        assert list(report_tables(CELLS)) == \
            ["summary_final.csv"] + [f"curve_{m}.csv" for m in CURVE_METRICS]

    def test_summary_final_takes_each_cells_last_row(self):
        summary = report_tables(CELLS)["summary_final.csv"]
        assert summary[0][:5] == ["strategy", "accuracy_mean", "accuracy_std",
                                  "auroc_ood_mean", "auroc_ood_std"]
        assert len(summary[0]) == 11
        entropy, random = summary[1], summary[2]
        assert entropy[:5] == ["entropy", "0.375", "0.0", "", ""]
        # seed 2's last row is its iteration 1
        assert random[:5] == ["random"] + stats([0.75, 0.3, 0.25]) + stats([0.8, 0.65, 0.6])

    def test_curve_tables_cover_every_iteration(self):
        tables = report_tables(CELLS)
        assert tables["curve_accuracy.csv"] == [
            ["iteration", "entropy_mean", "entropy_std", "random_mean", "random_std"],
            [1, "0.125", "0.0"] + stats([0.5, 0.1, 0.25]),
            [2, "0.375", "0.0"] + stats([0.75, 0.3])]
        assert tables["curve_auroc_ood.csv"][1][1:3] == ["", ""]

    def test_curve_cells_match_curves_table(self):
        tables = report_tables(CELLS)
        for strategy, _, iteration, metric, _, mean, std in curves_table(CELLS)[1:]:
            header, *rows = tables[f"curve_{metric}.csv"]
            cells = dict(zip(header, {r[0]: r for r in rows}[iteration]))
            assert (cells[f"{strategy}_mean"], cells[f"{strategy}_std"]) == (mean, std)


class TestWriteTable:
    def test_csv_with_lf_line_ends_in_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table([["name", "value"], ["é,x", 1], ["y", ""]], path)
        assert path.read_bytes() == 'name,value\n"é,x",1\ny,\n'.encode("utf-8")

    def test_a_failed_write_leaves_the_old_table_whole(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text")

        path = tmp_path / "t.csv"
        write_table([["a"], [1]], path)
        old = path.read_bytes()
        rows = [["a"]] + [[i] for i in range(10_000)] + [[Unprintable()]]
        with pytest.raises(RuntimeError, match="no text"):
            write_table(rows, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
