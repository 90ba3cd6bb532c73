import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conal.cli import main
from conal.config import (_KEYS, build_experiment, echo_config, load_config_file,
                          parse_config_text)
from conal.data import (SHIFT_KINDS, DatasetSpec, FeatureMatrix, class_sizes,
                        generate_mixture)
from conal import io as conal_io
from conal.errors import ConfigError, DataError
from conal.io import load_features, read_container, save_features, write_container
from conal.loop import LoopConfig, RunResult
from conal.metrics import IterationReport, read_reports_jsonl
from conal.model import LOSS_KINDS, ModelConfig, init_model, save_model, train
from conal.report import cell_name, read_cells, write_cell
from conal.strategies import VALID_STRATEGIES
from test_writes import _Interrupted, _Partway

TINY_CONFIG = """
# tiny experiment for tests
data.k = 4
data.d = 8
data.n_per_class = 60
data.imbalance_ratio = 4
data.class_separation = 4.0
data.seed = 0
data.test_n_per_class = 20
data.ood_n = 30
model.d_hidden = 16
model.d_feat = 8
model.d_proj = 4
model.epochs = 3
model.batch_size = 32
loop.budget = 40
loop.acquisition_size = 20
loop.subset_size = 60
loop.tau = 3
shift.kinds = additive_gaussian
shift.intensities = 1,3
run.strategies = featuresim,random
run.seeds = 0,1
"""

@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG + f"run.out = {tmp_path / 'out'}\n")
    return path


def assert_same_results(one, two):
    """Two runs of one config wrote the same ``report.jsonl`` in every cell, the
    same ``curves.csv`` and, where ``conal report`` ran, the same tables."""
    names = ["curves.csv"] + [str(p.relative_to(one)) for p in sorted(one.glob("*/report.jsonl"))
                              + sorted(one.glob("report/*.csv"))]
    assert len(names) > 1
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("loop.magic = 3")

    def test_loop_keys_match_loop_config_fields(self):
        """Every loop.* and model.* key has a LoopConfig or ModelConfig field and
        back, so no knob is half-removed. The fields set elsewhere are left out:
        the cell's strategy and seed, the model's per-iteration seed and loss
        kind, and d_in and n_classes, which data.d and data.k set."""
        for prefix, config, elsewhere in [
                ("loop.", LoopConfig, ("strategy", "seed")),
                ("model.", ModelConfig, ("d_in", "n_classes", "seed", "loss_kind"))]:
            keys = [key.removeprefix(prefix) for key in _KEYS if key.startswith(prefix)]
            assert sorted(keys) == sorted(f.name for f in fields(config)
                                          if f.name not in elsewhere)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("loop.tau = 3\nloop.tau = 4")

    def test_comments_and_meta_ignored(self):
        values = parse_config_text("# hello\nmeta.tool = x\nloop.tau = 9 # inline\n")
        assert values == {"loop.tau": "9"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("just some words")

    def test_defaults_form_the_preset(self):
        config = build_experiment({})
        assert config.dataset.imbalance_ratio == 50.0
        assert config.loop.budget == 1000
        assert config.loop.acquisition_size == 100
        assert config.loop.subset_size == 2000
        assert len(config.seeds) == 5

    @pytest.mark.parametrize("key,raw", [("loop.budget", "1e3"), ("model.lr", "fast"),
                                         ("loop.force_per_class", "maybe"),
                                         ("run.seeds", "0,one")])
    def test_unparsable_value_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=re.escape(f"config key {key}: cannot parse")):
            build_experiment({key: raw})

    def test_strategy_typo_lists_names(self):
        with pytest.raises(ConfigError, match="featuresim"):
            build_experiment({"run.strategies": "entropi"})

    @pytest.mark.parametrize("key,raw,message", [
        ("data.format", "xml", "data.format must be one of binary, csv"),
        ("data.test_n_per_class", "0", "data.test_n_per_class must be >= 1"),
        ("data.ood_n", "-1", "data.ood_n must be >= 0"),
    ], ids=["format_xml", "test_n_per_class_0", "ood_n_negative"])
    def test_value_gen_would_reject_is_rejected_up_front(self, tmp_path, capsys, key, raw,
                                                         message):
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() != key]
        text = "\n".join(kept + [f"{key} = {raw}", f"run.out = {tmp_path / 'o'}"]) + "\n"
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_experiment(parse_config_text(text))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["gen", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGen:
    def test_balanced_counts_uniform(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("data.k = 3\ndata.d = 6\ndata.n_per_class = 10\n"
                       f"data.imbalance_ratio = 1\nrun.out = {tmp_path / 'data'}\n")
        assert main(["gen", str(cfg)]) == 0
        train = load_features(tmp_path / "data" / "train.bin", "binary")
        assert list(np.bincount(train.labels)) == [10, 10, 10]

    def test_data_only_config_with_a_small_pool(self, tmp_path):
        """A config that sets only data keys needs no loop keys to fit its pool:
        the default acquisition of 100 takes the whole 30-row pool in one
        truncated batch."""
        cfg = tmp_path / "g.cfg"
        cfg.write_text("data.k = 3\ndata.d = 6\ndata.n_per_class = 10\n"
                       f"data.imbalance_ratio = 1\nrun.seeds = 0\nrun.out = {tmp_path / 'o'}\n")
        assert main(["gen", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 0
        for strategy in ("featuresim", "random"):
            rows = read_reports_jsonl(tmp_path / "o" / f"{strategy}_seed0" / "report.jsonl")
            assert [(row["labeled_count"], row["truncated"]) for row in rows] == [(30, True)]

    def test_imbalanced_ratio_fifty(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("data.k = 10\ndata.d = 16\ndata.n_per_class = 1000\n"
                       "data.imbalance_ratio = 50\n"
                       f"run.out = {tmp_path / 'data'}\n")
        assert main(["gen", str(cfg), "--format", "csv"]) == 0
        train = load_features(tmp_path / "data" / "train.csv", "csv")
        counts = np.bincount(train.labels)
        assert counts[0] == 1000 and counts[-1] == 20
        assert counts[0] / counts[-1] == 50.0

    def test_unwritable_out_is_io_error(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg.write_text("data.k = 3\ndata.d = 6\ndata.n_per_class = 5\n"
                       f"data.imbalance_ratio = 1\nrun.out = {blocker / 'sub'}\n")
        assert main(["gen", str(cfg)]) == 4

    def test_missing_config(self, tmp_path):
        assert main(["gen", str(tmp_path / "absent.cfg")]) == 2


class TestRun:
    def test_run_layout_and_determinism(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config)]) == 0
        out = tmp_path / "out"
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == ["featuresim_seed0", "featuresim_seed1",
                         "random_seed0", "random_seed1"]
        assert (out / "curves.csv").exists()
        assert (out / "manifest.cfg").exists()
        for cell in cells:
            assert (out / cell / "report.jsonl").exists()
            assert (out / cell / "manifest.cfg").exists()

        # rerun into a fresh directory: every deterministic file is the same
        assert main(["run", str(tiny_config), "--out", str(tmp_path / "out2")]) == 0
        for run_dir in (out, tmp_path / "out2"):
            assert main(["report", str(run_dir)]) == 0
        assert_same_results(out, tmp_path / "out2")

    def test_manifest_reproduces_run(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config)]) == 0
        manifest = tmp_path / "out" / "manifest.cfg"
        assert main(["run", str(manifest), "--out", str(tmp_path / "out3")]) == 0
        for run_dir in (tmp_path / "out", tmp_path / "out3"):
            assert main(["report", str(run_dir)]) == 0
        assert_same_results(tmp_path / "out", tmp_path / "out3")

    def test_timing_has_one_row_per_report_row(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config)]) == 0
        cells = sorted((tmp_path / "out").glob("*_seed*"))
        assert len(cells) == 4
        for cell in cells:
            reports = read_reports_jsonl(cell / "report.jsonl")
            assert all("query_wall_ms" not in row for row in reports)
            timing = [json.loads(line) for line in
                      (cell / "timing.jsonl").read_text(encoding="utf-8").splitlines()]
            assert [row["iteration"] for row in timing] == [row["iteration"] for row in reports]
            for row in timing:
                assert sorted(row) == ["iteration", "query_wall_ms"]
                assert np.isfinite(row["query_wall_ms"]) and row["query_wall_ms"] >= 0

    def test_strategy_typo_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG.replace("run.strategies = featuresim,random",
                                           "run.strategies = entropi")
                       + f"run.out = {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "entropy" in err and "featuresim" in err

    def test_strategy_and_seed_overrides(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config), "--strategy", "random",
                     "--seed", "1", "--out", str(tmp_path / "solo")]) == 0
        cells = [p.name for p in (tmp_path / "solo").iterdir() if p.is_dir()]
        assert cells == ["random_seed1"]

    def test_worker_count_changes_no_output(self, tiny_config, tmp_path, monkeypatch):
        import os

        import conal.loop as loop_mod

        blas_env = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        for workers in (1, 2):
            monkeypatch.setattr(loop_mod, "_worker_count", lambda n, w=workers: w)
            assert main(["run", str(tiny_config), "--out", str(tmp_path / f"w{workers}")]) == 0
            assert {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")} == blas_env
        assert_same_results(tmp_path / "w1", tmp_path / "w2")

    def test_curves_schema(self, tiny_config, tmp_path):
        main(["run", str(tiny_config)])
        with open(tmp_path / "out" / "curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {"strategy", "seed", "iteration", "metric", "value", "mean", "std"} \
            <= set(rows[0].keys())
        # one row per (run, iteration, metric with a value)
        accuracy_rows = [r for r in rows if r["metric"] == "accuracy"]
        assert len(accuracy_rows) == 4 * 2  # 4 cells x 2 iterations


    def test_curves_parse_and_match_report_tables(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config)]) == 0
        assert main(["report", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for column in ("value", "mean", "std"):
                float(row[column])
        tables = {}
        for row in rows:
            metric = row["metric"]
            if metric not in tables:
                with open(tmp_path / "out" / "report" / f"curve_{metric}.csv") as fh:
                    tables[metric] = {r["iteration"]: r for r in csv.DictReader(fh)}
            cell = tables[metric][row["iteration"]]
            assert (row["mean"], row["std"]) == \
                (cell[f"{row['strategy']}_mean"], cell[f"{row['strategy']}_std"])


    def test_means_sum_in_ascending_seed_order(self, tmp_path):
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(TINY_CONFIG.replace("run.strategies = featuresim,random",
                                           "run.strategies = random")
                       .replace("run.seeds = 0,1", "run.seeds = 2,10,0,1,3")
                       + f"run.out = {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "o")]) == 0
        values: dict = {}
        for seed in (0, 1, 2, 3, 10):  # ascending integers; the directories sort 10 before 2
            for row in read_reports_jsonl(tmp_path / "o" / f"random_seed{seed}" / "report.jsonl"):
                for metric in ("accuracy", "ece", "nll", "brier", "auroc_ood", "mce"):
                    values.setdefault((str(row["iteration"]), metric), []).append(row[metric])
        with open(tmp_path / "o" / "curves.csv") as fh:
            curves = {(r["iteration"], r["metric"]): (r["mean"], r["std"])
                      for r in csv.DictReader(fh)}
        for (iteration, metric), group in values.items():
            expected = (repr(float(np.mean(group))), repr(float(np.std(group, ddof=1))))
            assert curves[(iteration, metric)] == expected
            with open(tmp_path / "o" / "report" / f"curve_{metric}.csv") as fh:
                cell = {r["iteration"]: r for r in csv.DictReader(fh)}[iteration]
            assert (cell["random_mean"], cell["random_std"]) == expected

    def test_piped_script_runs_a_multi_cell_sweep(self, tiny_config, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        script = ("import os, sys\nfrom conal.cli import main\n"
                  "from conal.loop import _worker_count\n"
                  "assert _worker_count(4) == min(4, len(os.sched_getaffinity(0)))\n"
                  f"sys.exit(main(['run', {str(tiny_config)!r}]))\n")
        # a forked worker re-imports nothing, so a __main__ read from stdin gets workers too
        proc = subprocess.run([sys.executable, "-"], input=script, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for cell in ("featuresim_seed0", "featuresim_seed1", "random_seed0", "random_seed1"):
            assert (tmp_path / "out" / cell / "report.jsonl").exists()
            assert not (tmp_path / "out" / cell / "FAILED.txt").exists()

    def test_cells_run_in_process_while_another_thread_runs(self, tiny_config, monkeypatch):
        import threading

        import conal.loop as loop_mod

        calls = []
        real = loop_mod.run_active_learning

        def counted(*args, **kwargs):
            calls.append(1)  # a forked worker would append to its own copy
            return real(*args, **kwargs)

        monkeypatch.setattr(loop_mod, "run_active_learning", counted)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert loop_mod._worker_count(4) == 1
            assert main(["run", str(tiny_config)]) == 0
        finally:
            stop.set()
            thread.join()
        assert len(calls) == 4


class TestTracerBindings:
    def test_perfbench_tracer_installs(self):
        # perfbench/tracing.install wraps names that conal.cli and conal.loop bind
        # but never call (stochastic_proba, featuresim_scores, fre_scores_batch,
        # score_bald, score_entropy; in cli also encode_values, fit_class_pca and
        # predict_proba_from_features) and loop.Oracle.label: removing one breaks
        # `perfbench/run.py --trace 1`
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                           str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c",
                               "import tracing; tracing.install(tracing.Tracer())"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestReport:
    def test_report_outputs(self, tiny_config, tmp_path):
        main(["run", str(tiny_config)])
        assert main(["report", str(tmp_path / "out")]) == 0
        report = tmp_path / "out" / "report"
        with open(report / "summary_final.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["strategy"] for r in rows) == ["featuresim", "random"]
        with open(report / "curve_accuracy.csv") as fh:
            curve = list(csv.DictReader(fh))
        assert len(curve) == 2  # T = 2 iterations
        assert "featuresim_mean" in curve[0] and "random_std" in curve[0]

    def test_single_seed_std_zero(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(TINY_CONFIG.replace("run.seeds = 0,1", "run.seeds = 0")
                       + f"run.out = {tmp_path / 'o1'}\n")
        main(["run", str(cfg)])
        main(["report", str(tmp_path / "o1")])
        with open(tmp_path / "o1" / "report" / "summary_final.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["accuracy_std"]) == 0.0 for r in rows)

    # SHA-256 of curves.csv and of each report/*.csv of the run below; a change
    # that keeps the tables' behaviour leaves every byte alone
    TABLE_DIGESTS = {
        "curves.csv": "b6a1508e423b4bc38edf2345029b3d3bb660d0954ecaa2d6bf0b8dd3bf493f82",
        "curve_accuracy.csv": "c3610d6a9729333e0b913da4770627134af6920a2e55d5935f469f87cfff0d2b",
        "curve_auroc_ood.csv": "9cc3fb7c9ae5b9c084629eb79d3ee50ad3f3cf8e88a1a8b14f97c5596dd0e7f9",
        "curve_brier.csv": "bad6ab215c9ef740b5bbde36865d72694630e702ff23c24162d71c582aef8790",
        "curve_ece.csv": "a207c3f2f807d992e0f4c51929367f651f562b8fe4572af58dd08815bd574365",
        "curve_mce.csv": "409ad892beb3b4f1a97677ba0c1a340e683ed06a621fadec48c0fe0495d60a68",
        "curve_nll.csv": "db528817f99411637c97f42fed8a9c7499c2d418f85714ca2a7ef21aa437e5a2",
        "curve_sampling_bias.csv":
            "344f9ebe57fe0796a0f588e954176ce11217648a459a15e07d56df34ae6f7627",
        "summary_final.csv": "3d90bcbe92f0240328f2fa922d78a0d89e01aa0db61d9c1bb9ed094ca8181e4c",
    }

    def test_table_bytes_pinned(self, tmp_path):
        cfg = tmp_path / "pin.cfg"
        cfg.write_text(TINY_CONFIG.replace("run.strategies = featuresim,random",
                                           "run.strategies = random,coreset,featuresim")
                       .replace("run.seeds = 0,1", "run.seeds = 1,0")
                       + f"run.out = {tmp_path / 'pin'}\n")
        assert main(["run", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "pin")]) == 0
        tables = [tmp_path / "pin" / "curves.csv"] + \
            sorted((tmp_path / "pin" / "report").iterdir())
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tables}
        assert digests == self.TABLE_DIGESTS, f"table bytes changed: new digests {digests}"

    def test_missing_run_dir_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == 3

    @pytest.mark.parametrize("bad, code", [("none", 0), ("truncated_line", 3),
                                           ("missing_metric", 3), ("empty", 3),
                                           ("cell_name", 3), ("metric_not_number", 3)])
    def test_malformed_run_dir(self, tmp_path, bad, code):
        row = IterationReport(1, 20, 0.5, 0.1, 1.0, 0.5, 0.1, None, None).to_dict()
        name = "featuresim_seed0"
        if bad == "missing_metric":
            del row["accuracy"]
        elif bad == "metric_not_number":
            row["accuracy"] = "x"
        elif bad == "cell_name":
            name = "featuresim_seedX"
        text = json.dumps(row) + "\n"
        if bad == "truncated_line":
            text = text[: len(text) // 2]
        elif bad == "empty":
            text = ""
        cell = tmp_path / "run" / name
        cell.mkdir(parents=True)
        (cell / "report.jsonl").write_text(text)
        assert main(["report", str(tmp_path / "run")]) == code


class TestScore:
    @pytest.fixture
    def artifacts(self, tmp_path):
        ds = DatasetSpec(k=3, d=6, n_per_class=30, class_separation=4.0, seed=1)
        labeled = generate_mixture(ds, id_prefix="l-")
        queries = generate_mixture(
            DatasetSpec(k=3, d=6, n_per_class=10, class_separation=4.0, seed=2),
            id_prefix="q-")
        config = ModelConfig(d_in=6, n_classes=3, d_hidden=12, d_feat=6, d_proj=4,
                             epochs=3, batch_size=32, seed=0)
        state = train(init_model(config), labeled)
        ckpt = tmp_path / "model.ckpt"
        save_model(state, ckpt)
        from conal.io import save_features
        lab_path = tmp_path / "labeled.bin"
        q_path = tmp_path / "queries.bin"
        save_features(labeled, lab_path)
        save_features(queries, q_path)
        return ckpt, lab_path, q_path, tmp_path

    @pytest.mark.parametrize("strategy,needs_labeled", [
        ("entropy", False), ("bald", False), ("featuresim", True),
        ("fre", True), ("coreset", True),
    ])
    def test_scores_csv(self, artifacts, strategy, needs_labeled):
        ckpt, lab_path, q_path, tmp_path = artifacts
        out = tmp_path / f"scores_{strategy}.csv"
        args = ["score", str(q_path), "--checkpoint", str(ckpt),
                "--strategy", strategy, "--out", str(out), "--tau", "3"]
        if needs_labeled:
            args += ["--labeled", str(lab_path)]
        assert main(args) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert all(np.isfinite(float(r["score"])) for r in rows)
        assert {r["id"][:2] for r in rows} == {"q-"}

    @pytest.mark.parametrize("ids", [
        None,  # the fixture's plain ids
        ["q-0", "a,b"], ["q-0", 'say "hi"'], ["q-0", "line\nbreak"],
        [" lead", "é日本🙂", "", "a,b", 'say "hi"', "line\nbreak"],
        [" lead", "é日本🙂", ""],
    ], ids=["plain", "comma", "quote", "newline", "all_but_cr", "space_utf8_empty"])
    def test_scores_csv_bytes_match_csv_writer(self, artifacts, ids):
        from conal.loop import scorer_input, scoring_context
        from conal.model import load_model
        from conal.strategies import get_strategy

        ckpt, _, q_path, tmp_path = artifacts
        queries = load_features(q_path)
        if ids is not None:
            queries = FeatureMatrix(queries.values[:len(ids)], np.array(ids))
            q_path = tmp_path / "odd_ids.bin"
            save_features(queries, q_path)
        out = tmp_path / "scores.csv"
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(out)]) == 0

        info, state = get_strategy("entropy"), load_model(ckpt)
        scores, predicted = info.score(state, scorer_input(info, state, queries.values),
                                       scoring_context(info, state, None, tau=50))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "predicted_class", "score"])
        for sid, cls, score in zip(queries.ids, predicted, scores):
            writer.writerow([sid, int(cls), repr(float(score))])
        assert out.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("ids", [
        ["q-0", "cr\rhere"],
        [" lead", "é日本🙂", "", "a,b", 'say "hi"', "line\nbreak", "cr\rhere"],
    ], ids=["cr", "all"])
    def test_carriage_return_id_exits_3_without_file(self, artifacts, ids):
        # csv.writer leaves a bare CR unquoted, and a CSV reader splits the row
        ckpt, _, q_path, tmp_path = artifacts
        queries = load_features(q_path)
        q_path = tmp_path / "cr_ids.bin"
        save_features(FeatureMatrix(queries.values[:len(ids)], np.array(ids)), q_path)
        out = tmp_path / "scores.csv"
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(out)]) == 3
        assert not out.exists()

    def test_invalid_utf8_id_exits_3(self, artifacts):
        ckpt, _, q_path, tmp_path = artifacts
        blob = q_path.read_bytes()
        last = blob.rindex(b"q-")
        q_path.write_bytes(blob[:last] + b"\xff" + blob[last + 1:])
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3

    @pytest.mark.parametrize("fault", ["value", "utf8"])
    def test_csv_fault_in_a_later_window_exits_3_naming_its_row(self, artifacts, capsys,
                                                                 monkeypatch, fault):
        ckpt, _, q_path, tmp_path = artifacts
        monkeypatch.setattr("conal.io._CSV_READ_BYTES", 64)
        csv_path = tmp_path / "queries.csv"
        save_features(load_features(q_path), csv_path, "csv")
        lines = csv_path.read_bytes().split(b"\n")
        cells = lines[25].split(b",")
        if fault == "value":
            cells[2] += b"x"  # a feature value float() rejects
        else:
            cells[0] += b"\xff"  # a byte no UTF-8 text holds
        lines[25] = b",".join(cells)
        csv_path.write_bytes(b"\n".join(lines))
        assert main(["score", str(csv_path), "--checkpoint", str(ckpt), "--format", "csv",
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3
        err = capsys.readouterr().err
        assert "row 25:" in err
        assert ("unparseable feature value" if fault == "value" else "not UTF-8") in err

    def test_random_rejected(self, artifacts):
        ckpt, lab_path, q_path, tmp_path = artifacts
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "random",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_featuresim_requires_labeled(self, artifacts):
        ckpt, _, q_path, tmp_path = artifacts
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "featuresim",
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("strategy", ["entropy", "bald"])
    def test_unread_labeled_exits_2(self, artifacts, capsys, strategy):
        ckpt, _, q_path, tmp_path = artifacts
        out = tmp_path / "s.csv"
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", strategy, "--labeled", str(tmp_path / "no.bin"),
                     "--out", str(out)]) == 2
        assert f"strategy {strategy} does not read --labeled" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target, size", [("queries", 8), ("queries", 20),
                                              ("queries", 200), ("checkpoint", 7),
                                              ("checkpoint", 40)])
    def test_truncated_input_exits_3(self, artifacts, target, size):
        ckpt, _, q_path, tmp_path = artifacts
        path = ckpt if target == "checkpoint" else q_path
        path.write_bytes(path.read_bytes()[:size])
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3

    def test_missing_checkpoint_exits_3(self, artifacts):
        _, lab_path, q_path, tmp_path = artifacts
        assert main(["score", str(q_path), "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3

    @pytest.mark.parametrize("key, value", [("batch_size", 0), ("batch_size", 2.5),
                                            ("d_feat", "x"), ("temperature", "x"),
                                            ("w2", "five columns")])
    def test_corrupt_checkpoint_contents_exit_3(self, artifacts, key, value):
        ckpt, _, q_path, tmp_path = artifacts
        meta, arrays = read_container(ckpt)
        if key == "w2":
            arrays["w2"] = arrays["w2"][:, :5]
        else:
            meta["config"][key] = value
        write_container(ckpt, meta, arrays)
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3

    def test_classifierless_checkpoint_exits_3_naming_it(self, artifacts, capsys):
        """A checkpoint of only the 8 encoder and projection arrays is not a model's."""
        ckpt, _, q_path, tmp_path = artifacts
        meta, arrays = read_container(ckpt)
        write_container(ckpt, meta, {k: v for k, v in arrays.items() if k not in ("wc", "bc")})
        assert main(["score", str(q_path), "--checkpoint", str(ckpt),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3
        assert f"{ckpt}: arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["empty", "label_k"])
    @pytest.mark.parametrize("strategy", ["coreset", "featuresim", "fre"])
    def test_bad_labeled_set_exits_3_naming_it(self, artifacts, capsys, strategy, fault):
        """An empty labeled file, or a label equal to the checkpoint's K = 3."""
        ckpt, lab_path, q_path, tmp_path = artifacts
        labeled = load_features(lab_path)
        if fault == "empty":
            labeled = labeled.take(np.arange(0))
        else:
            labeled = FeatureMatrix(labeled.values, labeled.ids,
                                    np.where(np.arange(labeled.n) == 5, 3, labeled.labels))
        save_features(labeled, lab_path)
        out = tmp_path / "s.csv"
        assert main(["score", str(q_path), "--checkpoint", str(ckpt), "--strategy", strategy,
                     "--labeled", str(lab_path), "--out", str(out)]) == 3
        assert f"data error: {lab_path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["queries", "labeled"])
    def test_width_fault_names_its_file(self, artifacts, capsys, target):
        ckpt, lab_path, q_path, tmp_path = artifacts
        path = q_path if target == "queries" else lab_path
        data = load_features(path)
        save_features(FeatureMatrix(np.hstack([data.values, data.values[:, :1]]), data.ids,
                                    data.labels), path)
        assert main(["score", str(q_path), "--checkpoint", str(ckpt), "--strategy", "fre",
                     "--labeled", str(lab_path), "--out", str(tmp_path / "s.csv")]) == 3
        assert f"{path}: 7 features per row, the checkpoint takes 6" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [0, 1])
    def test_bad_tau_exits_2_before_reading_files(self, tmp_path, tau):
        assert main(["score", str(tmp_path / "no.bin"), "--checkpoint",
                     str(tmp_path / "no.ckpt"), "--strategy", "bald", "--tau", str(tau),
                     "--out", str(tmp_path / "s.csv")]) == 2


class TestScoreParity:
    """`conal score` with the loop's final model and labeled set reproduces the
    loop's own OOD scores, so the last report's AUROC comes back exactly."""

    @pytest.mark.parametrize("strategy", ["entropy", "coreset", "featuresim", "fre"])
    def test_auroc_matches_last_report(self, tmp_path, strategy, caplog):
        from conal.data import ShiftSpec, balanced_test_spec, generate_ood
        from conal.io import save_features
        from conal.loop import LoopConfig, run_active_learning
        from conal.metrics import auroc

        # class sizes 30, 5, 1: the whole pool gets labeled, so class 2 ends
        # with a single labeled sample and fre has no subspace for it
        ds = DatasetSpec(k=3, d=6, n_per_class=30, imbalance_ratio=30.0,
                         class_separation=4.0, seed=4)
        pool = generate_mixture(ds, id_prefix="tr-")
        test = generate_mixture(balanced_test_spec(ds, 15), id_prefix="te-")
        ood = generate_ood(ds, 25, ds.seed + 2)
        model = ModelConfig(d_in=6, n_classes=3, d_hidden=12, d_feat=6, d_proj=4,
                            epochs=3, batch_size=32, seed=0)
        loop = LoopConfig(budget=40, acquisition_size=20, subset_size=20,
                          strategy=strategy, seed=0, tau=3)
        result = run_active_learning(pool, test, model, loop, ood=ood,
                                     shifts=[ShiftSpec("additive_gaussian", 1)])
        assert len(result.pool.labeled_ids) == pool.n

        ckpt = tmp_path / "final.ckpt"
        save_model(result.final_state, ckpt)
        rows = {str(sid): i for i, sid in enumerate(pool.ids)}
        labeled = pool.take([rows[sid] for sid in result.pool.labeled_ids])
        save_features(labeled, tmp_path / "labeled.bin")
        save_features(test, tmp_path / "test.bin")
        save_features(ood, tmp_path / "ood.bin")

        caplog.clear()
        scores = {}
        for part in ("test", "ood"):
            out = tmp_path / f"{part}.csv"
            args = ["score", str(tmp_path / f"{part}.bin"), "--checkpoint", str(ckpt),
                    "--strategy", strategy, "--out", str(out)]
            if strategy != "entropy":
                args += ["--labeled", str(tmp_path / "labeled.bin")]
            assert main(args) == 0
            with open(out) as fh:
                scores[part] = np.array([float(r["score"]) for r in csv.DictReader(fh)])
        if strategy == "fre":
            assert any(r.getMessage().startswith("fre: class 2 has no fitted subspace")
                       for r in caplog.records)

        sign = -1.0 if strategy == "featuresim" else 1.0
        assert auroc(sign * scores["test"], sign * scores["ood"]) == \
            result.reports[-1].auroc_ood


class TestFailureHandling:
    def test_mid_run_failure_leaves_marker(self, tiny_config, tmp_path, monkeypatch):
        import conal.loop as loop_mod

        calls = {"n": 0}

        def explode(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("simulated mid-run crash")

        # one worker: the call counter below lives in this process
        monkeypatch.setattr(loop_mod, "_worker_count", lambda n: 1)
        monkeypatch.setattr(loop_mod, "run_active_learning", explode)
        assert main(["run", str(tiny_config)]) == 4
        assert calls["n"] == 4  # every cell runs, whichever fail
        marker = tmp_path / "out" / "featuresim_seed0" / "FAILED.txt"
        assert marker.exists()
        assert "simulated mid-run crash" in marker.read_text()
        assert (tmp_path / "out" / "manifest.cfg").exists()  # partial outputs kept
        assert not (tmp_path / "out" / "curves.csv").exists()

    @pytest.mark.parametrize("bad,message", [
        ("loop.accumulate_features = false", "unknown config key"),
        ("loop.symmetric_featuresim = false", "unknown config key"),
        ("loop.pca_components = 3", "unknown config key"),
        ("loop.pca_variance_fraction = 0.5", "unknown config key"),
        ("loop.loss_override = hinge", "loss_override must be one of"),
        ("model.temperature = 0", "temperature must be positive"),
        ("loop.budget = 0", "budget 0 is not a positive multiple"),
        ("model.classifier_steps = -1", "unknown config key"),
        ("model.classifier_lr = -0.5", "unknown config key"),
        ("model.lr_decay_epoch = -2", "unknown config key"),
        ("model.momentum = 0.9", "unknown config key"),
        ("loop.shift_seed = 20259", "unknown config key"),
        ("model.aug_sigma = -0.1", "aug_sigma must be >= 0"),
        ("model.lr = -0.1", "lr must be >= 0"),
        ("model.weight_decay = -0.5", "weight_decay must be >= 0"),
        ("model.lr = nan", "lr must be finite"),
        ("model.weight_decay = inf", "weight_decay must be finite"),
        ("model.aug_sigma = nan", "aug_sigma must be finite"),
        ("model.temperature = nan", "temperature must be finite"),
        ("model.temperature = inf", "temperature must be finite"),
    ], ids=["accumulate_features", "symmetric_featuresim", "pca_components",
            "pca_variance_fraction", "loss_hinge", "temperature_0", "budget_0",
            "classifier_steps_neg", "classifier_lr_neg", "lr_decay_epoch_neg",
            "momentum", "shift_seed", "aug_sigma_neg", "lr_neg", "weight_decay_neg",
            "lr_nan", "weight_decay_inf", "aug_sigma_nan", "temperature_nan",
            "temperature_inf"])
    def test_bad_loop_or_model_value_rejected_before_any_cell(self, tmp_path, capsys, bad,
                                                              message):
        keys = {line.split("=")[0].strip() for line in bad.splitlines()}
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() not in keys]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(kept + [bad, f"run.out = {tmp_path / 'o'}"]) + "\n")
        assert main(["run", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad,message", [
        ("run.strategies = entropy,entropy\nrun.seeds = 0,0", "run.strategies lists entropy"),
        ("run.seeds = 0,1,0", "run.seeds lists 0"),
        ("shift.kinds = additive_gaussian,mean_drift,additive_gaussian",
         "shift.kinds lists additive_gaussian"),
        ("shift.intensities = 1,3,3", "shift.intensities lists 3"),
    ], ids=["strategies_and_seeds", "seeds", "shift_kinds", "shift_intensities"])
    def test_duplicate_list_entry_rejected_before_any_cell(self, tmp_path, capsys, bad,
                                                           message):
        keys = {line.split("=")[0].strip() for line in bad.splitlines()}
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() not in keys]
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("\n".join(kept + [bad, f"run.out = {tmp_path / 'o'}"]) + "\n")
        assert main(["run", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target,code,message", [
        ("config", 2, "config error"), ("manifest", 2, "config error"),
        ("train_csv", 3, "data error"),
    ], ids=["config", "manifest", "train_csv"])
    def test_invalid_utf8_gets_its_exit_code(self, tmp_path, capsys, target, code, message):
        data = tmp_path / "data"
        gen = tmp_path / "gen.cfg"
        gen.write_text(TINY_CONFIG + f"run.out = {data}\n")
        assert main(["gen", str(gen), "--format", "csv"]) == 0
        text = (TINY_CONFIG + "data.source = files\ndata.format = csv\n"
                + "".join(f"data.{name}_path = {data / name}.csv\n"
                          for name in ("train", "test", "ood"))
                + f"run.out = {tmp_path / 'o'}\n")
        if target == "manifest":
            text = echo_config(build_experiment(parse_config_text(text)), {"tool": "conal"})
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        path = data / "train.csv" if target == "train_csv" else cfg
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["run", str(cfg)]) == code
        err = capsys.readouterr().err
        assert message in err and "UTF-8" in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _files_config(tmp_path, edit):
        """The tiny data set written as files, ``edit(name, fm)`` applied to each
        of train, test and OOD, and a config that runs on the edited files."""
        data = tmp_path / "data"
        gen = tmp_path / "gen.cfg"
        gen.write_text(TINY_CONFIG + f"run.out = {data}\n")
        assert main(["gen", str(gen)]) == 0
        for name in ("train", "test", "ood"):
            path = data / f"{name}.bin"
            save_features(edit(name, load_features(path)), path)
        cfg = tmp_path / "files.cfg"
        cfg.write_text(TINY_CONFIG + "data.source = files\n"
                       + "".join(f"data.{name}_path = {data / name}.bin\n"
                                 for name in ("train", "test", "ood"))
                       + f"run.out = {tmp_path / 'o'}\n")
        return cfg

    @pytest.mark.parametrize("bad_part,change,message", [
        ("test", "narrow", "the test file has 5 features per row"),
        ("ood", "narrow", "the OOD file has 5 features per row"),
        ("test", "label_7", "test labels must lie in [0, 4)"),
        ("train", "label_7", "train labels must lie in [0, 4)"),
        ("train", "empty", "train.bin: the feature file has no rows"),
        ("test", "empty", "test.bin: the feature file has no rows"),
        ("ood", "empty", "ood.bin: the feature file has no rows"),
    ], ids=["test_width_5", "ood_width_5", "test_label_7", "train_label_7", "train_empty",
            "test_empty", "ood_empty"])
    def test_bad_file_inputs_rejected_before_any_cell(self, tmp_path, capsys, bad_part,
                                                      change, message):
        def edit(name, fm):
            if name != bad_part:
                return fm
            if change == "narrow":
                return FeatureMatrix(fm.values[:, :5], fm.ids, fm.labels)
            if change == "empty":
                return fm.take(np.arange(0))
            labels = fm.labels.copy()
            labels[0] = 7
            return FeatureMatrix(fm.values, fm.ids, labels)

        cfg = self._files_config(tmp_path, edit)
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "gen"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, (kind, _) in _KEYS.items() if kind is float])
    def test_nonfinite_float_key_exits_2(self, tmp_path, capsys, command, raw, key):
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() != key]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(kept + [f"{key} = {raw}", f"run.out = {tmp_path / 'o'}"])
                       + "\n")
        assert main([command, str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_a_class_that_rounds_to_0_exits_2(self, tmp_path, capsys, command):
        edits = {"data.k": 3, "data.d": 4, "data.n_per_class": 5, "data.imbalance_ratio": 20}
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() not in edits]
        values = {key: str(value) for key, value in edits.items()}
        with pytest.raises(ConfigError, match="smallest class rounds to 0"):
            build_experiment(values)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("\n".join(kept + [f"{key} = {value}" for key, value in values.items()]
                                 + [f"run.out = {tmp_path / 'o'}"]) + "\n")
        assert main([command, str(cfg)]) == 2
        assert "smallest class rounds to 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_subset_past_the_pool_scores_what_is_left(self, tmp_path, command):
        """A subset past the pool is a cap, as a budget past it is: the query
        scores every unlabeled row."""
        text = TINY_CONFIG.replace("loop.subset_size = 60", "loop.subset_size = 138")
        config = build_experiment(parse_config_text(text))
        assert sum(class_sizes(config.dataset)) == 137  # 60 + 38 + 24 + 15
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text + f"run.out = {tmp_path / 'o'}\n")
        assert main([command, str(cfg)]) == 0
        if command == "gen":
            assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
                "ood.bin", "test.bin", "train.bin"]
            return
        for seed in (0, 1):
            for strategy, passes in (("featuresim", 4), ("random", 0)):  # ceil(117 / 32)
                rows = read_reports_jsonl(tmp_path / "o" / f"{strategy}_seed{seed}"
                                          / "report.jsonl")
                assert [row["forward_passes_used"] for row in rows] == [0, passes]

    def test_budget_past_the_pool_ends_on_a_truncated_row(self, tmp_path):
        # a pool of 60 + 42 + 30 = 132 rows: 13 batches of 10, then the last 2
        edits = {"data.k": 3, "data.d": 4, "data.imbalance_ratio": 2, "loop.budget": 140,
                 "loop.acquisition_size": 10, "loop.subset_size": 30,
                 "run.strategies": "random", "run.seeds": 0, "run.out": tmp_path / "o"}
        kept = [line for line in TINY_CONFIG.splitlines() if line.split("=")[0].strip() not in edits]
        cfg = tmp_path / "exhaust.cfg"
        cfg.write_text("\n".join(kept + [f"{key} = {value}" for key, value in edits.items()])
                       + "\n")
        assert main(["run", str(cfg)]) == 0
        cell = tmp_path / "o" / "random_seed0"
        rows = [json.loads(line) for line in (cell / "report.jsonl").read_text().splitlines()]
        assert len(rows) == 14
        assert [row["truncated"] for row in rows] == [False] * 13 + [True]
        assert rows[-1]["labeled_count"] == 132
        assert not list((tmp_path / "o").rglob("*.tmp"))

    def test_nonfinite_training_fails_every_cell(self, tmp_path, capsys):
        # the config is valid, but every cell's weights overflow in training
        cfg = self._files_config(tmp_path, lambda name, fm: fm)
        cfg.write_text(cfg.read_text() + "model.lr = 1e300\n")
        assert main(["run", str(cfg)]) == 3
        assert "non-finite weights in w1 after training" in capsys.readouterr().err
        out = tmp_path / "o"
        cells = [p for p in out.iterdir() if p.is_dir()]
        assert len(cells) == 4
        for cell in cells:
            assert "DataError" in (cell / "FAILED.txt").read_text()
            assert not (cell / "report.jsonl").exists()
        assert not (out / "curves.csv").exists()


class TestCellWriter:
    """A rerun into the same ``run.out`` replaces each cell's outcome, and a cell holds
    ``report.jsonl`` only when every other file in it comes from the same run."""

    @staticmethod
    def _cells(out):
        return sorted(p for p in out.iterdir() if p.is_dir() and p.name != "report")

    def test_failing_rerun_leaves_no_old_results(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(tiny_config)]) == 0
        assert main(["report", str(out)]) == 0
        assert (out / "curves.csv").is_file() and len(list((out / "report").glob("*.csv"))) == 8
        tiny_config.write_text(tiny_config.read_text() + "model.lr = 1e300\n")
        assert main(["run", str(tiny_config)]) == 3
        assert not (out / "curves.csv").exists()
        assert not list((out / "report").glob("*.csv"))
        cells = self._cells(out)
        assert len(cells) == 4
        for cell in cells:
            assert sorted(p.name for p in cell.iterdir()) == ["FAILED.txt", "manifest.cfg"]
            assert f"model.lr = {1e300}\n" in (cell / "manifest.cfg").read_text()
        capsys.readouterr()
        assert main(["report", str(out)]) == 3
        assert "no run cells with report.jsonl" in capsys.readouterr().err

    def test_passing_rerun_replaces_a_failed_one(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        good = tiny_config.read_text()
        tiny_config.write_text(good + "model.lr = 1e300\n")
        assert main(["run", str(tiny_config)]) == 3
        tiny_config.write_text(good)
        assert main(["run", str(tiny_config)]) == 0
        for cell in self._cells(out):
            assert sorted(p.name for p in cell.iterdir()) == [
                "manifest.cfg", "report.jsonl", "timing.jsonl"]
        assert main(["run", str(tiny_config), "--out", str(tmp_path / "fresh")]) == 0
        for run_dir in (out, tmp_path / "fresh"):
            assert main(["report", str(run_dir)]) == 0
        assert_same_results(out, tmp_path / "fresh")
        for cell in self._cells(out):
            assert f"model.lr = {1e300}\n" not in (cell / "manifest.cfg").read_text()

    def test_interrupted_timing_write_leaves_no_report(self, tiny_config, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "out"
        assert main(["run", str(tiny_config)]) == 0
        old = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real = open

        def interrupted(file, mode="r", *args, **kwargs):
            fh = real(file, mode, *args, **kwargs)
            if str(file).endswith("random_seed0/timing.jsonl.tmp"):
                return _Partway(fh, _Interrupted())
            return fh

        monkeypatch.setattr(conal_io, "open", interrupted, raising=False)
        with pytest.raises(_Interrupted):
            main(["run", str(tiny_config)])
        monkeypatch.undo()
        cell = out / "random_seed0"
        assert sorted(p.name for p in cell.iterdir()) == ["manifest.cfg", "timing.jsonl"]
        assert (cell / "timing.jsonl").read_bytes() == old[Path("random_seed0/timing.jsonl")]
        assert not list(out.rglob("*.tmp"))
        # the cells before it were rewritten whole, the one after it is the old run's
        assert [(strategy, seed) for strategy, seed, _ in read_cells(out)] == [
            ("featuresim", 0), ("featuresim", 1), ("random", 1)]
        later = Path("random_seed1")
        assert all((out / later / name).read_bytes() == old[later / name]
                   for name in ("manifest.cfg", "report.jsonl", "timing.jsonl"))

    @pytest.mark.parametrize("strategy, seed", [("featuresim", 0), ("random", 12),
                                                ("a_seed3", 4), ("entropy", -1)])
    def test_cell_name_round_trips(self, tmp_path, strategy, seed):
        reports = [IterationReport(t, 20 * t, 0.5, 0.1, 1.0, 0.5, 0.1, None, None)
                   for t in (1, 2)]
        write_cell(tmp_path / cell_name(strategy, seed), "meta.x = 1\n",
                   RunResult(reports, [1.5, 2.5], None, None))
        assert read_cells(tmp_path) == [(strategy, seed, [r.to_dict() for r in reports])]
        assert read_cells(tmp_path, [cell_name(strategy, seed)]) == read_cells(tmp_path)

    @pytest.mark.parametrize("name", ["featuresim_seedX", "featuresim", "featuresim_seed",
                                      "featuresim_seed1.5", "seed0"])
    def test_a_name_not_strategy_seed_int_is_a_data_error(self, tmp_path, name):
        report = IterationReport(1, 20, 0.5, 0.1, 1.0, 0.5, 0.1, None, None)
        write_cell(tmp_path / name, "meta.x = 1\n", RunResult([report], [1.5], None, None))
        with pytest.raises(DataError, match="must be <strategy>_seed<int>"):
            read_cells(tmp_path)
        assert main(["report", str(tmp_path)]) == 3


class TestManifestEcho:
    def test_manifest_parses_and_matches(self, tiny_config, tmp_path):
        main(["run", str(tiny_config)])
        manifest = load_config_file(tmp_path / "out" / "manifest.cfg")
        original = build_experiment(load_config_file(tiny_config))
        echoed = build_experiment(manifest)
        assert echoed == original

    @pytest.mark.parametrize("source", ["synthetic", "files"])
    def test_every_optional_key_round_trips(self, tmp_path, source):
        for name in ("train", "test", "ood"):
            (tmp_path / f"{name}.csv").write_text("")
        text = (TINY_CONFIG + f"""
data.source = {source}
data.train_path = {tmp_path / 'train.csv'}
data.test_path = {tmp_path / 'test.csv'}
data.ood_path = {tmp_path / 'ood.csv'}
data.format = csv
loop.loss_override = cross_entropy
loop.force_per_class = yes
run.out = {tmp_path / 'out'}
""")
        original = build_experiment(parse_config_text(text))
        echoed = build_experiment(parse_config_text(echo_config(original, {"tool": "x"})))
        assert echoed == original
        assert echoed.loop.loss_override == "cross_entropy"
        assert echoed.ood_path == str(tmp_path / "ood.csv")


class TestMutationFuzz:
    MUTANTS_PER_KIND = 150

    @staticmethod
    def _mutants(blob: bytes, rng, count: int):
        """Seeded one-byte XOR flips (0x01, 0x80, 0xFF), truncations and
        one-byte insertions of ``blob``."""
        for _ in range(count):
            op, at = rng.integers(3), int(rng.integers(len(blob)))
            if op == 0:
                flip = (0x01, 0x80, 0xFF)[rng.integers(3)]
                yield blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
            elif op == 1:
                yield blob[:at]
            else:
                yield blob[:at] + bytes([int(rng.integers(256))]) + blob[at:]

    def test_no_mutant_of_any_input_exits_4(self, tmp_path, capsys):
        """Each file kind the CLI reads, mutated, exits 0, 2 or 3: never 4."""
        from conal.data import ShiftSpec, balanced_test_spec
        from conal.loop import run_active_learning
        from conal.metrics import write_reports_jsonl

        ds = DatasetSpec(k=3, d=4, n_per_class=8, class_separation=4.0, seed=1)
        labeled = generate_mixture(ds, id_prefix="l-")
        model = ModelConfig(d_in=4, n_classes=3, d_hidden=6, d_feat=4, d_proj=2,
                            epochs=2, batch_size=16, seed=0)
        ckpt, lab, q_csv = tmp_path / "m.ckpt", tmp_path / "l.bin", tmp_path / "q.csv"
        save_model(train(init_model(model), labeled), ckpt)
        save_features(labeled, lab)
        save_features(labeled.take(np.arange(6)), q_csv, "csv")
        text = TINY_CONFIG.replace("data.n_per_class = 60", "data.n_per_class = 6")
        cfg, manifest = tmp_path / "gen.cfg", tmp_path / "manifest.cfg"
        cfg.write_text(text)
        manifest.write_text(echo_config(build_experiment(parse_config_text(text)),
                                        {"tool": "conal"}))
        run_dir = tmp_path / "run"
        report = run_dir / "featuresim_seed0" / "report.jsonl"
        report.parent.mkdir(parents=True)
        loop = LoopConfig(budget=8, acquisition_size=4, subset_size=8, strategy="featuresim",
                          tau=2)
        result = run_active_learning(labeled, generate_mixture(balanced_test_spec(ds, 4)),
                                     model, loop, shifts=[ShiftSpec("additive_gaussian", 1)])
        # a report holds no wall time, so it and every mutant is the same each run
        write_reports_jsonl(result.reports, report)

        scores, data = ["--out", str(tmp_path / "s.csv")], ["--out", str(tmp_path / "data")]
        score = ["score", str(lab), "--checkpoint", str(ckpt)] + scores
        calls = {
            "alcv1": (lab, score + ["--strategy", "fre", "--labeled", str(lab)]),
            "csv": (q_csv, ["score", str(q_csv), "--format", "csv", "--checkpoint",
                            str(ckpt), "--strategy", "entropy"] + scores),
            "modl1": (ckpt, score + ["--strategy", "bald", "--tau", "3"]),
            "config": (cfg, ["gen", str(cfg)] + data),
            "manifest": (manifest, ["gen", str(manifest)] + data),
            "report": (report, ["report", str(run_dir)]),
        }
        rng = np.random.default_rng(20260)
        outcomes, fours = {}, []
        for kind, (path, argv) in calls.items():
            original = path.read_bytes()
            assert main(argv) == 0, kind
            codes = []
            for mutant in self._mutants(original, rng, self.MUTANTS_PER_KIND):
                path.write_bytes(mutant)
                codes.append(main(argv))
                err = capsys.readouterr().err
                if codes[-1] == 4:
                    fours.append((kind, mutant, err))
            path.write_bytes(original)
            outcomes[kind] = {code: codes.count(code) for code in sorted(set(codes))}
        assert not fours, fours[:3]
        assert all(0 in seen and len(seen) > 1 for seen in outcomes.values()), outcomes


class TestConfigFuzz:
    CONFIGS = 300

    @staticmethod
    def _config(rng) -> dict:
        """A seeded small config: k 2-4, d up to 6, n_per_class 5-80, epochs 0-3, lr up
        to 1e5, any strategy and loss. One in four then breaks one rule."""
        def pick(options):
            return options[int(rng.integers(len(options)))]

        k, m, d_feat = int(rng.integers(2, 5)), int(rng.integers(1, 13)), int(rng.integers(1, 7))
        values = {
            "data.k": k, "data.d": int(rng.integers(k, 7)),
            "data.n_per_class": int(rng.integers(5, 81)),
            "data.imbalance_ratio": pick([1.0, 3.0, 20.0]),
            "data.class_separation": pick([0.5, 4.0]), "data.seed": int(rng.integers(100)),
            "data.test_n_per_class": int(rng.integers(2, 8)), "data.ood_n": pick([0, 8]),
            "model.d_hidden": int(rng.integers(2, 9)), "model.d_feat": d_feat,
            "model.d_proj": int(rng.integers(1, d_feat + 1)),
            "model.epochs": int(rng.integers(0, 4)), "model.batch_size": pick([1, 8, 64]),
            "model.lr": pick([0.01, 0.1, 1.0, 1e3, 1e5]),
            "loop.acquisition_size": m, "loop.budget": m * int(rng.integers(1, 4)),
            "loop.subset_size": m + int(rng.integers(0, 40)), "loop.tau": int(rng.integers(2, 4)),
            "loop.loss_override": pick(LOSS_KINDS + (None,)),
            "shift.kinds": pick(SHIFT_KINDS), "shift.intensities": pick([1, 5]),
            "run.strategies": pick(VALID_STRATEGIES), "run.seeds": int(rng.integers(10)),
        }
        if rng.random() < 0.25:
            key, value = pick([("data.d", 1), ("data.d", k - 1), ("loop.tau", 1),
                               ("model.d_proj", d_feat + 1), ("loop.budget", m + 1),
                               ("loop.subset_size", m - 1), ("model.epochs", -1),
                               ("data.imbalance_ratio", 0.5), ("model.lr", "nan")])
            values[key] = value
        return {key: str(value) for key, value in values.items() if value is not None}

    # diverging training overflows, and a one-row class gets a mean-only subspace
    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    def test_every_config_runs_to_its_end_or_is_rejected(self, tmp_path, capsys):
        """A config ``build_experiment`` rejects exits 2. Any other exits 0 with one
        report row per scheduled batch, or exits 3 because training diverged.
        Nothing exits 4."""
        rng = np.random.default_rng(2027)
        outcomes = []
        for i in range(self.CONFIGS):
            values = self._config(rng)
            values["run.out"] = str(tmp_path / f"r{i}")
            cfg = tmp_path / f"c{i}.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
            try:
                config = build_experiment(values)
            except ConfigError:
                config = None
            code = main(["run", str(cfg)])
            err = capsys.readouterr().err
            if config is None:
                assert code == 2, (values, err)
            elif code == 3:
                assert "non-finite weights" in err and "after training" in err, (values, err)
            else:
                assert code == 0, (values, err)
                loop, pool = config.loop, sum(class_sizes(config.dataset))
                batches = -(-min(loop.budget, pool) // loop.acquisition_size)
                cell = f"{config.strategies[0]}_seed{config.seeds[0]}"
                lines = (tmp_path / f"r{i}" / cell / "report.jsonl").read_text().splitlines()
                assert len(lines) == batches, values
            outcomes.append((code, values["run.strategies"], values.get("loop.loss_override")))
        assert {code for code, _, _ in outcomes} == {0, 2, 3}
        finished = [outcome[1:] for outcome in outcomes if outcome[0] == 0]
        assert {s for s, _ in finished} == set(VALID_STRATEGIES)
        assert {loss for _, loss in finished} == set(LOSS_KINDS) | {None}


class TestScoreMemoryBudget:
    """`conal score` holds each row's data once: the traced peak of a call on a
    20 000-row, d = 32 file stays under a budget in bytes per row.

    Each budget sits ~10% over the traced peak of a reader that makes no
    whole-file copy and a call that drops the raw values once they are encoded
    and the features once they are scored: 480 bytes per row for entropy
    (binary and CSV), 457 for fre, 455 for coreset and 455 for featuresim.
    Holding the raw values through scoring and writing traced 526, 540, 556
    and 553. Readers and scorers that copied the whole file, its text or its
    float64 values traced 846, 1437 and 861. bald, holding one dropout pass at
    a time, traces 1219 (5379 with its whole tau = 50 tensor). coreset, while
    it held the raw values, traced 555 with one product buffer of 480-row
    blocks, 663 with 1008-row blocks, and 842 with those and a new product
    block per center chunk.
    """

    ROWS = 20000
    BUDGETS = {("entropy", "binary"): 530, ("entropy", "csv"): 530, ("fre", "binary"): 505,
               ("bald", "binary"): 1350, ("coreset", "binary"): 500,
               ("featuresim", "binary"): 500}

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("budget")
        ds = DatasetSpec(k=10, d=32, n_per_class=2000, class_separation=4.5, seed=3)
        queries = generate_mixture(ds, id_prefix="q-")
        labeled = generate_mixture(replace(ds, n_per_class=50, seed=4), id_prefix="l-")
        config = ModelConfig(d_in=32, n_classes=10, d_hidden=64, d_feat=32, d_proj=16,
                             epochs=1, batch_size=64, seed=0)
        save_model(train(init_model(config), labeled), tmp / "model.ckpt")
        for fmt, ext in (("binary", "bin"), ("csv", "csv")):
            save_features(queries, tmp / f"queries.{ext}", fmt)
            save_features(labeled, tmp / f"labeled.{ext}", fmt)
        return tmp

    @pytest.mark.parametrize("strategy, fmt", list(BUDGETS))
    def test_traced_peak_per_row(self, files, strategy, fmt):
        import tracemalloc

        ext = "bin" if fmt == "binary" else "csv"
        argv = ["score", str(files / f"queries.{ext}"), "--checkpoint",
                str(files / "model.ckpt"), "--strategy", strategy, "--format", fmt,
                "--out", str(files / f"{strategy}-{fmt}.csv")]
        if strategy in ("fre", "coreset", "featuresim"):
            argv += ["--labeled", str(files / f"labeled.{ext}")]
        assert main(argv) == 0  # imports and first-call caches stay out of the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_row = peak / self.ROWS
        assert per_row <= self.BUDGETS[strategy, fmt], f"{per_row:.0f} bytes per row"
