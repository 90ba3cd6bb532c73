import csv
import json

import numpy as np
import pytest

from conal.cli import main
from conal.config import build_experiment, load_config_file, parse_config_text
from conal.data import DatasetSpec, generate_mixture
from conal.errors import ConfigError
from conal.io import load_features
from conal.model import ModelConfig, init_model, save_model, train

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


def read_jsonl_masked(path):
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        row.pop("query_wall_ms")
        rows.append(row)
    return rows


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("loop.magic = 3")

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

    def test_strategy_typo_lists_names(self):
        with pytest.raises(ConfigError, match="featuresim"):
            build_experiment({"run.strategies": "entropi"})


class TestGen:
    def test_balanced_counts_uniform(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("data.k = 3\ndata.d = 6\ndata.n_per_class = 10\n"
                       "data.imbalance_ratio = 1\n"
                       f"run.out = {tmp_path / 'data'}\n")
        assert main(["gen", str(cfg)]) == 0
        train = load_features(tmp_path / "data" / "train.bin", "binary")
        assert list(np.bincount(train.labels)) == [10, 10, 10]

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
                       "data.imbalance_ratio = 1\n"
                       f"run.out = {blocker / 'sub'}\n")
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

        # rerun into a fresh directory: identical JSONL modulo wall time
        assert main(["run", str(tiny_config), "--out", str(tmp_path / "out2")]) == 0
        for cell in cells:
            a = read_jsonl_masked(out / cell / "report.jsonl")
            b = read_jsonl_masked(tmp_path / "out2" / cell / "report.jsonl")
            assert a == b

    def test_manifest_reproduces_run(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config)]) == 0
        manifest = tmp_path / "out" / "manifest.cfg"
        assert main(["run", str(manifest), "--out", str(tmp_path / "out3")]) == 0
        for cell in ("featuresim_seed0", "random_seed1"):
            a = read_jsonl_masked(tmp_path / "out" / cell / "report.jsonl")
            b = read_jsonl_masked(tmp_path / "out3" / cell / "report.jsonl")
            assert a == b

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

    def test_curves_schema(self, tiny_config, tmp_path):
        main(["run", str(tiny_config)])
        with open(tmp_path / "out" / "curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {"strategy", "seed", "iteration", "metric", "value", "mean", "std"} \
            <= set(rows[0].keys())
        # one row per (run, iteration, metric with a value)
        accuracy_rows = [r for r in rows if r["metric"] == "accuracy"]
        assert len(accuracy_rows) == 4 * 2  # 4 cells x 2 iterations


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

    def test_missing_run_dir_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == 3


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

    def test_missing_checkpoint_exits_3(self, artifacts):
        _, lab_path, q_path, tmp_path = artifacts
        assert main(["score", str(q_path), "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--strategy", "entropy", "--out", str(tmp_path / "s.csv")]) == 3


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
            assert main(["score", str(tmp_path / f"{part}.bin"), "--checkpoint", str(ckpt),
                         "--strategy", strategy, "--labeled", str(tmp_path / "labeled.bin"),
                         "--out", str(out)]) == 0
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
        import conal.cli as cli_mod

        calls = {"n": 0}

        def explode(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("simulated mid-run crash")

        monkeypatch.setattr(cli_mod, "run_active_learning", explode)
        assert main(["run", str(tiny_config)]) == 4
        marker = tmp_path / "out" / "featuresim_seed0" / "FAILED.txt"
        assert marker.exists()
        assert "simulated mid-run crash" in marker.read_text()
        assert (tmp_path / "out" / "manifest.cfg").exists()  # partial outputs kept

    def test_subset_size_validated_before_running(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(TINY_CONFIG.replace("loop.subset_size = 60",
                                           "loop.subset_size = 100000")
                       + f"run.out = {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 2


class TestManifestEcho:
    def test_manifest_parses_and_matches(self, tiny_config, tmp_path):
        main(["run", str(tiny_config)])
        manifest = load_config_file(tmp_path / "out" / "manifest.cfg")
        original = build_experiment(load_config_file(tiny_config))
        echoed = build_experiment(manifest)
        assert echoed.dataset == original.dataset
        assert echoed.model == original.model
        assert echoed.seeds == original.seeds
        assert echoed.strategies == original.strategies
