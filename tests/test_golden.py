"""Golden digest: a fixed tiny sweep must reproduce its reports bit for bit.

Every strategy runs the same small experiment and every report row is hashed
in order, one digest per strategy. A refactor proves it kept behaviour by
leaving the digests alone, and a change meant for one loss shows which
strategies it reached. A change that alters behaviour on purpose replaces the
digests the failure prints and says why in CHANGES.md.
"""

import hashlib

from conal.data import DatasetSpec, ShiftSpec, balanced_test_spec, generate_mixture, generate_ood
from conal.loop import LoopConfig, run_active_learning
from conal.metrics import write_reports_jsonl
from conal.model import ModelConfig

GOLDEN_DIGESTS = {
    "random": "f4ea6f48304b967ef03df25365faa11857ff5a9f6971b446981b08dc07e0cb2c",
    "entropy": "aed47a0e2fd4363e516a702af18cfa3a16893378facd565bdb59affa583b8204",
    "bald": "177d3e3a5a19f4d9e65b8ee8fa2af60e7e62e46a5f0b212e542147b9f25bf0df",
    "coreset": "8fa456b35e4bf7375745a2fe625a8cd0158ce9aa1619b5646d91199e94352644",
    "featuresim": "225a59e0f166fdc4a067974c417d158be77324c5e46b051573d3a55debdd7e54",
    "fre": "2676c8b9e516638e6f628056c0cfa46fe6df92344370637754e881bb576f7ecc",
}


def golden_digests(tmp_path) -> dict[str, str]:
    ds = DatasetSpec(k=4, d=8, n_per_class=60, imbalance_ratio=4.0,
                     class_separation=4.0, noise_sigma=1.0, seed=0)
    pool = generate_mixture(ds, id_prefix="tr-")
    test = generate_mixture(balanced_test_spec(ds, 20), id_prefix="te-")
    ood = generate_ood(ds, 30, ds.seed + 2)
    shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("mean_drift", 2)]
    model = ModelConfig(d_in=8, n_classes=4, d_hidden=16, d_feat=8, d_proj=4,
                        epochs=3, batch_size=32, seed=0)
    digests = {}
    for strategy in GOLDEN_DIGESTS:
        digest = hashlib.sha256()
        loop = LoopConfig(budget=80, acquisition_size=20, subset_size=60,
                          strategy=strategy, seed=0, tau=3)
        result = run_active_learning(pool, test, model, loop, ood=ood, shifts=shifts)
        assert len(result.reports) == 4
        path = tmp_path / f"{strategy}.jsonl"
        write_reports_jsonl(result.reports, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            digest.update(line.encode("utf-8"))
        digests[strategy] = digest.hexdigest()
    return digests


def test_golden_digest(tmp_path):
    digests = golden_digests(tmp_path)
    changed = {s: d for s, d in digests.items() if d != GOLDEN_DIGESTS[s]}
    assert not changed, f"report digests changed: new digests {changed}"


# ---------------------------------------------------------------------------
# file path: `conal gen` and `conal score` through both feature formats
# ---------------------------------------------------------------------------

FILE_PATH_DIGEST = "47072ffb59dc7518f954199139ce320acc9b260ce1ddfaa06f91fa61b3b4d7ab"

# 2000 + 1414 + 1000 = 4414 train rows: more than one CSV write block
# (io._CSV_BLOCK_ROWS) and several CSV read windows
FILE_PATH_CONFIG = """\
data.k = 3
data.d = 6
data.n_per_class = 2000
data.imbalance_ratio = 2
data.class_separation = 3.0
data.seed = 4
data.test_n_per_class = 20
data.ood_n = 30
run.strategies = entropy
run.seeds = 0
"""

# (strategy, training loss of its checkpoint), in call order
FILE_PATH_SCORES = (("entropy", "cross_entropy"), ("bald", "cross_entropy"),
                    ("coreset", "cross_entropy"), ("featuresim", "contrastive"),
                    ("fre", "contrastive"))


def file_path_digest(tmp_path) -> str:
    """SHA-256 over every file `conal gen` writes in both formats and every
    score file `conal score` writes from them.

    The labeled set has 2500 rows per class, so featuresim's ``max_dot``
    takes the queries of the largest predicted class in two blocks.
    """
    from conal.cli import main
    from conal.io import save_features
    from conal.model import init_model, save_model, train

    config = tmp_path / "files.cfg"
    config.write_text(FILE_PATH_CONFIG, encoding="utf-8")
    labeled = generate_mixture(DatasetSpec(k=3, d=6, n_per_class=2500,
                                           class_separation=3.0, seed=9), id_prefix="lab-")
    fit_rows = labeled.take(range(0, labeled.n, 25))
    ckpts = {}
    for loss in ("cross_entropy", "contrastive"):
        state = train(init_model(ModelConfig(d_in=6, n_classes=3, d_hidden=12, d_feat=6,
                                             d_proj=4, epochs=2, batch_size=64, seed=0,
                                             loss_kind=loss)), fit_rows)
        ckpts[loss] = tmp_path / f"{loss}.ckpt"
        save_model(state, ckpts[loss])
    digest = hashlib.sha256()
    for fmt, ext in (("binary", "bin"), ("csv", "csv")):
        out = tmp_path / f"gen-{fmt}"
        assert main(["gen", str(config), "--out", str(out), "--format", fmt]) == 0
        save_features(labeled, out / f"labeled.{ext}", fmt)
        for name in ("train", "test", "ood", "labeled"):
            digest.update((out / f"{name}.{ext}").read_bytes())
        for strategy, loss in FILE_PATH_SCORES:
            scores = tmp_path / f"{strategy}-{fmt}.csv"
            argv = ["score", str(out / f"train.{ext}"), "--checkpoint", str(ckpts[loss]),
                    "--strategy", strategy, "--format", fmt, "--tau", "3",
                    "--out", str(scores)]
            if strategy not in ("entropy", "bald"):
                argv += ["--labeled", str(out / f"labeled.{ext}")]
            assert main(argv) == 0
            digest.update(scores.read_bytes())
    return digest.hexdigest()


def test_file_path_digest(tmp_path):
    digest = file_path_digest(tmp_path)
    assert digest == FILE_PATH_DIGEST, f"file path digest changed: new digest {digest}"
