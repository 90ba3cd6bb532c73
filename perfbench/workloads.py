"""Workload definitions: the configs, fixtures and CLI operations of each run.

Every input is derived from the workload seed. The program under test only
ever sees the config files and feature files written here, never the seed.
"""

from __future__ import annotations

import math
from pathlib import Path

K, D = 10, 32
BATCH, SUBSET, TAU = 64, 2000, 50
BUDGET, ACQUISITION = 1000, 100
ITERATIONS = BUDGET // ACQUISITION
N_SHIFTS = 20

# The long-tailed desk-scale preset (configs/imbalanced.cfg) with every key
# written out, so a later change of the built-in defaults does not silently
# change the benchmark's inputs.
PRESET_TEMPLATE = f"""\
data.source = synthetic
data.k = {K}
data.d = {D}
data.n_per_class = {{n_per_class}}
data.imbalance_ratio = 50
data.class_separation = 4.5
data.noise_sigma = 1.0
data.seed = {{seed}}
data.test_n_per_class = 200
data.ood_n = 1000
model.epochs = 60
model.batch_size = {BATCH}
model.lr = 0.1
model.temperature = 0.2
model.weight_decay = 0.01
model.aug_sigma = 0.2
model.dropout_rate = 0.3
loop.budget = {BUDGET}
loop.acquisition_size = {ACQUISITION}
loop.subset_size = {SUBSET}
loop.tau = {TAU}
shift.kinds = additive_gaussian,feature_scale,feature_dropout_mask,mean_drift
shift.intensities = 1,2,3,4,5
run.strategies = {{strategies}}
run.seeds = {{seed}}
"""

PRESET_STRATEGIES = {
    "preset-contrastive": ("featuresim", "fre"),
    "preset-baselines": ("entropy", "bald", "coreset", "random"),
}
FILES_WORKLOAD = "files-140k"
WORKLOADS = tuple(PRESET_STRATEGIES) + (FILES_WORKLOAD,)

FILES_N_PER_CLASS = 50000
FILES_ROWS = {"train": 139998, "test": K * 200, "ood": 1000}
FIXTURE_LABELED_ROWS = 1000

# (strategy, query file, query format, checkpoint) of each `conal score` call
# in files-140k; bald gets the 2000-row test file (see README.md).
SCORE_CALLS = (
    ("entropy", "train", "binary", "cross_entropy"),
    ("coreset", "train", "binary", "cross_entropy"),
    ("featuresim", "train", "binary", "contrastive"),
    ("fre", "train", "binary", "contrastive"),
    ("entropy", "train", "csv", "cross_entropy"),
    ("bald", "test", "binary", "cross_entropy"),
)
NEEDS_LABELED = ("coreset", "featuresim", "fre")
EXT = {"binary": "bin", "csv": "csv"}


def expected_query_passes(strategy: str) -> int:
    """Forward passes of one queried preset iteration under the paper's cost model."""
    if strategy == "random":
        return 0
    chunks = math.ceil(SUBSET / BATCH)
    return TAU * chunks if strategy == "bald" else chunks


def write_config(path: Path, seed: int, strategies=("random",),
                 n_per_class: int = 5000) -> Path:
    path.write_text(PRESET_TEMPLATE.format(seed=seed, n_per_class=n_per_class,
                                           strategies=",".join(strategies)),
                    encoding="utf-8")
    return path


def preset_ops(base: Path, config: Path) -> list[dict]:
    """`conal run` then `conal report` over every cell of the config."""
    run_dir = base / "run"
    return [
        {"kind": "run", "argv": ["run", str(config), "--out", str(run_dir)]},
        {"kind": "report", "argv": ["report", str(run_dir)]},
    ]


def gen_ops(base: Path, config: Path) -> list[dict]:
    return [{"kind": "gen", "format": fmt,
             "argv": ["gen", str(config), "--out", str(base / f"gen-{fmt}"),
                      "--format", fmt]}
            for fmt in ("binary", "csv")]


def score_ops(base: Path, fixture: Path) -> list[dict]:
    ops = []
    for i, (strategy, query, fmt, ckpt) in enumerate(SCORE_CALLS):
        ext = EXT[fmt]
        argv = ["score", str(base / f"gen-{fmt}" / f"{query}.{ext}"),
                "--checkpoint", str(fixture / f"{ckpt}.ckpt"),
                "--strategy", strategy, "--format", fmt,
                "--out", str(base / f"score-{i}-{strategy}-{fmt}.csv")]
        if strategy in NEEDS_LABELED:
            argv += ["--labeled", str(fixture / f"labeled.{ext}")]
        if strategy == "bald":
            argv += ["--tau", str(TAU)]
        ops.append({"kind": "score", "strategy": strategy, "query": query,
                    "format": fmt, "argv": argv})
    return ops
