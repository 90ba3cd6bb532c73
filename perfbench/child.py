"""Child-process entry points; run.py starts each one in a fresh interpreter
with the checkout's ``src`` on PYTHONPATH.

    cli TIMING ARG...       conal.cli.main([ARG...]); its wall time -> TIMING (JSON)
    setup-preset CONFIG     import conal, parse CONFIG, generate pool, test and OOD sets
    setup-files CHECKPOINT  import conal, load the checkpoint
    fixture TRAIN OUT SEED  write the scoring fixtures (labeled files, checkpoints)
    trace PLAN OUT          run PLAN's CLI operations in-process with tracing on
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path


def cli(timing_path: str, *argv: str) -> int:
    from conal.cli import main

    start = time.perf_counter()
    rc = main(list(argv))
    wall = time.perf_counter() - start
    Path(timing_path).write_text(json.dumps({"rc": rc, "wall_s": wall}), encoding="utf-8")
    return rc


def setup_preset(config_path: str) -> int:
    import conal.cli  # noqa: F401  (the import a CLI user pays)
    from conal import balanced_test_spec, generate_mixture, generate_ood
    from conal.config import build_experiment, load_config_file

    config = build_experiment(load_config_file(config_path))
    spec = config.dataset
    generate_mixture(spec, id_prefix="tr-")
    generate_mixture(balanced_test_spec(spec, config.test_n_per_class), id_prefix="te-")
    generate_ood(spec, config.ood_n, spec.seed + 2)
    return 0


def setup_files(checkpoint: str) -> int:
    import conal.cli  # noqa: F401
    from conal import load_model

    load_model(checkpoint)
    return 0


def fixture(train_path: str, out: str, seed: str) -> int:
    """Labeled subset of the train file plus one checkpoint per training loss,
    built with the public training API from the preset's model settings."""
    import numpy as np

    from conal import init_model, load_features, save_features, save_model, train
    from conal.config import build_experiment, parse_config_text
    from conal.seeding import rng_for
    from workloads import FIXTURE_LABELED_ROWS, PRESET_TEMPLATE

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(seed)
    pool = load_features(train_path)
    rows = np.sort(rng_for(seed, "perfbench-labeled").choice(
        pool.n, size=FIXTURE_LABELED_ROWS, replace=False))
    labeled = pool.take(rows)
    save_features(labeled, out_dir / "labeled.bin", "binary")
    save_features(labeled, out_dir / "labeled.csv", "csv")
    config_text = PRESET_TEMPLATE.format(seed=seed, n_per_class=5000, strategies="random")
    model_config = build_experiment(parse_config_text(config_text)).model
    for loss_kind in ("contrastive", "cross_entropy"):
        state = train(init_model(replace(model_config, loss_kind=loss_kind, seed=seed)),
                      labeled)
        save_model(state, out_dir / f"{loss_kind}.ckpt")
    return 0


def trace(plan_path: str, out: str) -> int:
    import tracing

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from conal.cli import main

    results = []
    start = time.perf_counter()
    for op in plan["ops"]:
        with tracer.operation(op["kind"]) as span:
            rc = main(op["argv"])
        results.append({"rc": rc, "wall_s": span.duration})
    wall = time.perf_counter() - start
    out_dir = Path(out)
    tracer.write_spans(out_dir / "spans.jsonl")
    summary = tracing.summarize(tracer, wall)
    summary["ops"] = results
    (out_dir / "trace.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


COMMANDS = {"cli": cli, "setup-preset": setup_preset, "setup-files": setup_files,
            "fixture": fixture, "trace": trace}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
