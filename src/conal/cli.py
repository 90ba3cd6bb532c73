"""Command-line front end.

Subcommands:
    gen     write synthetic train/test/OOD feature files
    run     execute every (strategy x seed) cell of an experiment config
    report  summarize a finished run directory into plot-ready CSV
    score   one-shot scoring of a feature file against a checkpoint

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, build_experiment, echo_config,
                     load_config_file)
from .data import (DEFAULT_SHIFT_MAGNITUDES, balanced_test_spec, full_shift_suite,
                   generate_mixture, generate_ood)
from .errors import ConalError, ConfigError, DataError
from .io import load_features, replacing, save_features, save_scores
from .loop import LoopConfig, run_cells, scorer_input, scoring_context
from .metrics import MCE_NORMALIZATION
# names imported but not called here stay bound for perfbench/tracing.py to wrap
from .loop import run_active_learning
from .metrics import read_reports_jsonl, write_reports_jsonl
from .model import encode_values, load_model, predict_proba_from_features, stochastic_proba
from .pca import fit_class_pca
from .report import (CURVES_TABLE, REPORT_DIR, cell_name, curves_table, read_cells,
                     remove_tables, report_tables, write_cell, write_table)
from .strategies import (VALID_STRATEGIES, featuresim_scores, fre_scores_batch,
                         get_strategy, score_bald, score_entropy)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conal",
                                     description="Active learning experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic feature files")
    p_gen.add_argument("config", help="experiment config file")
    p_gen.add_argument("--out", help="output directory (overrides run.out)")
    p_gen.add_argument("--format", choices=("binary", "csv"), default="binary")

    p_run = sub.add_parser("run", help="run every (strategy x seed) cell")
    p_run.add_argument("config", help="experiment config file (or a run manifest)")
    p_run.add_argument("--out", help="output directory (overrides run.out)")
    p_run.add_argument("--strategy", help="run only this strategy")
    p_run.add_argument("--seed", type=int, help="run only this seed")

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir", help="directory produced by 'conal run'")

    p_sc = sub.add_parser("score", help="score a feature file against a checkpoint")
    p_sc.add_argument("features", help="feature file to score")
    p_sc.add_argument("--checkpoint", required=True, help="model checkpoint (MODL1)")
    p_sc.add_argument("--strategy", required=True, help="scoring strategy")
    p_sc.add_argument("--labeled", help="labeled feature file (featuresim/fre/coreset)")
    p_sc.add_argument("--format", choices=("binary", "csv"), default="binary")
    p_sc.add_argument("--tau", type=int, default=LoopConfig.tau, help="stochastic passes for bald")
    p_sc.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        {"gen": cmd_gen, "run": cmd_run, "report": cmd_report,
         "score": cmd_score}[args.command](args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # runtime failure bucket
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _load_experiment(args) -> ExperimentConfig:
    config = build_experiment(load_config_file(args.config))
    if getattr(args, "out", None):
        config.out = args.out
    if getattr(args, "strategy", None):
        get_strategy(args.strategy)
        config.strategies = [args.strategy]
    if getattr(args, "seed", None) is not None:
        config.seeds = [args.seed]
    return config


def _materialize_data(config: ExperimentConfig):
    if config.source == "synthetic":
        ds = config.dataset
        train = generate_mixture(ds, id_prefix="tr-")
        test = generate_mixture(balanced_test_spec(ds, config.test_n_per_class),
                                id_prefix="te-")
        ood = generate_ood(ds, config.ood_n, ds.seed + 2) if config.ood_n else None
    else:
        train, test = (load_features(path, config.file_format)
                       for path in (config.train_path, config.test_path))
        ood = load_features(config.ood_path, config.file_format) if config.ood_path else None
        for path, data in ((config.train_path, train), (config.test_path, test),
                           (config.ood_path, ood)):
            if data is not None and data.n == 0:
                raise DataError(f"{path}: the feature file has no rows")
        if train.labels is None or test.labels is None:
            raise DataError("train and test feature files must be labeled")
        for name, other in (("test", test), ("OOD", ood)):
            if other is not None and other.d != train.d:
                raise DataError(f"the {name} file has {other.d} features per row, "
                                f"the train file {train.d}")
        k = config.model.n_classes
        for name, labeled in (("train", train), ("test", test)):
            if labeled.labels.max(initial=0) >= k:
                raise DataError(f"{name} labels must lie in [0, {k}) for data.k = {k}")
    return train, test, ood


def _meta(config: ExperimentConfig) -> dict:
    return {
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "shift_magnitudes": json.dumps(
            {k: DEFAULT_SHIFT_MAGNITUDES[k] for k in config.shift_kinds}),
        "mce_normalization": MCE_NORMALIZATION,
    }


def cmd_gen(args) -> None:
    config = _load_experiment(args)
    if config.source != "synthetic":
        raise ConfigError("gen requires data.source = synthetic")
    train, test, ood = _materialize_data(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = "bin" if args.format == "binary" else "csv"
    for name, data in (("train", train), ("test", test), ("ood", ood)):
        if data is not None:
            save_features(data, out / f"{name}.{ext}", args.format)
    print(f"wrote train/test/ood feature files to {out}")


def cmd_run(args) -> None:
    config = _load_experiment(args)
    train, test, ood = _materialize_data(config)
    shifts = full_shift_suite(config.shift_kinds, config.shift_intensities)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / "manifest.cfg", "w", encoding="utf-8") as fh:
        fh.write(echo_config(config, _meta(config)))
    remove_tables(out)

    cells = [replace(config.loop, strategy=strategy, seed=seed)
             for strategy in config.strategies for seed in config.seeds]
    names = [cell_name(cell.strategy, cell.seed) for cell in cells]
    outcomes = run_cells(train, test, config.model, cells, ood=ood, shifts=shifts)
    for cell, name, result in zip(cells, names, outcomes):
        meta = dict(_meta(config), strategy=cell.strategy, seed=cell.seed)
        write_cell(out / name, echo_config(config, meta), result)
        if not isinstance(result, BaseException):
            print(f"finished {cell.strategy} seed {cell.seed}: "
                  f"final accuracy {result.reports[-1].accuracy:.4f}")
    failures = [result for result in outcomes if isinstance(result, BaseException)]
    if failures:
        raise failures[0]
    write_table(curves_table(read_cells(out, names)), out / CURVES_TABLE)
    print(f"run complete: {out}")


def cmd_report(args) -> None:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataError(f"run directory not found: {run_dir}")
    cells = read_cells(run_dir)
    if not cells:
        raise DataError(f"no run cells with report.jsonl under {run_dir}")
    report_dir = run_dir / REPORT_DIR
    report_dir.mkdir(exist_ok=True)
    for name, rows in report_tables(cells).items():
        write_table(rows, report_dir / name)
    print(f"wrote summary tables to {report_dir}")


def cmd_score(args) -> None:
    info = get_strategy(args.strategy)
    if info.selector == "random":
        raise ConfigError("random has no scoring function; scoreable strategies: "
                          + ", ".join(n for n in VALID_STRATEGIES if n != "random"))
    if args.tau < 2:
        raise ConfigError(f"--tau must be >= 2, got {args.tau}")
    if info.needs_labeled and not args.labeled:
        raise ConfigError(f"strategy {info.name} requires --labeled")
    if args.labeled and not info.needs_labeled:
        raise ConfigError(f"strategy {info.name} does not read --labeled")
    state = load_model(args.checkpoint)
    d_in = state.config.d_in
    queries = _load_scored(args.features, args.format, d_in)
    labeled = _load_scored(args.labeled, args.format, d_in) if info.needs_labeled else None
    try:
        ctx = scoring_context(info, state, labeled, tau=args.tau)
    except DataError as exc:
        raise DataError(f"{args.labeled}: {exc}") from None
    ids, x = queries.ids, scorer_input(info, state, queries.values)
    del queries  # only x, the features (bald: the values), is held while scoring
    scores, predicted = info.score(state, x, ctx)
    del x  # nor is it held while the scores are written
    save_scores(args.out, ids, predicted, scores)
    print(f"wrote {len(ids)} scores to {args.out}")


def _load_scored(path, file_format, d_in: int):
    """A feature file to score: a DataError unless its rows are the checkpoint's d_in wide."""
    features = load_features(path, file_format)
    if features.d != d_in:
        raise DataError(f"{path}: {features.d} features per row, the checkpoint takes {d_in}")
    return features


if __name__ == "__main__":
    sys.exit(main())
