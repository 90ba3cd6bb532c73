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
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, build_experiment, echo_config,
                     load_config_file)
from .data import (DEFAULT_SHIFT_MAGNITUDES, ShiftSpec, balanced_test_spec,
                   generate_mixture, generate_ood)
from .errors import ConalError, ConfigError, DataError
from .io import load_features, save_features
from .loop import run_active_learning, scoring_context
from .metrics import CURVE_METRICS, read_reports_jsonl, write_reports_jsonl
# names imported but not called here stay bound for perfbench/tracing.py to wrap
from .model import encode_values, load_model, predict_proba_from_features, stochastic_proba
from .pca import fit_class_pca
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
    p_gen.add_argument("--seed", type=int, help="override data.seed")

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
    p_sc.add_argument("--tau", type=int, default=50, help="stochastic passes for bald")
    p_sc.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            cmd_gen(args)
        elif args.command == "run":
            cmd_run(args)
        elif args.command == "report":
            cmd_report(args)
        elif args.command == "score":
            cmd_score(args)
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
    if getattr(args, "seed", None) is not None and args.command == "run":
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
        train = load_features(config.train_path, config.file_format)
        test = load_features(config.test_path, config.file_format)
        ood = (load_features(config.ood_path, config.file_format)
               if config.ood_path else None)
        if train.labels is None or test.labels is None:
            raise DataError("train and test feature files must be labeled")
    return train, test, ood


def _meta(config: ExperimentConfig) -> dict:
    return {
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "shift_magnitudes": json.dumps(
            {k: DEFAULT_SHIFT_MAGNITUDES[k] for k in config.shift_kinds}),
        "mce_normalization": "none",
    }


def cmd_gen(args) -> None:
    config = _load_experiment(args)
    if config.source != "synthetic":
        raise ConfigError("gen requires data.source = synthetic")
    if args.seed is not None:
        config.dataset = replace(config.dataset, seed=args.seed)
    train, test, ood = _materialize_data(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = "bin" if args.format == "binary" else "csv"
    save_features(train, out / f"train.{ext}", args.format)
    save_features(test, out / f"test.{ext}", args.format)
    if ood is not None:
        save_features(ood, out / f"ood.{ext}", args.format)
    print(f"wrote train/test/ood feature files to {out}")


def cmd_run(args) -> None:
    config = _load_experiment(args)
    train, test, ood = _materialize_data(config)
    if config.loop.subset_size > train.n:
        raise ConfigError(
            f"loop.subset_size ({config.loop.subset_size}) exceeds the pool size ({train.n})"
        )
    shifts = [ShiftSpec(kind, level) for kind in config.shift_kinds
              for level in config.shift_intensities]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.cfg").write_text(echo_config(config, _meta(config)),
                                      encoding="utf-8")

    rows = []  # (strategy, seed, iteration, metric, value)
    for strategy in config.strategies:
        for seed in config.seeds:
            cell_dir = out / f"{strategy}_seed{seed}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            cell_config = replace(config.loop, strategy=strategy, seed=seed)
            cell_meta = _meta(config)
            cell_meta.update({"strategy": strategy, "seed": seed})
            (cell_dir / "manifest.cfg").write_text(
                echo_config(config, cell_meta), encoding="utf-8")
            try:
                result = run_active_learning(train, test, config.model, cell_config,
                                             ood=ood, shifts=shifts)
            except Exception as exc:
                (cell_dir / "FAILED.txt").write_text(f"{type(exc).__name__}: {exc}\n",
                                                     encoding="utf-8")
                raise
            write_reports_jsonl(result.reports, cell_dir / "report.jsonl")
            for report in result.reports:
                as_dict = report.to_dict()
                for metric in CURVE_METRICS:
                    value = as_dict[metric]
                    if value is not None:
                        rows.append((strategy, seed, report.iteration, metric, value))
            print(f"finished {strategy} seed {seed}: "
                  f"final accuracy {result.reports[-1].accuracy:.4f}")
    _write_curves(rows, out / "curves.csv")
    print(f"run complete: {out}")


def _write_curves(rows, path) -> None:
    """Long-format curves: one row per (run, iteration, metric), with the
    per-(strategy, iteration, metric) mean and std across seeds attached."""
    stats: dict[tuple, list[float]] = {}
    for strategy, seed, iteration, metric, value in rows:
        stats.setdefault((strategy, iteration, metric), []).append(value)
    aggregated = {
        key: (float(np.mean(vals)),
              float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)
        for key, vals in stats.items()
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["strategy", "seed", "iteration", "metric", "value",
                         "mean", "std"])
        for strategy, seed, iteration, metric, value in rows:
            mean, std = aggregated[(strategy, iteration, metric)]
            writer.writerow([strategy, seed, iteration, metric,
                             repr(value), repr(mean), repr(std)])


def cmd_report(args) -> None:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataError(f"run directory not found: {run_dir}")
    cells = sorted(p for p in run_dir.iterdir()
                   if p.is_dir() and (p / "report.jsonl").exists())
    if not cells:
        raise DataError(f"no run cells with report.jsonl under {run_dir}")

    per_cell = {}
    for cell in cells:
        strategy, _, seed = cell.name.rpartition("_seed")
        per_cell[(strategy, int(seed))] = read_reports_jsonl(cell / "report.jsonl")

    strategies = sorted({key[0] for key in per_cell})
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    final_metrics = ("accuracy", "auroc_ood", "mce", "ece", "sampling_bias")
    with open(report_dir / "summary_final.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["strategy"] + [f"{m}_{s}" for m in final_metrics
                                        for s in ("mean", "std")])
        for strategy in strategies:
            finals = [reports[-1] for (name, _), reports in per_cell.items()
                      if name == strategy]
            row = [strategy]
            for metric in final_metrics:
                values = [r[metric] for r in finals if r[metric] is not None]
                if values:
                    mean = float(np.mean(values))
                    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                    row += [repr(mean), repr(std)]
                else:
                    row += ["", ""]
            writer.writerow(row)

    iterations = sorted({r["iteration"] for reports in per_cell.values() for r in reports})
    for metric in CURVE_METRICS:
        with open(report_dir / f"curve_{metric}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = ["iteration"]
            for strategy in strategies:
                header += [f"{strategy}_mean", f"{strategy}_std"]
            writer.writerow(header)
            for iteration in iterations:
                row = [iteration]
                for strategy in strategies:
                    values = [
                        r[metric]
                        for (name, _), reports in per_cell.items() if name == strategy
                        for r in reports
                        if r["iteration"] == iteration and r[metric] is not None
                    ]
                    if values:
                        mean = float(np.mean(values))
                        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                        row += [repr(mean), repr(std)]
                    else:
                        row += ["", ""]
                writer.writerow(row)
    print(f"wrote summary tables to {report_dir}")


def cmd_score(args) -> None:
    info = get_strategy(args.strategy)
    if info.selector == "random":
        raise ConfigError(
            "random has no scoring function; "
            f"scoreable strategies: {', '.join(n for n in VALID_STRATEGIES if n != 'random')}"
        )
    state = load_model(args.checkpoint)
    queries = load_features(args.features, args.format)

    labeled_feats = labeled_labels = None
    if info.needs_labeled:
        if not args.labeled:
            raise ConfigError(f"strategy {info.name} requires --labeled")
        labeled = load_features(args.labeled, args.format)
        if labeled.labels is None:
            raise DataError("--labeled feature file must carry labels")
        labeled_feats = encode_values(state, labeled.values.astype(np.float64))
        labeled_labels = labeled.labels

    ctx = scoring_context(info, labeled_feats, labeled_labels, tau=args.tau)
    scores, predicted = info.score(state, queries.values, ctx)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "predicted_class", "score"])
        for sid, cls, score in zip(queries.ids, predicted, scores):
            writer.writerow([sid, int(cls), repr(float(score))])
    print(f"wrote {len(queries.ids)} scores to {args.out}")


if __name__ == "__main__":
    sys.exit(main())
