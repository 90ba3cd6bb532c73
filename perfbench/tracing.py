"""Spans around the calls into each conal module, recorded from outside.

``install`` replaces the names each caller binds (``conal.loop.train``,
``conal.cli.load_features``, ...) with wrappers that record one span per
call: name, start, end, parent span, operation id (the cell or CLI call)
and a few attributes computed from the arguments. Nothing inside ``src/``
records spans. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time its child spans cover.
Hashing done only for the trace (the distinct-input ratios) runs in its own
``trace.hash`` span, so it is charged to the trace layer, not to the caller.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

STRATEGIES = ("featuresim", "fre", "entropy", "bald", "coreset", "random")
CLI_COMMANDS = ("run", "report", "gen", "score")
SCORER_NAMES = ("featuresim_scores", "fre_scores_batch", "score_bald", "score_entropy")
SCORERS = tuple(f"strategies.{name}" for name in SCORER_NAMES)
SELECTORS = ("strategies.select_per_class", "strategies.select_global",
             "strategies.select_kcenter_greedy", "strategies.select_random")
METRIC_FUNCS = ("accuracy", "auroc", "brier", "ece", "mce", "nll", "sampling_bias")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._n_ops = 0
        # forward-pass bookkeeping of the current operation
        self._trained = []       # (state, passes when train() returned)
        self._loaded = []        # states loaded from checkpoints
        self._query_passes = 0   # forward_passes_used summed over the reports
        self.passes = {"train": 0, "query": 0, "rest": 0}
        self.fallback_events = 0

    def _open(self, name, op=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else name
        span = Span(name, parent, op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @property
    def current_op(self) -> str:
        return self.spans[self._stack[-1]].op

    @contextmanager
    def operation(self, kind: str):
        """Root span of one CLI call; its id labels every span below it."""
        self._n_ops += 1
        span = self._open(f"cli.{kind}", op=f"op{self._n_ops}:{kind}")
        try:
            yield span
        finally:
            self._close(span)
            self._settle_passes()

    def _settle_passes(self) -> None:
        train = sum(after for _, after in self._trained)
        total = sum(state.forward_pass_count for state, _ in self._trained)
        loaded = sum(state.forward_pass_count for state in self._loaded)
        # every pass a scoring call makes on a loaded checkpoint is a query pass
        query = self._query_passes + loaded
        self.passes["train"] += train
        self.passes["query"] += query
        self.passes["rest"] += total + loaded - train - query
        self._trained, self._loaded, self._query_passes = [], [], 0

    def wrap(self, owner, attr: str, name: str, attrs=None, op=None, key=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(tracer, args, kwargs, result)`` returns the span's attributes,
        ``op(tracer, args, kwargs)`` opens a new operation id, and
        ``key(args, kwargs, result)`` returns a content hash (or None).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, None if op is None else op(tracer, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(tracer, args, kwargs, result)
            if key is not None:
                hashing = tracer._open("trace.hash")
                try:
                    span.attrs["key"] = key(args, kwargs, result)
                finally:
                    tracer._close(hashing)
            return result

        setattr(owner, attr, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "op": span.op, "attrs": span.attrs}) + "\n")


class _FallbackCounter(logging.Handler):
    """Counts the pooled-fallback warnings of the featuresim and fre scorers."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith(("featuresim:", "fre:")):
            self.tracer.fallback_events += 1


# ---------------------------------------------------------------------------
# attributes
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def _hash(*arrays) -> str:
    h = hashlib.sha256()   # the fastest hashlib digest on CPUs with SHA extensions
    for arr in arrays:
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def _encode_attrs(tracer, args, kwargs, result):
    return {"rows": int(result.shape[0]),
            "masked": _arg(args, kwargs, 2, "hidden_mask") is not None}


def _encode_key(args, kwargs, result):
    if _arg(args, kwargs, 2, "hidden_mask") is not None:
        return None
    state = args[0]
    values = np.asarray(_arg(args, kwargs, 1, "values"), dtype=np.float64)
    return _hash(state.w1, state.b1, state.w2, state.b2, values)


def _stochastic_attrs(tracer, args, kwargs, result):
    return {"rows": int(result.shape[0] * result.shape[1])}


def _train_attrs(tracer, args, kwargs, result):
    tracer._trained.append((result, result.forward_pass_count))
    return {"loss": result.config.loss_kind}


def _supcon_attrs(tracer, args, kwargs, result):
    """Matmul FLOPs of one loss-and-gradient step, from the shapes."""
    cfg = args[0].config
    m = np.shape(args[1])[0]
    d_in, dh, df, dp = cfg.d_in, cfg.d_hidden, cfg.d_feat, cfg.d_proj
    # forward: 4 layer matmuls; backward: 2 per layer (weights and inputs)
    # except the input layer's weight-only gradient; plus the m x m
    # similarity matrix and its gradient
    flops = 2 * m * (2 * d_in * dh + 3 * dh * df + 3 * df * df + 3 * df * dp) + 4 * m * m * dp
    return {"gflop": flops / 1e9}


def _max_dot_attrs(tracer, args, kwargs, result):
    queries, refs = np.shape(args[0]), np.shape(args[1])
    return {"gflop": 2.0 * queries[0] * refs[0] * refs[1] / 1e9}


def _per_class_attrs(tracer, args, kwargs, result):
    picks = len(result.ids)
    return {"candidates": len(args[0]), "picks": picks,
            "quota": picks - result.deficit_fills}


def _candidates_attrs(tracer, args, kwargs, result):
    return {"candidates": len(args[0])}


def _cell_op(tracer, args, kwargs):
    cfg = _arg(args, kwargs, 3, "loop_config")
    return f"{tracer.current_op}/{cfg.strategy}_seed{cfg.seed}"


def _cell_attrs(tracer, args, kwargs, result):
    passes = sum(r.forward_passes_used for r in result.reports)
    tracer._query_passes += passes
    return {"strategy": _arg(args, kwargs, 3, "loop_config").strategy,
            "query_passes": passes}


def _file_attrs(path_index):
    """Format and size of the feature file at argument ``path_index``."""
    def attrs(tracer, args, kwargs, result):
        path = _arg(args, kwargs, path_index, "path")
        return {"format": _arg(args, kwargs, path_index + 1, "format", "binary"),
                "mb": os.path.getsize(path) / 1e6}
    return attrs


def _checkpoint_attrs(tracer, args, kwargs, result):
    tracer._loaded.append(result)
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _shift_key(args, kwargs, result):
    return _hash(result.values)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; call before the first operation."""
    import conal.cli as cli
    import conal.kernels as kernels
    import conal.loop as loop
    import conal.model as model
    import conal.pca as pca

    logging.getLogger("conal.strategies").addHandler(_FallbackCounter(tracer))

    model_wraps = {"encode_values": dict(attrs=_encode_attrs, key=_encode_key),
                   "stochastic_proba": dict(attrs=_stochastic_attrs),
                   "predict_proba_from_features": {}}

    # names conal.cli and conal.loop both bind
    for module in (cli, loop):
        tracer.wrap(module, "fit_class_pca", "pca.fit_class_pca")
        for name, kw in model_wraps.items():
            tracer.wrap(module, name, f"model.{name}", **kw)
        for name in SCORER_NAMES:
            tracer.wrap(module, name, f"strategies.{name}")

    # names only conal.cli binds
    tracer.wrap(cli, "run_active_learning", "loop.run_active_learning",
                attrs=_cell_attrs, op=_cell_op)
    tracer.wrap(cli, "load_features", "io.load_features", attrs=_file_attrs(0))
    tracer.wrap(cli, "save_features", "io.save_features", attrs=_file_attrs(1))
    tracer.wrap(cli, "load_model", "io.load_model", attrs=_checkpoint_attrs)
    tracer.wrap(cli, "generate_mixture", "data.generate_mixture")
    tracer.wrap(cli, "generate_ood", "data.generate_ood")
    tracer.wrap(cli, "read_reports_jsonl", "metrics.read_reports_jsonl")
    tracer.wrap(cli, "write_reports_jsonl", "metrics.write_reports_jsonl")

    # names only conal.loop binds
    tracer.wrap(loop, "train", "model.train", attrs=_train_attrs)
    tracer.wrap(loop, "apply_shift", "data.apply_shift", key=_shift_key)
    tracer.wrap(loop, "select_per_class", "strategies.select_per_class",
                attrs=_per_class_attrs)
    for name in ("select_global", "select_kcenter_greedy", "select_random"):
        tracer.wrap(loop, name, f"strategies.{name}", attrs=_candidates_attrs)
    for name in METRIC_FUNCS:
        tracer.wrap(loop, name, f"metrics.{name}")
    tracer.wrap(loop.PoolState, "check_invariants", "loop.check_invariants")
    tracer.wrap(loop.PoolState, "acquire", "loop.acquire")
    tracer.wrap(loop.Oracle, "label", "loop.oracle_label")

    # calls made inside model, strategies and pca
    tracer.wrap(model, "contrastive_loss_and_grads", "model.contrastive_loss_and_grads",
                attrs=_supcon_attrs)
    tracer.wrap(model, "encode_values", "model.encode_values", **model_wraps["encode_values"])
    tracer.wrap(kernels, "max_dot", "kernels.max_dot", attrs=_max_dot_attrs)
    tracer.wrap(kernels, "kcenter_greedy", "kernels.kcenter_greedy")
    tracer.wrap(pca, "class_covariance_eig", "pca.class_covariance_eig")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def summarize(tracer: Tracer, wall: float) -> dict:
    spans = tracer.spans
    by_name = defaultdict(list)
    covered = [0.0] * len(spans)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            covered[span.parent] += span.duration
    self_time = [span.duration - covered[i] for i, span in enumerate(spans)]

    def total(names, **match):
        names = (names,) if isinstance(names, str) else names
        return sum(s.duration for n in names for s in by_name[n]
                   if all(s.attrs.get(k) == v for k, v in match.items()))

    def attr_sum(names, attr):
        names = (names,) if isinstance(names, str) else names
        return sum(s.attrs.get(attr, 0) for n in names for s in by_name[n])

    def self_sum(name):
        return sum(self_time[i] for i, s in enumerate(spans) if s.name == name)

    def median_ms(name):
        durations = [s.duration for s in by_name[name]]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    # spans of calls that raised carry no attributes and are left out here
    encodes = [s for s in by_name["model.encode_values"] if s.attrs.get("masked") is False]
    shifts = [s for s in by_name["data.apply_shift"] if "key" in s.attrs]
    m = {
        "model.train_s.contrastive": total("model.train", loss="contrastive"),
        "model.train_s.cross_entropy": total("model.train", loss="cross_entropy"),
        "model.supcon_steps": len(by_name["model.contrastive_loss_and_grads"]),
        "model.supcon_step_ms": median_ms("model.contrastive_loss_and_grads"),
        "model.supcon_gflop": attr_sum("model.contrastive_loss_and_grads", "gflop"),
        "model.stochastic_s": total("model.stochastic_proba"),
        "model.stochastic_rows": attr_sum("model.stochastic_proba", "rows"),
        "model.encode_s": sum(s.duration for s in encodes),
        "model.encode_rows": sum(s.attrs["rows"] for s in encodes),
        "model.encode_unique_ratio": ratio(len({s.attrs["key"] for s in encodes}),
                                           len(encodes)),
        "passes.train": tracer.passes["train"],
        "passes.query": tracer.passes["query"],
        "passes.rest": tracer.passes["rest"],
    }
    for strategy in STRATEGIES:
        m[f"loop.cell_s.{strategy}"] = total("loop.run_active_learning", strategy=strategy)
    per_class_picks = attr_sum("strategies.select_per_class", "picks")
    m.update({
        "loop.self_s": self_sum("loop.run_active_learning"),
        "loop.invariants_s": total("loop.check_invariants"),
        "loop.acquire_s": total("loop.acquire"),
        "loop.oracle_s": total("loop.oracle_label"),
        "strategies.score_s": total(SCORERS),
        "strategies.select_s": total(SELECTORS),
        "strategies.candidates": attr_sum(SELECTORS, "candidates"),
        "strategies.quota_ratio": ratio(attr_sum("strategies.select_per_class", "quota"),
                                        per_class_picks),
        "strategies.fallback_events": tracer.fallback_events,
        "kernels.max_dot_s": total("kernels.max_dot"),
        "kernels.max_dot_gflop": attr_sum("kernels.max_dot", "gflop"),
        "kernels.kcenter_s": total("kernels.kcenter_greedy"),
        "pca.fit_s": total("pca.fit_class_pca"),
        "pca.eig_ms": median_ms("pca.class_covariance_eig"),
        "metrics.s": total([f"metrics.{n}" for n in METRIC_FUNCS]
                           + ["metrics.read_reports_jsonl", "metrics.write_reports_jsonl"]),
        "metrics.auroc_s": total("metrics.auroc"),
        "data.generate_s": total(("data.generate_mixture", "data.generate_ood")),
        "data.shift_s": total("data.apply_shift"),
        "data.shift_unique_ratio": ratio(len({s.attrs["key"] for s in shifts}), len(shifts)),
        "io.save_s.binary": total("io.save_features", format="binary"),
        "io.save_s.csv": total("io.save_features", format="csv"),
        "io.written_mb": attr_sum("io.save_features", "mb"),
        "io.load_s.binary": total("io.load_features", format="binary"),
        "io.load_s.csv": total("io.load_features", format="csv"),
        "io.checkpoint_s": total("io.load_model"),
        "io.read_mb": attr_sum(("io.load_features", "io.load_model"), "mb"),
    })
    for command in CLI_COMMANDS:
        m[f"cli.self_s.{command}"] = self_sum(f"cli.{command}")
    accounted = sum(self_time)
    m["trace.wall_s"] = wall
    m["trace.accounted_share"] = ratio(accounted, wall)

    layers = defaultdict(float)
    for span, own in zip(spans, self_time):
        layers[span.name.split(".", 1)[0]] += own
    return {"metrics": m,
            "layers_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
            "cells": _cell_breakdown(spans, self_time)}


def _cell_breakdown(spans, self_time) -> dict:
    """Per cell: inclusive seconds of each direct child name, plus loop self time."""
    cells = {}
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    for i, span in enumerate(spans):
        if span.name != "loop.run_active_learning":
            continue
        parts = defaultdict(float)
        for child in children[i]:
            parts[child.name] += child.duration
        parts["loop.self"] = self_time[i]
        cells[span.op] = {"wall_s": span.duration,
                          "share": {k: v / span.duration for k, v in
                                    sorted(parts.items(), key=lambda kv: -kv[1])}}
    return cells
