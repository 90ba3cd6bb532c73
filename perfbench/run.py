"""Benchmark of the conal CLI. Run it from the root of a checkout:

    python3 perfbench/run.py --workload preset-contrastive --seed 0 --seconds 10 --trace 0

One client drives the CLI in a closed loop: each operation starts in a fresh
interpreter only after the previous one has ended. The workload is repeated
until its CLI calls have taken ``--seconds`` in total (at least once), and
every metric is the median over the repeats. ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the workload once
untraced and once traced in-process (perfbench/tracing.py) and prints the
per-layer metrics. The last line of stdout is the JSON result. Scratch files
live under ``.perfbench_work/`` and are removed at exit, except the digest
ledger and the results record.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl
from checks import (check_features, check_report, check_report_tables, check_scores,
                    digest, read_report, report_digest_lines)

HERE = Path(__file__).resolve().parent
SETUP_PROBES_PER_PASS = 5
MAX_REPEATS = 20
CHILD_TIMEOUT_S = 120   # one hung child still leaves the run inside 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LIMITS = ("wall times on a machine that other jobs may share; the page cache is "
          "never dropped, so io numbers are page-cache numbers; no machine-level "
          "tracing, only spans around the calls into conal's modules")


class Children:
    """Starts perfbench/child.py in fresh interpreters, one at a time."""

    def __init__(self, root: Path, logs: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.logs = logs
        self.count = 0

    def run(self, *args) -> dict:
        """Run one child to its end; wall time, exit code and peak RSS."""
        self.count += 1
        log_path = self.logs / f"{self.count:03d}-{args[0]}.log"
        cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0, "log": str(log_path)}

    def cli(self, op: dict) -> dict:
        """One CLI call; ``wall_s`` is the time spent in conal.cli.main."""
        timing = self.logs / f"timing-{self.count + 1:03d}.json"
        result = self.run("cli", timing, *op["argv"])
        if timing.is_file():
            result["wall_s"] = json.loads(timing.read_text(encoding="utf-8"))["wall_s"]
        return result


class Outcome:
    """Checked outputs of one pass over a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.parts: list[tuple[str, bytes]] = []   # digest inputs
        self.passes: dict[str, list[int]] = {}
        self.accuracies: list[float] = []

    def op(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    @property
    def digest(self) -> str:
        return digest(self.parts)


def _exit_errors(result: dict, what: str) -> list[str]:
    if result["rc"] == 0:
        return []
    return [f"{what} exited {result['rc']} (log {result.get('log', '-')})"]


def check_preset(base: Path, seed: int, strategies, results: list[dict]) -> Outcome:
    """A cell is an operation, and so is `conal report`."""
    out = Outcome()
    run_errors = _exit_errors(results[0], "conal run")
    for strategy in strategies:
        path = base / "run" / f"{strategy}_seed{seed}" / "report.jsonl"
        if run_errors or not path.is_file():
            out.op(run_errors or [f"{strategy}: no report.jsonl"])
            continue
        rows = read_report(path)
        out.op(check_report(rows, strategy))
        if rows:
            out.accuracies.append(rows[-1]["accuracy"])
        out.passes[strategy] = [row.get("forward_passes_used") for row in rows]
        out.parts.append((f"{strategy}/report.jsonl",
                          "\n".join(report_digest_lines(rows)).encode("utf-8")))
    out.op(_exit_errors(results[1], "conal report")
           or check_report_tables(base / "run", strategies))
    return out


def check_files(base: Path, ops: list[dict], results: list[dict]) -> Outcome:
    """Every `conal gen` and `conal score` call is an operation."""
    out = Outcome()
    ids, labels = {}, {}
    for op, result in zip(ops, results):
        if op["kind"] == "gen":
            errors = _exit_errors(result, "conal gen")
            fmt, ext = op["format"], wl.EXT[op["format"]]
            for name, n in wl.FILES_ROWS.items():
                path = base / f"gen-{fmt}" / f"{name}.{ext}"
                if errors or not path.is_file():
                    errors = errors or [f"{path.name} missing"]
                    break
                file_errors, ids[fmt, name], file_labels = check_features(
                    path, fmt, n, name != "ood")
                labels.setdefault(name, file_labels)
                errors += file_errors
                out.parts.append((f"gen-{fmt}/{path.name}", path.read_bytes()))
            if not errors and fmt == "csv" and ids["csv", "train"] != ids["binary", "train"]:
                errors.append("train.csv and train.bin hold different ids")
            out.op(errors)
            continue
        path = Path(op["argv"][op["argv"].index("--out") + 1])
        expected = ids.get((op["format"], op["query"]))
        errors = _exit_errors(result, f"conal score {op['strategy']}")
        if not errors and expected is None:
            errors = [f"no reference ids for {path.name}"]
        classes = None
        if not errors:
            errors, classes = check_scores(path, expected)
        out.op(errors)
        if not errors:
            out.parts.append((path.name, path.read_bytes()))
            out.accuracies.append(float((classes == labels[op["query"]]).mean()))
    return out


class Workload:
    """Plans, runs and checks one workload under one seed."""

    def __init__(self, name: str, seed: int, work: Path, children: Children):
        self.name, self.seed, self.work, self.children = name, seed, work, children
        self.preset = name in wl.PRESET_STRATEGIES
        self.strategies = wl.PRESET_STRATEGIES.get(name, ())
        n_per_class = 5000 if self.preset else wl.FILES_N_PER_CLASS
        self.config = wl.write_config(work / "experiment.cfg", seed, self.strategies or
                                      ("random",), n_per_class)
        self.fixture = work / "fixture"

    def plan(self, base: Path) -> list[dict]:
        if self.preset:
            return wl.preset_ops(base, self.config)
        return wl.gen_ops(base, self.config) + wl.score_ops(base, self.fixture)

    def check(self, base: Path, ops, results) -> Outcome:
        if self.preset:
            return check_preset(base, self.seed, self.strategies, results)
        return check_files(base, ops, results)

    def run_untraced(self, base: Path) -> tuple[list[dict], list[dict]]:
        ops = self.plan(base)
        results = []
        for op in ops:
            if op["kind"] == "score" and not self.fixture.exists():
                # scoring inputs; built from the first binary train file, untimed
                fixture = self.children.run("fixture", base / "gen-binary" / "train.bin",
                                            self.fixture, self.seed)
                if fixture["rc"] != 0:
                    raise RuntimeError(f"fixture build failed (log {fixture['log']})")
            results.append(self.children.cli(op))
        return ops, results

    def setup_probes(self) -> list[float]:
        """Walls of fresh interpreters that import conal and build the inputs."""
        if self.preset:
            args = ("setup-preset", self.config)
        else:
            args = ("setup-files", self.fixture / "contrastive.ckpt")
        walls = []
        for _ in range(SETUP_PROBES_PER_PASS):
            result = self.children.run(*args)
            if result["rc"] != 0:
                raise RuntimeError(f"setup probe failed (log {result['log']})")
            walls.append(result["wall_s"])
        return walls

    def timed_metrics(self, ops, results) -> dict:
        walls = [r["wall_s"] for r in results]
        metrics = {"wall_s": sum(walls),
                   "peak_rss_mb": max(r["rss_mb"] for r in results)}
        if self.preset:
            metrics["sweep_s"] = sum(walls)
        else:
            gen = [w for op, w in zip(ops, walls) if op["kind"] == "gen"]
            score = [(op, w) for op, w in zip(ops, walls) if op["kind"] == "score"]
            rows = sum(wl.FILES_ROWS[op["query"]] for op, _ in score)
            metrics["gen_s"] = sum(gen)
            metrics["score_rows_per_s"] = rows / sum(w for _, w in score)
        return metrics


def source_digest(root: Path) -> str:
    files = sorted((root / "src").rglob("*.py"))
    return digest([(str(p.relative_to(root)), p.read_bytes()) for p in files])


def environment(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_VARS if v in os.environ},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "limits": LIMITS,
    }


def check_ledger(path: Path, key: str, record: dict) -> list[str]:
    """Digest and pass counts must repeat across runs of one seed and source."""
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    previous = ledger.setdefault(key, record)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    if previous != record:
        return [f"outputs differ from an earlier run with the same seed and source: "
                f"{previous} != {record}"]
    return []


def run(args, root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    state_dir = root / ".perfbench_work"
    work = state_dir / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    env = environment(root)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    children = Children(root, work / "logs")
    workload = Workload(args.workload, args.seed, work, children)

    repeats, outcomes, setup_walls = [], [], []
    # measured time is the time spent in the CLI calls, not in checks and probes
    while not repeats or (not args.trace and sum(r["wall_s"] for r in repeats) < args.seconds
                          and len(repeats) < MAX_REPEATS):
        base = work / f"rep{len(repeats)}"
        ops, results = workload.run_untraced(base)
        repeats.append(workload.timed_metrics(ops, results))
        outcomes.append(workload.check(base, ops, results))
        if not args.trace:
            shutil.rmtree(base)
            # probes after every pass sample the machine at several moments
            setup_walls += workload.setup_probes()
    problems = [e for o in outcomes for e in o.errors]
    digests = sorted({o.digest for o in outcomes})
    if len(digests) > 1:
        problems.append(f"digests differ between repeats: {digests}")

    metrics, traced = {}, None
    if args.trace:
        base = work / "traced"
        base.mkdir()
        ops = workload.plan(base)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({"ops": ops}), encoding="utf-8")
        result = children.run("trace", plan_path, base)
        if result["rc"] != 0:
            raise RuntimeError(f"traced run failed (log {result['log']})")
        traced = json.loads((base / "trace.json").read_text(encoding="utf-8"))
        for op_result in traced["ops"]:
            op_result["log"] = result["log"]
        outcome = workload.check(base, ops, traced["ops"])
        outcomes.append(outcome)
        problems += outcome.errors
        if outcome.digest != outcomes[0].digest:
            problems.append("traced outputs differ from untraced outputs")
        if outcome.passes != outcomes[0].passes:
            problems.append("traced pass counts differ from untraced pass counts")
        untraced_wall = repeats[0]["wall_s"]
        traced_wall = sum(op["wall_s"] for op in traced["ops"])
        metrics = dict(traced["metrics"])
        metrics["trace_overhead"] = traced_wall / untraced_wall - 1.0
    else:
        for name in repeats[0]:
            metrics[name] = statistics.median(r[name] for r in repeats)
        metrics["setup_s"] = statistics.median(setup_walls)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    accuracies = outcomes[0].accuracies
    metrics["final_acc"] = statistics.fmean(accuracies) if accuracies else 0.0
    metrics["ok_ops"] = (attempted - failed) / attempted
    metrics["failed_ops"] = failed
    record = {"digest": outcomes[0].digest, "passes": outcomes[0].passes}
    problems += check_ledger(state_dir / "ledger.json",
                             f"{args.workload}:{args.seed}:{env['source_sha256']}", record)

    print(f"repeats {len(repeats)}; operations attempted {attempted}, failed {failed}")
    for strategy, passes in outcomes[0].passes.items():
        print(f"query passes per iteration, {strategy}: {passes}")
    for i, o in enumerate(outcomes):
        label = "traced" if traced is not None and i == len(outcomes) - 1 else f"repeat {i}"
        print(f"output digest ({label}): {o.digest}")
    if traced is not None:
        print("self seconds by layer: " + json.dumps(traced["layers_self_s"]))
        for cell, parts in traced["cells"].items():
            top = {k: round(v, 3) for k, v in list(parts["share"].items())[:6]}
            print(f"cell {cell}: {parts['wall_s']:.2f} s, shares {top}")
    for name in ("sweep_s", "gen_s", "score_rows_per_s"):
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in spec[section]}
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    results_dir = state_dir / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": env, "repeats": repeats, "setup_walls": setup_walls,
                    "metrics": metrics,
                    "digests": [o.digest for o in outcomes], "passes": record["passes"],
                    "problems": problems}, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "conal" / "__init__.py").is_file():
        print(f"no conal source tree under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
