"""Command-line entry points: train, baseline, eval, report, sweep.

Every run writes one directory: metrics.csv (tidy per-metric rows),
adapt.jsonl (one add/remove event per line), config.snapshot (the
normalized configuration) and checkpoint.final (the model). ``report``
aggregates any number of such directories into figure-ready CSV/JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import ConfigError, RunSpec, load_config, parse_config_doc, read_config
from .harness import (
    CheckpointError,
    RunResult,
    evaluate,
    gen_task,
    load_model,
    log_eval,
    run_baseline,
    save_model,
    similarity_snapshot,
    split_task,
    train_loop,
)
from .telemetry import MetricsLog, write_schema_csv

ADAPT_JSONL_SCHEMA = "dynmoe-adapt/1"
ARTIFACTS_SCHEMA = "dynmoe-artifacts/1"
REPORT_SCHEMA = "dynmoe-report/1"

# flag destination -> (section, key) of the config document it sets
FLAG_KEYS = {
    "seed": ("train", "seed"),
    "aux_weight": ("train", "aux_loss_weight"),
    "max_experts": ("adapt", "max_experts"),
    "check_interval": ("adapt", "check_interval"),
    "router": ("router", "kind"),
    "K": ("router", "n_experts"),
    "k": ("router", "top_k"),
}

# the files of a run directory, as write_run_dir writes them
RUN_FILES = ("metrics.csv", "adapt.jsonl", "config.snapshot", "checkpoint.final", "artifacts.json")

# metric of metrics.csv -> (its report table, the table's value columns);
# a metric with an ``expert`` column gets one line per expert
REPORT_TABLES = {
    "avg_top_k": ("avg_top_k_per_layer.csv", ["avg_top_k"]),
    "activation_frequency": ("activation_frequency_per_layer.csv", ["expert", "frequency"]),
    "gate_thresholds": ("gate_thresholds.csv", ["expert", "threshold"]),
    "eval_accuracy": ("eval_accuracy.csv", ["accuracy"]),
    "n_experts": ("n_experts.csv", ["n_experts"]),
}


def write_run_dir(outdir: Path, spec_doc: dict, result: RunResult) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    result.metrics.to_csv(outdir / "metrics.csv")
    with (outdir / "adapt.jsonl").open("w") as fh:
        for event in result.adapt_events:
            fh.write(json.dumps({"schema": ADAPT_JSONL_SCHEMA, **event}, sort_keys=True) + "\n")
    (outdir / "config.snapshot").write_text(json.dumps(spec_doc, sort_keys=True, indent=2))
    save_model(result.model, outdir / "checkpoint.final")
    write_artifacts(outdir, final_accuracy=result.final_accuracy, mean_k=result.mean_k,
                    activated_params=result.activated_params,
                    k_trajectory=result.k_trajectory, similarity=result.similarity)


def write_artifacts(outdir: Path, **fields) -> None:
    """``artifacts.json``: the run's summary ``fields`` under its schema."""
    (outdir / "artifacts.json").write_text(
        json.dumps({"schema": ARTIFACTS_SCHEMA, **fields}, sort_keys=True, indent=2))


def load_spec(args, runs_dynmoe: bool = False) -> RunSpec:
    """The config file with the command's flags written into it, parsed once
    (``runs_dynmoe`` as in :func:`parse_config_doc`)."""
    doc = read_config(args.config)
    for dest, (section, key) in FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or not isinstance(doc, dict):
            continue
        part = doc.get(section, {})
        if part is None:
            raise ConfigError(f"--{dest.replace('_', '-')} sets {section}.{key}, "
                              f"but {args.config} sets {section} to null")
        if isinstance(part, dict):
            doc[section] = {**part, key: value}
    return parse_config_doc(doc, origin=str(args.config), runs_dynmoe=runs_dynmoe)


def checked_out(label: str, path, files) -> Path:
    """``path``, checked before any work with the ``files`` the command will
    write under it: none may exist as a directory, and the nearest existing
    parent of each must be a directory."""
    path = Path(path)
    for written in (path / name for name in files):
        if written.is_dir():
            raise IsADirectoryError(f"{label} {path}: {written} is a directory")
        existing = next(p for p in written.parents if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{label} {path}: {existing} is not a directory")
    return path


def _train(spec: RunSpec, outdir: Path) -> RunResult:
    task = gen_task(**asdict(spec.task))
    if spec.router.kind == "topk":
        result = run_baseline(task, spec.train, spec.router.n_experts, spec.router.top_k)
    else:
        result = train_loop(task, spec.train)
    write_run_dir(outdir, spec.snapshot(), result)
    return result


def cmd_train(args) -> int:
    outdir = checked_out("--out", args.out or "runs/train", RUN_FILES)
    result = _train(load_spec(args), outdir)
    print(f"final_accuracy={result.final_accuracy:.4f} mean_k={result.mean_k:.3f} "
          f"n_experts={sum(result.k_trajectory[-1][1])}")
    print(f"checkpoint_sha256={sha256((outdir / 'checkpoint.final').read_bytes()).hexdigest()}")
    print(f"run_dir={outdir}")
    return 0


def cmd_baseline(args) -> int:
    outdir = checked_out("--out", args.out or f"runs/baseline_K{args.K}_k{args.k}", RUN_FILES)
    result = _train(load_spec(args), outdir)
    print(f"final_accuracy={result.final_accuracy:.4f} K={args.K} k={args.k}")
    print(f"run_dir={outdir}")
    return 0


def cmd_eval(args) -> int:
    """Score a checkpoint on the held-out rows of the config's task: the rows
    the training run evaluated on, never the ones it trained on."""
    outdir = checked_out("--out", args.out or "runs/eval", ["metrics.csv", "artifacts.json"])
    ckpt = Path(args.checkpoint)
    if not ckpt.is_file():
        print(f"error: checkpoint not found: {ckpt}", file=sys.stderr)
        return 2
    spec = load_config(args.task)
    model = load_model(ckpt)
    if model.w_out.shape[0] != spec.task.d:
        raise CheckpointError(f"{ckpt} takes tokens of dim {model.w_out.shape[0]}, but the "
                              f"task of {args.task} has d={spec.task.d}")
    task = gen_task(**asdict(spec.task))
    eval_idx = split_task(task, spec.train)[1]
    accuracy, stats, _ = evaluate(model, task.tokens[eval_idx], task.labels[eval_idx])
    mean_k = float(np.mean([ps.mean_top_k for ps in stats]))
    metrics = MetricsLog()
    log_eval(metrics, 0, model, accuracy, stats)  # same rows the training loop emits
    outdir.mkdir(parents=True, exist_ok=True)
    metrics.to_csv(outdir / "metrics.csv")
    write_artifacts(outdir, final_accuracy=accuracy, mean_k=mean_k,
                    similarity=similarity_snapshot(model), k_trajectory=[])
    print(f"accuracy={accuracy:.4f} mean_k={mean_k:.3f}")
    print(f"metrics={outdir / 'metrics.csv'}")
    return 0


def cmd_report(args) -> int:
    logdir = Path(args.logdir)
    run_dirs = []
    if (logdir / "metrics.csv").is_file():
        run_dirs.append(logdir)
    if logdir.is_dir():
        run_dirs.extend(sorted(p.parent for p in logdir.glob("*/metrics.csv")))
    if not run_dirs:
        print("error: no metrics found", file=sys.stderr)
        return 2
    outdir = checked_out("report directory", logdir / "report",
                         [*(name for name, _ in REPORT_TABLES.values()), "k_trajectory.csv",
                          "similarity.json"])

    logs = []  # (run name, its metrics log)
    k_trajectories = {}
    similarity = {}
    for run in run_dirs:
        name = run.name
        path = run / "metrics.csv"
        try:
            metrics = MetricsLog.read_csv(path)
            path = run / "artifacts.json"
            if path.is_file():
                artifacts = json.loads(path.read_text())
                rows = k_trajectories[name] = []
                for step, counts in artifacts.get("k_trajectory", []):
                    if type(step) is not int or type(counts) is not list or \
                            any(type(count) is not int for count in counts):
                        raise ValueError(f"k_trajectory entry {[step, counts]} is not an "
                                         "integer step and a list of integer counts")
                    rows.extend([name, step, layer, count] for layer, count in enumerate(counts))
                similarity[name] = artifacts.get("similarity", [])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        logs.append((name, metrics))

    outdir.mkdir(parents=True, exist_ok=True)
    for metric, (filename, columns) in REPORT_TABLES.items():
        expert = "expert" in columns
        write_schema_csv(outdir / filename, REPORT_SCHEMA, ["run", "step", "layer", *columns],
                         ([name, row.step, row.layer, *([idx] if expert else []), repr(value)]
                          for name, metrics in logs for row in metrics.rows
                          if row.metric == metric for idx, value in enumerate(row.values)))
    write_schema_csv(outdir / "k_trajectory.csv", REPORT_SCHEMA,
                     ["run", "step", "layer", "n_experts"],
                     [row for _, rows in sorted(k_trajectories.items()) for row in rows])
    (outdir / "similarity.json").write_text(
        json.dumps({"schema": REPORT_SCHEMA, "runs": similarity}, sort_keys=True, indent=2))
    print(f"report written to {outdir} ({len(run_dirs)} run(s))")
    return 0


def cmd_sweep(args) -> int:
    outdir = checked_out("--out", args.out or "runs/sweep",
                         ["comparison.csv", *(f"dynmoe/{name}" for name in RUN_FILES)])
    spec = load_spec(args, runs_dynmoe=True)
    task = gen_task(**asdict(spec.task))
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for n_experts in spec.sweep.n_experts_grid:
        for top_k in spec.sweep.top_k_grid:
            result = run_baseline(task, spec.train, n_experts, top_k)
            rows.append(["topk", n_experts, top_k, repr(result.mean_k),
                         repr(result.final_accuracy), repr(result.activated_params)])
    dyn = train_loop(task, spec.train)
    rows.append(["dynmoe", sum(dyn.k_trajectory[-1][1]), "", repr(dyn.mean_k),
                 repr(dyn.final_accuracy), repr(dyn.activated_params)])
    write_run_dir(outdir / "dynmoe", spec.snapshot(), dyn)

    write_schema_csv(outdir / "comparison.csv", REPORT_SCHEMA,
                     ["router", "n_experts", "top_k", "mean_k", "final_accuracy",
                      "activated_params"], rows)
    print(f"sweep rows={len(rows)} written to {outdir / 'comparison.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmoe",
        description="Train and analyze threshold-gated mixture-of-experts models "
                    "on planted-skill tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("config")
    add_common(p_train)
    p_train.add_argument("--max-experts", type=int, default=None, dest="max_experts")
    p_train.add_argument("--check-interval", type=int, default=None, dest="check_interval")
    p_train.add_argument("--aux-weight", type=float, default=None, dest="aux_weight")
    p_train.set_defaults(handler=cmd_train)

    p_base = sub.add_parser("baseline", help="train a fixed top-k baseline")
    p_base.add_argument("config")
    p_base.add_argument("--K", type=int, required=True)
    p_base.add_argument("--k", type=int, required=True)
    add_common(p_base)
    # a baseline is a top-k run: router.kind is written like a flag
    p_base.set_defaults(handler=cmd_baseline, router="topk")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the task of a config file")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("task", help="config file; its task section (or the defaults) is used")
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.set_defaults(handler=cmd_eval)

    p_report = sub.add_parser("report", help="aggregate run logs into figure-ready tables")
    p_report.add_argument("logdir")
    p_report.set_defaults(handler=cmd_report)

    p_sweep = sub.add_parser("sweep", help="baseline (K, k) grid plus one adaptive run")
    p_sweep.add_argument("config")
    add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, CheckpointError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
