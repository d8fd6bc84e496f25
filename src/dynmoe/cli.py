"""Command-line entry points: train, baseline, eval, report, sweep.

Every run writes one directory: metrics.csv (tidy per-metric rows),
adapt.jsonl (one add/remove event per line), config.snapshot (the
normalized configuration) and checkpoint.final (the model). ``report``
aggregates any number of such directories into figure-ready CSV/JSON files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunSpec, load_config, parse_config_doc, read_config
from .harness import (
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
from .telemetry import MetricsLog

log = logging.getLogger("dynmoe")

ADAPT_JSONL_SCHEMA = "dynmoe-adapt/1"
ARTIFACTS_SCHEMA = "dynmoe-artifacts/1"
REPORT_SCHEMA = "dynmoe-report/1"

# flag destination -> (section, key) of the config document it sets
FLAG_KEYS = {
    "seed": ("train", "seed"),
    "aux_weight": ("train", "aux_loss_weight"),
    "combine": ("train", "combine"),
    "max_experts": ("adapt", "max_experts"),
    "check_interval": ("adapt", "check_interval"),
    "init_strategy": ("adapt", "init_strategy"),
    "router": ("router", "kind"),
    "K": ("router", "n_experts"),
    "k": ("router", "top_k"),
}


def _configure_logging() -> None:
    level = os.environ.get("DYNMOE_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def write_run_dir(outdir: Path, spec_doc: dict, result: RunResult) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    result.metrics.to_csv(outdir / "metrics.csv")
    with (outdir / "adapt.jsonl").open("w") as fh:
        for event in result.adapt_events:
            fh.write(json.dumps({"schema": ADAPT_JSONL_SCHEMA, **event}, sort_keys=True) + "\n")
    (outdir / "config.snapshot").write_text(json.dumps(spec_doc, sort_keys=True, indent=2))
    save_model(result.model, outdir / "checkpoint.final")
    artifacts = {
        "schema": ARTIFACTS_SCHEMA,
        "final_accuracy": result.final_accuracy,
        "mean_k": result.mean_k,
        "activated_params": result.activated_params,
        "k_trajectory": [[step, list(counts)] for step, counts in result.k_trajectory],
        "similarity": result.similarity,
    }
    (outdir / "artifacts.json").write_text(json.dumps(artifacts, sort_keys=True, indent=2))


def checkpoint_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_spec(args) -> RunSpec:
    """The config file with the command's flags written into it, parsed once."""
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
    return parse_config_doc(doc, origin=str(args.config))


def _train(spec: RunSpec, outdir: Path) -> RunResult:
    task = gen_task(**asdict(spec.task))
    if spec.router.kind == "topk":
        result = run_baseline(task, spec.train, spec.router.n_experts, spec.router.top_k)
    else:
        result = train_loop(task, spec.train)
    write_run_dir(outdir, spec.snapshot(), result)
    return result


def cmd_train(args) -> int:
    outdir = Path(args.out or "runs/train")
    result = _train(load_spec(args), outdir)
    print(f"final_accuracy={result.final_accuracy:.4f} mean_k={result.mean_k:.3f} "
          f"n_experts={sum(result.k_trajectory[-1][1])}")
    print(f"checkpoint_sha256={checkpoint_hash(outdir / 'checkpoint.final')}")
    print(f"run_dir={outdir}")
    return 0


def cmd_baseline(args) -> int:
    outdir = Path(args.out or f"runs/baseline_K{args.K}_k{args.k}")
    result = _train(load_spec(args), outdir)
    print(f"final_accuracy={result.final_accuracy:.4f} K={args.K} k={args.k}")
    print(f"run_dir={outdir}")
    return 0


def cmd_eval(args) -> int:
    """Score a checkpoint on the held-out rows of the config's task: the rows
    the training run evaluated on, never the ones it trained on."""
    ckpt = Path(args.checkpoint)
    if not ckpt.is_file():
        print(f"error: checkpoint not found: {ckpt}", file=sys.stderr)
        return 2
    spec = load_config(args.task)
    task = gen_task(**asdict(spec.task))
    eval_idx = split_task(task, spec.train)[1]

    model = load_model(ckpt)
    accuracy, stats, _ = evaluate(model, task.tokens[eval_idx], task.labels[eval_idx])
    mean_k = float(np.mean([ps.mean_top_k for ps in stats]))
    metrics = MetricsLog()
    log_eval(metrics, 0, model, accuracy, stats)  # same rows the training loop emits
    outdir = Path(args.out or "runs/eval")
    outdir.mkdir(parents=True, exist_ok=True)
    metrics.to_csv(outdir / "metrics.csv")
    artifacts = {
        "schema": ARTIFACTS_SCHEMA,
        "final_accuracy": accuracy,
        "mean_k": mean_k,
        "similarity": similarity_snapshot(model),
        "k_trajectory": [],
    }
    (outdir / "artifacts.json").write_text(json.dumps(artifacts, sort_keys=True, indent=2))
    print(f"accuracy={accuracy:.4f} mean_k={mean_k:.3f}")
    print(f"metrics={outdir / 'metrics.csv'}")
    return 0


def _write_report_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# schema={REPORT_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_report(args) -> int:
    logdir = Path(args.logdir)
    run_dirs = []
    if (logdir / "metrics.csv").is_file():
        run_dirs.append(logdir)
    if logdir.is_dir():
        run_dirs.extend(sorted(p.parent for p in logdir.glob("*/metrics.csv")))
    if not run_dirs:
        print("error: no metrics found", file=sys.stderr)
        return 1

    by_metric: dict[str, list[list]] = {
        "avg_top_k": [], "activation_frequency": [], "gate_thresholds": [],
        "eval_accuracy": [], "n_experts": [],
    }
    k_trajectories = {}
    similarity = {}
    for run in run_dirs:
        name = run.name
        metrics = MetricsLog.read_csv(run / "metrics.csv")
        for row in metrics.rows:
            if row.metric in ("avg_top_k", "eval_accuracy", "n_experts"):
                by_metric[row.metric].append([name, row.step, row.layer, repr(row.values[0])])
            elif row.metric in ("activation_frequency", "gate_thresholds"):
                for idx, value in enumerate(row.values):
                    by_metric[row.metric].append([name, row.step, row.layer, idx, repr(value)])
        artifacts_path = run / "artifacts.json"
        if artifacts_path.is_file():
            artifacts = json.loads(artifacts_path.read_text())
            k_trajectories[name] = artifacts.get("k_trajectory", [])
            similarity[name] = artifacts.get("similarity", [])

    outdir = logdir / "report"
    outdir.mkdir(parents=True, exist_ok=True)
    _write_report_csv(outdir / "avg_top_k_per_layer.csv",
                      ["run", "step", "layer", "avg_top_k"], by_metric["avg_top_k"])
    _write_report_csv(outdir / "activation_frequency_per_layer.csv",
                      ["run", "step", "layer", "expert", "frequency"],
                      by_metric["activation_frequency"])
    _write_report_csv(outdir / "gate_thresholds.csv",
                      ["run", "step", "layer", "expert", "threshold"],
                      by_metric["gate_thresholds"])
    _write_report_csv(outdir / "eval_accuracy.csv",
                      ["run", "step", "layer", "accuracy"], by_metric["eval_accuracy"])
    _write_report_csv(outdir / "n_experts.csv",
                      ["run", "step", "layer", "n_experts"], by_metric["n_experts"])
    rows = []
    for name, traj in sorted(k_trajectories.items()):
        for step, counts in traj:
            for layer, count in enumerate(counts):
                rows.append([name, step, layer, count])
    _write_report_csv(outdir / "k_trajectory.csv", ["run", "step", "layer", "n_experts"], rows)
    (outdir / "similarity.json").write_text(
        json.dumps({"schema": REPORT_SCHEMA, "runs": similarity}, sort_keys=True, indent=2)
    )
    print(f"report written to {outdir} ({len(run_dirs)} run(s))")
    return 0


def cmd_sweep(args) -> int:
    spec = load_spec(args)
    task = gen_task(**asdict(spec.task))
    outdir = Path(args.out or "runs/sweep")
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for n_experts in spec.sweep.n_experts_grid:
        for top_k in spec.sweep.top_k_grid:
            result = run_baseline(task, spec.train, n_experts, top_k)
            rows.append(["topk", n_experts, top_k, repr(result.mean_k),
                         repr(result.final_accuracy), repr(result.activated_params)])
            log.info("baseline K=%d k=%d accuracy=%.4f", n_experts, top_k, result.final_accuracy)
    dyn = train_loop(task, spec.train)
    rows.append(["dynmoe", sum(dyn.k_trajectory[-1][1]), "", repr(dyn.mean_k),
                 repr(dyn.final_accuracy), repr(dyn.activated_params)])
    write_run_dir(outdir / "dynmoe", spec.snapshot(), dyn)

    _write_report_csv(outdir / "comparison.csv",
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

    def add_config_arg(p):
        # accepted positionally or as --config; exactly one must be given
        p.add_argument("config", nargs="?", default=None)
        p.add_argument("--config", dest="config_flag", default=None)

    p_train = sub.add_parser("train", help="train a model from a config file")
    add_config_arg(p_train)
    add_common(p_train)
    p_train.add_argument("--max-experts", type=int, default=None, dest="max_experts")
    p_train.add_argument("--check-interval", type=int, default=None, dest="check_interval")
    p_train.add_argument("--init-strategy", default=None, dest="init_strategy",
                         choices=["paper_rs", "average", "w_average", "most_activated"])
    p_train.add_argument("--aux-weight", type=float, default=None, dest="aux_weight")
    p_train.add_argument("--combine", choices=["mean", "weighted"], default=None)
    p_train.add_argument("--router", choices=["dynmoe", "topk"], default=None)
    p_train.set_defaults(handler=cmd_train)

    p_base = sub.add_parser("baseline", help="train a fixed top-k baseline")
    add_config_arg(p_base)
    p_base.add_argument("--K", type=int, required=True)
    p_base.add_argument("--k", type=int, required=True)
    add_common(p_base)
    # a baseline is a top-k run: router.kind is written like a --router flag
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
    add_config_arg(p_sweep)
    add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    return parser


def _resolve_config_path(args, parser) -> None:
    if not hasattr(args, "config_flag"):
        return
    given = [v for v in (args.config, args.config_flag) if v is not None]
    if len(given) != 1:
        parser.error(f"{args.command}: give a config file either positionally or via --config")
    args.config = given[0]


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_config_path(args, parser)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
