"""Train-and-evaluate benchmark for dynmoe.

    python3 bench/run.py --workload desk-discovery --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each round is a fresh worker process
(bench/worker.py) with BLAS and OpenMP pinned to one thread; rounds run one
after another (a closed loop from one process) until the next round would
end after ``--seconds``, judged by the length of the last one. Every round
sets up, trains, writes the run directory, reloads the checkpoint, evaluates
fresh tokens and checks the outputs. Set-up time, run time, memory and
activated parameters are medians over rounds; the two rates are the run's
training steps (eval tokens) over the summed time of its training calls
(eval phases). Run time and the rates count every training step and eval
batch at the upper quartile of the run's step (batch) times, which keeps
them from following the machine's share of fast bursts (steady_times).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, plus the tracing overhead on the training call. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment and
each round. Run directories and traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from worker import THREAD_VARS
from workloads import WORKLOADS, smoke_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN_LIMIT_S = 170.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_steps_per_s": ("steps/s", "higher"),
    "run_s": ("s", "lower"),
    "eval_tokens_per_s": ("tokens/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "activated_params": ("params/token", "lower"),
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # Every round compiles dynmoe alike and leaves nothing in src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(spec: dict, seed: int, trace: bool, run_dir: Path, timeout: float) -> dict:
    request = {"spec": spec, "seed": seed, "trace": trace, "outdir": str(run_dir),
               "launched": time.monotonic()}
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)],
                          env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny training length and one round, for the benchmark's tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills the running
    # worker and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "dynmoe" / "__init__.py").is_file():
        print(f"error: no dynmoe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = smoke_spec(spec)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    began = time.monotonic()
    rounds, durations = [], []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        run_dir = OUT_DIR / f"{tag}-round{len(rounds)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        started = time.monotonic()
        budget = RUN_LIMIT_S - (started - began)
        result = run_worker(spec, args.seed, traced, run_dir, budget)
        shutil.rmtree(run_dir, ignore_errors=True)
        durations.append(time.monotonic() - started)
        result["traced"] = traced
        rounds.append(result)
        shown = {k: v for k, v in result.items() if k not in ("layers", "environment")}
        shown["metrics"] = {k: v for k, v in result["metrics"].items()
                            if k not in ("step_s", "batch_s")}
        print(json.dumps({"round": len(rounds) - 1, **shown}))
        unit = 2 if args.trace else 1  # trace mode runs untraced/traced pairs
        if len(rounds) % unit:
            continue
        elapsed = time.monotonic() - began
        if args.smoke or elapsed + sum(durations[-unit:]) > args.seconds:
            break

    print(json.dumps({"environment": rounds[0].get("environment"), "workload": args.workload,
                      "spec": spec}))
    summary = summarize(rounds, args.trace)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({"rounds": rounds, "summary": summary},
                                                    indent=1))
    print(json.dumps(summary))
    return 0


def steady_times(rounds) -> list[dict]:
    """Each round's training, eval and run time with every training step and
    eval batch counted at the upper quartile of the run's step (batch) times.

    The time between the pieces (adapt checks, periodic evals, the loops
    themselves) stays as measured. Without step times (a program without
    ``harness.train_step``) training keeps its wall time. README.md, "Steady
    time", says why.
    """
    rounds = list(rounds)
    step_s = [r["step_s"] for r in rounds]
    if any(s is None for s in step_s):
        step_s = [[] for _ in rounds]
    batch_s = [r["batch_s"] for r in rounds]
    q_step = upper_quartile([t for s in step_s for t in s])
    q_batch = upper_quartile([t for s in batch_s for t in s])
    out = []
    for r, steps, batches in zip(rounds, step_s, batch_s):
        train_s = r["train_s"] - sum(steps) + len(steps) * q_step
        eval_s = r["eval_s"] - sum(batches) + len(batches) * q_batch
        out.append({"train_s": train_s, "eval_s": eval_s,
                    "run_s": r["run_s"] - r["train_s"] - r["eval_s"] + train_s + eval_s})
    return out


def upper_quartile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else sum(samples)


def summarize(rounds: list[dict], trace: int) -> dict:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    ok = [r for r in rounds if not r["failed"]]
    correct = all(all(r["checks"].values()) for r in ok)
    if trace:
        traced = [r for r in ok if r["traced"]]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit} for name, (unit, _, _) in LAYER_METRICS.items()}
        train_s = {flag: statistics.median(r["metrics"]["train_s"] for r in ok
                                           if r["traced"] == flag) for flag in (True, False)}
        metrics["trace.overhead_ratio"] = {"value": train_s[True] / train_s[False],
                                           "unit": "ratio"}
    else:
        def total(key):
            return sum(r["metrics"][key] for r in ok)

        values = {name: statistics.median(r["metrics"][name] for r in ok)
                  for name in ("setup_s", "peak_rss_mb", "activated_params")}
        steady = steady_times(r["metrics"] for r in ok)
        values["run_s"] = statistics.median(s["run_s"] for s in steady)
        values["train_steps_per_s"] = total("train_steps") / sum(s["train_s"] for s in steady)
        values["eval_tokens_per_s"] = total("eval_tokens") / sum(s["eval_s"] for s in steady)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
