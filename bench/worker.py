"""One round of a workload in a fresh process: set up, train, write the run
directory, reload the checkpoint, evaluate fresh tokens, check the outputs.

Started by run.py with BLAS and OpenMP already pinned to one thread in the
environment and ``src`` on ``PYTHONPATH``. Prints one JSON object. Untraced
rounds also time every training step and eval batch, for run.steady_times.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import EVAL_BATCH, EVAL_POOL

MIN_ACCURACY = 0.95
# Row results of one-thread BLAS may differ in the last bits between batch
# sizes; 1e-12 is a few hundred ulps at the logits' scale.
SPLIT_LOGIT_TOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OPERATIONS = ("train", "write", "reload")  # plus one per eval batch


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"thread counts not pinned to 1 before numpy loads: {unpinned}")
    print(json.dumps(run_round(**request)))
    return 0


def environment(np) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count()}


def run_round(spec: dict, seed: int, launched: float, trace: bool, outdir: str) -> dict:
    import numpy as np

    from dynmoe import cli, harness
    from dynmoe.adaptive import AdaptConfig

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced_from = time.perf_counter()

    step_s = None if trace else time_steps(harness)

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    task_spec, train_spec = spec["task"], spec["train"]
    task = harness.gen_task(task_spec["n_skills"], task_spec["d"], task_spec["n_samples"],
                            task_spec["seed"])
    cfg = harness.TrainConfig(
        **train_spec,
        adapt=AdaptConfig(**spec["adapt"]) if "adapt" in spec else AdaptConfig(),
    )
    setup_s = time.monotonic() - launched

    n_eval_batches = spec["eval_passes"] * EVAL_POOL // EVAL_BATCH
    attempted = len(OPERATIONS) + n_eval_batches
    out = {"attempted": attempted, "failed": 0, "checks": {}, "metrics": {}}
    run_dir = Path(outdir)
    try:
        phase("train")
        start = time.perf_counter()
        if spec["kind"] == "topk":
            result = harness.run_baseline(task, cfg, spec["n_experts"], spec["top_k"])
        else:
            result = harness.train_loop(task, cfg)
        train_s = time.perf_counter() - start

        phase("write")
        cli.write_run_dir(run_dir, spec, result)
        phase("load")
        model = harness.load_model(run_dir / "checkpoint.final")

        # Fresh tokens of the same task: the same seed with more samples
        # extends the training task, as `dynmoe eval` regenerates it.
        phase("evalgen")
        n = task_spec["n_samples"]
        extended = harness.gen_task(task_spec["n_skills"], task_spec["d"], n + EVAL_POOL,
                                    task_spec["seed"])
        fresh_tokens, fresh_labels = extended.tokens[n:], extended.labels[n:]
        rng = np.random.default_rng(seed)
        batches = [order[b:b + EVAL_BATCH]
                   for order in (rng.permutation(EVAL_POOL) for _ in range(spec["eval_passes"]))
                   for b in range(0, EVAL_POOL, EVAL_BATCH)]

        phase("eval")
        correct_tokens, min_k = 0.0, math.inf
        t = time.perf_counter()
        batch_s = []
        for idx in batches:
            t_batch = time.perf_counter()
            accuracy, _, caches = harness.evaluate(model, fresh_tokens[idx], fresh_labels[idx])
            batch_s.append(time.perf_counter() - t_batch)
            correct_tokens += accuracy * len(idx)
            min_k = min(min_k, min(int(cache[1].k.min()) for cache in caches))
        eval_s = time.perf_counter() - t
        run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        traceback.print_exc()
        out["failed"] = attempted
        return out

    phase("check")
    out["checks"] = check_outputs(np, spec, task, extended, result, model, fresh_tokens,
                                  correct_tokens / (len(batches) * EVAL_BATCH), min_k)
    out["metrics"] = {
        "setup_s": setup_s,
        "train_steps": cfg.steps,
        "train_s": train_s,
        "run_s": run_s,
        "eval_tokens": len(batches) * EVAL_BATCH,
        "eval_s": eval_s,
        "step_s": step_s,
        "batch_s": batch_s,
        "peak_rss_mb": peak_rss_mb,
        "activated_params": result.activated_params,
        "final_k": sum(result.k_trajectory[-1][1]),
    }
    out["environment"] = environment(np)
    if tracer is not None:
        traced_wall = time.perf_counter() - traced_from
        layers, totals, absent = tracer.layer_metrics()
        out["checks"]["trace_self_within_wall"] = totals["self_s"] <= traced_wall
        out["layers"], out["absent"] = layers, absent
        out["trace"] = {**totals, "wall_s": traced_wall}
        tracer.dump(run_dir.with_name(run_dir.name + ".trace.json"))
    return out


def time_steps(harness):
    """Time every call of ``harness.train_step`` from the name ``_run`` looks
    up; None, and whole-call timing, if the name no longer exists."""
    step = getattr(harness, "train_step", None)
    if step is None:
        return None
    times = []

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t)

    harness.train_step = timed
    return times


def check_outputs(np, spec, task, extended, result, model, fresh_tokens, fresh_accuracy,
                  min_k) -> dict[str, bool]:
    """Properties and independent recomputations, never a stored copy of output."""
    n = task.n_samples
    d, h = spec["task"]["d"], spec["train"]["hidden"]
    k_final = sum(result.k_trajectory[-1][1])
    if spec["kind"] == "topk":
        expected_params = d * k_final + spec["top_k"] * (2 * d * h + h + d)
    else:
        expected_params = d * k_final + k_final + result.mean_k * (2 * d * h + h + d)

    def labels_follow_rules(t):
        rules = t.rule_directions.T[t.skill_ids]
        projection = np.einsum("nd,nd->n", t.tokens, rules)
        return bool(np.array_equal((projection > 0).astype(np.int64), t.labels))

    reference = model.forward(fresh_tokens, mode="eval")[0]
    split_ok = True
    for size in (257, EVAL_BATCH):
        logits = np.concatenate([model.forward(fresh_tokens[b:b + size], mode="eval")[0]
                                 for b in range(0, len(fresh_tokens), size)])
        split_ok &= bool(np.array_equal(logits.argmax(axis=1), reference.argmax(axis=1)))
        split_ok &= float(np.max(np.abs(logits - reference))) <= SPLIT_LOGIT_TOL

    checks = {
        "labels_follow_rule_sign": labels_follow_rules(task) and labels_follow_rules(extended),
        "eval_task_extends_training_task": bool(
            np.array_equal(extended.tokens[:n], task.tokens)
            and np.array_equal(extended.labels[:n], task.labels)
            and np.array_equal(extended.skill_ids[:n], task.skill_ids)),
        "eval_tokens_activate_an_expert": min_k >= 1,
        "activated_params_formula": math.isclose(result.activated_params, expected_params,
                                                 rel_tol=1e-12),
        "heldout_accuracy": result.final_accuracy >= MIN_ACCURACY,
        "fresh_token_accuracy": fresh_accuracy >= MIN_ACCURACY,
        "predictions_independent_of_batch_split": split_ok,
        "checkpoint_round_trip": bool(np.array_equal(
            result.model.forward(fresh_tokens, mode="eval")[0], reference)),
    }
    if "k_band" in spec:
        lo, hi = spec["k_band"]
        checks["final_k_in_band"] = lo <= k_final <= hi
    return checks


if __name__ == "__main__":
    sys.exit(main(sys.argv))
