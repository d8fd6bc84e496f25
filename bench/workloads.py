"""The benchmark's workloads: one train-and-evaluate configuration each.

The training inputs are fixed configurations (task seed 7, training seed 0).
The run's ``--seed`` draws the order and batch make-up of the fresh eval
tokens only. The training seed sets the routing trajectory, hence K and the
work done per step: across training seeds 0-11 on desk-discovery,
``activated_params`` ranges from 867 to 1658, so a seed-driven training
would put that spread into every metric. README.md records it.

Eval tokens are fresh tokens of the same task: ``gen_task`` draws samples in
sequence, so the same seed with ``n_samples + EVAL_POOL`` rows extends the
training task, and the extra rows were never trained on.
"""

from __future__ import annotations

EVAL_BATCH = 1024  # the ROADMAP "large" N
EVAL_POOL = 4096   # fresh tokens per round, four batches

WORKLOADS = {
    # The acceptance configuration: default TrainConfig on gen_task(4, 16,
    # 8000, 7). Per-call Python overhead dominates (matrices of <= 32 rows).
    "desk-discovery": {
        "kind": "dynmoe",
        "task": {"n_skills": 4, "d": 16, "n_samples": 8000, "seed": 7},
        "train": {"steps": 3000, "batch_size": 32, "hidden": 16, "init_experts": 2,
                  "eval_every": 500, "seed": 0},
        "adapt": {"max_experts": 16, "check_interval": 100},
        "k_band": [3, 6],
        "eval_passes": 200,
    },
    # ROADMAP mid size (N=256, d=64, h=64, K=8) with the adaptive process on:
    # expert MLP math dominates, and adds exercise the resize path.
    "mid-adaptive": {
        "kind": "dynmoe",
        "task": {"n_skills": 8, "d": 64, "n_samples": 8000, "seed": 7},
        "train": {"steps": 300, "batch_size": 256, "hidden": 64, "init_experts": 8,
                  "eval_every": 100, "seed": 0},
        "adapt": {"max_experts": 16, "check_interval": 100},
        "eval_passes": 48,
    },
    # The same task and sizes under the fixed softmax top-k baseline (K=8,
    # k=2): no threshold gate, auxiliary loss, record or adapt.
    "mid-topk": {
        "kind": "topk",
        "task": {"n_skills": 8, "d": 64, "n_samples": 8000, "seed": 7},
        "train": {"steps": 300, "batch_size": 256, "hidden": 64, "init_experts": 8,
                  "eval_every": 100, "seed": 0},
        "n_experts": 8,
        "top_k": 2,
        "eval_passes": 48,
    },
}


def smoke_spec(spec: dict) -> dict:
    """The same workload at a tiny length, for the benchmark's own tests."""
    spec = {**spec, "train": {**spec["train"], "steps": max(1, spec["train"]["steps"] // 30)},
            "eval_passes": 1}
    spec["train"]["eval_every"] = min(spec["train"]["eval_every"], spec["train"]["steps"])
    if "adapt" in spec:
        spec["adapt"] = {**spec["adapt"], "check_interval": max(3, spec["train"]["steps"] // 3)}
    return spec
