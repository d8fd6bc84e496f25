"""The benchmark's own smoke tests: python3 -m pytest bench

Every workload runs at a tiny length (one round, a thirtieth of the training
steps, one eval pass), untraced and traced. The tests check the output
format against BENCHMARK.json and that the output checks ran.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, steady_times  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Checks that hold from the first steps; accuracy and the K band need full training.
STRUCTURAL = {"labels_follow_rule_sign", "eval_task_extends_training_task",
              "eval_tokens_activate_an_expert", "activated_params_formula",
              "predictions_independent_of_batch_split", "checkpoint_round_trip"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == {**{k: v[:2] for k, v in LAYER_METRICS.items()},
                         "trace.overhead_ratio": ("ratio", "lower")}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    rounds = [line for line in lines if "round" in line]
    assert len(rounds) == (2 if trace == "1" else 1)
    for r in rounds:
        checks = r["checks"]
        expected_checks = STRUCTURAL | {"heldout_accuracy", "fresh_token_accuracy"}
        if "k_band" in WORKLOADS[workload]:
            expected_checks |= {"final_k_in_band"}
        if r["traced"]:
            expected_checks |= {"trace_self_within_wall"}
            assert r["absent"] == []
        assert set(checks) == expected_checks
        assert all(checks[name] for name in expected_checks - {
            "heldout_accuracy", "fresh_token_accuracy", "final_k_in_band"})


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "desk-discovery", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_names_become_absent_metrics(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "WRAPPED", (("dynmoe.moe_layer", "NoSuchBank.forward"),
                                             ("dynmoe.harness", "no_such_function")))
    monkeypatch.setattr(tracing, "LAYER_METRICS", {
        **LAYER_METRICS,
        "moe_layer.expert_fwd_ms": ("ms", "lower", ("moe_layer.NoSuchBank.forward",)),
    })
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == ["moe_layer.NoSuchBank.forward", "harness.no_such_function"]
    values, totals, absent = tracer.layer_metrics()
    assert absent == ["moe_layer.expert_fwd_ms"]
    assert values["moe_layer.expert_fwd_ms"] == 0.0
    assert totals["spans"] == 0


def test_steady_times_count_pieces_at_the_upper_quartile():
    rounds = [{"train_s": 2.0, "step_s": [0.1, 0.2, 0.3], "eval_s": 1.0, "batch_s": [0.2, 0.4],
               "run_s": 4.0},
              {"train_s": 1.5, "step_s": [0.1, 0.1, 0.1], "eval_s": 0.5, "batch_s": [0.1, 0.1],
               "run_s": 3.0}]
    q_step = statistics.quantiles([0.1, 0.2, 0.3, 0.1, 0.1, 0.1], n=4)[2]
    q_batch = statistics.quantiles([0.2, 0.4, 0.1, 0.1], n=4)[2]
    first = steady_times(rounds)[0]
    assert first["train_s"] == pytest.approx(2.0 - 0.6 + 3 * q_step)
    assert first["eval_s"] == pytest.approx(1.0 - 0.6 + 2 * q_batch)
    assert first["run_s"] == pytest.approx(4.0 - 3.0 + first["train_s"] + first["eval_s"])

    # Without step times (no harness.train_step) training keeps its wall time.
    rounds[1]["step_s"] = None
    assert [s["train_s"] for s in steady_times(rounds)] == [2.0, 1.5]
