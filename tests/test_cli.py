import json
import hashlib
from pathlib import Path

import pytest

from dynmoe.cli import main
from dynmoe.config import ConfigError, load_config, parse_config_doc


def write_config(path: Path, **over):
    doc = {
        "schema": "dynmoe-config/1",
        "task": {"n_skills": 3, "d": 12, "n_samples": 600, "seed": 5},
        "train": {"steps": 100, "eval_every": 50, "seed": 1, "hidden": 8,
                  "init_experts": 2, "batch_size": 16},
        "adapt": {"max_experts": 6, "check_interval": 40},
        "sweep": {"n_experts_grid": [2, 3], "top_k_grid": [1, 2]},
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_load_and_defaults(self, tmp_path):
        spec = load_config(write_config(tmp_path / "c.json"))
        assert spec.task.n_skills == 3
        assert spec.train.steps == 100
        assert spec.train.adapt.max_experts == 6
        assert spec.router_kind == "dynmoe"

    def test_parse_error_is_line_precise(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema": "dynmoe-config/1",\n  "train": {,}\n}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:3:\d+"):
            load_config(bad)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(write_config(tmp_path / "c.json", train={"steps": 10, "typo_key": 1}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_topk_router_requires_sizes(self):
        with pytest.raises(ConfigError, match="top_k"):
            parse_config_doc({"router": {"kind": "topk"}})

    def test_adapt_null_disables(self):
        spec = parse_config_doc({"adapt": None})
        assert spec.train.adapt is None

    def test_bad_schema(self):
        with pytest.raises(ConfigError, match="unsupported schema"):
            parse_config_doc({"schema": "other/1"})


class TestCli:
    def test_train_twice_identical_checkpoint_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["train", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        h1 = hashlib.sha256((tmp_path / "r1" / "checkpoint.final").read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "r2" / "checkpoint.final").read_bytes()).hexdigest()
        assert h1 == h2
        m1 = (tmp_path / "r1" / "metrics.csv").read_text()
        m2 = (tmp_path / "r2" / "metrics.csv").read_text()
        assert m1 == m2

    def test_run_dir_layout(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", str(cfg), "--out", str(tmp_path / "run")]) == 0
        for name in ("metrics.csv", "adapt.jsonl", "config.snapshot",
                     "checkpoint.final", "artifacts.json"):
            assert (tmp_path / "run" / name).is_file()
        snapshot = json.loads((tmp_path / "run" / "config.snapshot").read_text())
        assert snapshot["schema"] == "dynmoe-config/1"

    def test_train_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", str(cfg), "--seed", "9", "--out", str(tmp_path / "b")]) == 0
        ha = hashlib.sha256((tmp_path / "a" / "checkpoint.final").read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / "checkpoint.final").read_bytes()).hexdigest()
        assert ha != hb

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["train", str(bad)]) == 2
        assert "bad.json:1" in capsys.readouterr().err

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no metrics found" in capsys.readouterr().err

    def test_eval_missing_checkpoint_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["eval", str(tmp_path / "nope.ckpt"), str(cfg)]) == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_sweep_row_count_is_grid_plus_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        # schema comment + header + (|K grid| * |k grid| + 1) rows
        assert len(lines) == 2 + (2 * 2 + 1)
        assert lines[-1].startswith("dynmoe")

    def test_eval_then_report_pipeline(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", str(cfg), "--out", str(tmp_path / "runs" / "t1")]) == 0
        ckpt = tmp_path / "runs" / "t1" / "checkpoint.final"
        assert main(["eval", str(ckpt), str(cfg), "--out", str(tmp_path / "runs" / "e1")]) == 0
        assert main(["report", str(tmp_path / "runs")]) == 0
        report = tmp_path / "runs" / "report"
        assert (report / "avg_top_k_per_layer.csv").is_file()
        assert (report / "k_trajectory.csv").is_file()
        assert (report / "similarity.json").is_file()

    def test_eval_uses_config_defaults(self, tmp_path):
        # an empty config trains on the default task; eval must build the same one
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        run = tmp_path / "r"
        assert main(["train", str(cfg), "--out", str(run)]) == 0
        out = tmp_path / "e"
        assert main(["eval", str(run / "checkpoint.final"), str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").is_file()

    def test_baseline_command(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "base"
        assert main(["baseline", str(cfg), "--K", "3", "--k", "2", "--out", str(out)]) == 0
        assert (out / "checkpoint.final").is_file()

    def test_train_topk_router_flag(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            router={"kind": "topk", "n_experts": 3, "top_k": 1},
        )
        out = tmp_path / "tk"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "checkpoint.final").read_text())
        assert doc["kind"] == "topk"

    def test_weighted_combine_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "wc"
        assert main(["train", str(cfg), "--combine", "weighted", "--out", str(out)]) == 0
        snapshot = json.loads((out / "config.snapshot").read_text())
        assert snapshot["train"]["combine"] == "weighted"
