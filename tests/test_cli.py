import argparse
import json
import hashlib
import math
import re
from pathlib import Path

import pytest

from dynmoe.cli import FLAG_KEYS, build_parser, main
from dynmoe.config import ConfigError, load_config, parse_config_doc

# every key of every section set away from its default
FULL_CONFIG = {
    "schema": "dynmoe-config/1",
    "task": {"n_skills": 3, "d": 12, "n_samples": 600, "seed": 5},
    "train": {"steps": 120, "batch_size": 16, "learning_rate": 0.01,
              "aux_loss_weight": 0.5, "seed": 3, "eval_every": 40, "n_layers": 2,
              "hidden": 8, "init_experts": 3},
    "adapt": {"max_experts": 6, "check_interval": 30, "record_window": [0.25, 0.75],
              "min_experts": 2},
    "router": {"kind": "topk", "n_experts": 4, "top_k": 2},
    "sweep": {"n_experts_grid": [2, 3], "top_k_grid": [1]},
}

# a top-k run with K = 3
TOPK_ROUTER = {"router": {"kind": "topk", "n_experts": 3, "top_k": 2}}


def with_layer(doc, **fields):
    """The edit of a one-layer checkpoint ``doc`` that sets ``fields`` of its layer."""
    return {"layers": [{**doc["layers"][0], **fields}]}


def first_set(x, value):
    """A copy of the nested list ``x`` with its first number set to ``value``."""
    return [first_set(x[0], value), *x[1:]] if isinstance(x, list) else value


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
        assert spec.router.kind == "dynmoe"

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

    # the keys of the deleted ablation options (train.combine,
    # train.detach_router_tokens, adapt.init_strategy, plugins) fail as
    # unknown keys rather than being ignored
    @pytest.mark.parametrize("doc, key", [
        ({"train": {"detach_router_tokens": False}}, r"train\.detach_router_tokens"),
        ({"train": {"steps": 20.9}}, r"train\.steps"),
        ({"train": {"steps": True}}, r"train\.steps"),
        ({"train": {"learning_rate": "0.1"}}, r"train\.learning_rate"),
        ({"train": {"combine": "mean"}}, r"train\.combine"),
        ({"train": {"learning_rate": [0.1]}}, r"train\.learning_rate"),
        ({"train": {"adapt": {}}}, r"unknown key.*adapt"),
        ({"adapt": {"record_window": [0.5]}}, r"adapt\.record_window"),
        ({"adapt": {"max_experts": 0}}, r"adapt.*max_experts"),
        ({"plugins": []}, r"unknown top-level key.*plugins"),
        ({"adapt": {"kind": "paper"}}, r"unknown key.*adapt\.kind"),
        ({"adapt": {"init_strategy": "paper_rs"}}, r"unknown key.*adapt\.init_strategy"),
        ({"train": {"learning_rate": True}}, r"train\.learning_rate"),
        ({"router": {"kind": "topk", "n_experts": 2, "top_k": 3}}, r"router.*top_k"),
        ({"sweep": {"top_k_grid": [1, 1.5]}}, r"sweep\.top_k_grid\[1\]"),
        ({"task": None}, r"task must be an object"),
        ({"tasks": {}}, r"unknown top-level key.*tasks"),
        ({"task": {"d": 3}}, r"task: .*need d >= n_skills \+ 2"),
        ({"task": {"n_samples": 0}}, r"task: n_samples"),
        ({"task": {"seed": -1}}, r"task: seed"),
        ({"train": {"seed": -1}}, r"train: seed"),
        ({"sweep": {"n_experts_grid": [2], "top_k_grid": [3]}}, r"sweep: .*\[\(2, 3\)\]"),
        ({"sweep": {"n_experts_grid": [4, 1], "top_k_grid": [2]}}, r"sweep: .*\[\(1, 2\)\]"),
        ({"sweep": {"top_k_grid": [0]}}, r"sweep: .*\[\(2, 0\), \(4, 0\), \(8, 0\)\]"),
        ({"task": {"n_samples": 1}}, r"task: n_samples must be at least 2"),
    ])
    def test_bad_value_names_its_key(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_doc(doc)

    def test_integral_float_accepted(self):
        assert parse_config_doc({"train": {"steps": 20.0}}).train.steps == 20

    @pytest.mark.parametrize("doc", [{}, {"adapt": None}, FULL_CONFIG])
    def test_snapshot_is_a_fixed_point(self, doc):
        spec = parse_config_doc(doc)
        text = json.dumps(spec.snapshot(), sort_keys=True, indent=2)
        again = parse_config_doc(json.loads(text))
        assert again == spec
        assert json.dumps(again.snapshot(), sort_keys=True, indent=2) == text

    def test_full_config_sets_every_key(self):
        # a key left at its default would not show that the parser reads it
        defaults = parse_config_doc({}).snapshot()
        full = parse_config_doc(FULL_CONFIG).snapshot()
        for section in ("task", "train", "adapt", "router", "sweep"):
            assert set(FULL_CONFIG[section]) == set(defaults[section])
            for key, value in defaults[section].items():
                assert full[section][key] != value, (section, key)

    def test_readme_defaults_block_is_the_default_snapshot(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("The\ndefaults are shown by `config.snapshot` after a run:\n", 1)[1]
        block = after.split("```json\n", 1)[1].split("```", 1)[0]
        # compared as JSON, the form a run's config.snapshot has
        assert json.loads(block) == json.loads(json.dumps(parse_config_doc({}).snapshot()))


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

    def test_eval_task_dim_mismatch_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"steps": 4, "eval_every": 4}}))
        run = tmp_path / "r"
        assert main(["train", str(cfg), "--out", str(run)]) == 0
        c32 = tmp_path / "c32.json"
        c32.write_text(json.dumps({"task": {"d": 32}}))
        out = tmp_path / "e"
        assert main(["eval", str(run / "checkpoint.final"), str(c32), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dim 16" in err and "d=32" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["{}", "not json"])
    def test_eval_unreadable_checkpoint_is_an_error(self, tmp_path, capsys, content):
        cfg = write_config(tmp_path / "c.json")
        ckpt = tmp_path / "ckpt"
        ckpt.write_text(content)
        out = tmp_path / "e"
        assert main(["eval", str(ckpt), str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a model checkpoint" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message, router", [
        (lambda doc: {"layers": []}, "at least one layer", {}),
        (lambda doc: {"b_out": [0.0, 0.0, 0.0]}, "does not fit b_out of shape (3,)", {}),
        (lambda doc: {"w_out": [[0.0, 0.0]] * 8},
         "layer dims [16] do not match the 8 rows of w_out", {}),
        (lambda doc: with_layer(doc, w_g=doc["layers"][0]["w_g"][:8]), "do not fit d=8", {}),
        (lambda doc: with_layer(doc, top_k=9), "top_k 9 not in [1, 3]", TOPK_ROUTER),
        (lambda doc: with_layer(doc, b1=[row[:-1] for row in doc["layers"][0]["b1"]]),
         "(3, 15), (3, 16, 16), (3, 16)] do not fit d=16 (router columns), h=16", TOPK_ROUTER),
        (lambda doc: {"schema": "dynmoe-model/1"}, "unsupported model schema 'dynmoe-model/1'", {}),
        (lambda doc: with_layer(doc, g=[0.0, 0.0, 0.0]), "exactly one of 'g' (top-any) and 'top_k'",
         TOPK_ROUTER),
        (lambda doc: with_layer(doc, n_experts=99), "layer keys ['b1', 'b2', 'g', 'n_experts'", {}),
        (lambda doc: with_layer(doc, w_g=first_set(doc["layers"][0]["w_g"], math.nan)),
         "non-finite value in w_g", {}),
        (lambda doc: {"w_out": first_set(doc["w_out"], math.inf)}, "non-finite value in w_out", {}),
        (lambda doc: with_layer(doc, w1=first_set(doc["layers"][0]["w1"], math.nan)),
         "non-finite value in w1", {}),
    ], ids=["no_layers", "head_b", "head_w_rows", "w_g_rows", "topk_top_k", "topk_h", "old_schema",
            "g_and_top_k", "unknown_key", "nan_w_g", "inf_w_out", "nan_w1"])
    def test_eval_inconsistent_checkpoint_is_an_error(self, tmp_path, capsys, edit, message,
                                                      router):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**router, "train": {"steps": 4, "eval_every": 4}}))
        run = tmp_path / "r"
        assert main(["train", str(cfg), "--out", str(run)]) == 0
        doc = json.loads((run / "checkpoint.final").read_text())
        ckpt = tmp_path / "ckpt"
        ckpt.write_text(json.dumps({**doc, **edit(doc)}))
        out = tmp_path / "e"
        assert main(["eval", str(ckpt), str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a model checkpoint" in err and message in err
        assert not out.exists()

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
        assert [layer["top_k"] for layer in doc["layers"]] == [1]

    def test_weighted_combine_flag(self, tmp_path):
        # every flag must reach config.snapshot; the file sets router.kind
        # to topk, so --router dynmoe shows up only if the flag is applied
        cfg = write_config(tmp_path / "c.json", router={"kind": "topk", "n_experts": 3, "top_k": 1})
        train_flags = {"seed": 4, "aux_weight": 0.5, "max_experts": 5, "check_interval": 30,
                       "router": "dynmoe"}
        baseline_flags = {"K": 4, "k": 2}
        assert set(train_flags) | set(baseline_flags) == set(FLAG_KEYS)

        def argv(flags):
            return [a for dest, v in flags.items() for a in (f"--{dest.replace('_', '-')}", str(v))]

        out = tmp_path / "wc"
        assert main(["train", str(cfg), *argv(train_flags), "--out", str(out)]) == 0
        base = tmp_path / "base"
        assert main(["baseline", str(cfg), *argv(baseline_flags), "--out", str(base)]) == 0
        for run, flags in ((out, train_flags), (base, baseline_flags)):
            snapshot = json.loads((run / "config.snapshot").read_text())
            for dest, value in flags.items():
                section, key = FLAG_KEYS[dest]
                assert snapshot[section][key] == value, dest
        assert json.loads((base / "config.snapshot").read_text())["router"]["kind"] == "topk"

    @pytest.mark.parametrize("flag", [["--combine", "mean"], ["--init-strategy", "paper_rs"],
                                      ["--config", "c.json"]])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as exc:
            main(["train", str(cfg), *flag, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_readme_useful_flags_are_the_train_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        # the "Useful flags" sentence
        text = readme.split("Useful flags: ", 1)[1].split("Each flag writes", 1)[0]
        named = set(re.findall(r"`(--[a-z-]+)", text))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {s for a in sub.choices["train"]._actions for s in a.option_strings}
        assert named == {s for s in options if s.startswith("--")} - {"--help"}

    @pytest.mark.parametrize("argv, key", [
        (["train", "--max-experts", "0"], "max_experts"),
        (["baseline", "--K", "2", "--k", "3"], "top_k"),
    ])
    def test_bad_flag_value_is_a_config_error(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path / "c.json")
        assert main([argv[0], str(cfg), *argv[1:], "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, section", [
        ("train", {"task": {"d": 3}}),
        ("sweep", {"task": {"n_samples": 0}}),
        ("sweep", {"sweep": {"n_experts_grid": [2], "top_k_grid": [3]}}),
        # a starting K outside the adapt bounds fails before the first adapt
        ("train", {"train": {"init_experts": 8, "steps": 400}, "adapt": {"max_experts": 4}}),
        ("sweep", {"train": {"init_experts": 1}, "adapt": {"min_experts": 2}}),
        # removed keys are unknown keys; n_classes 1 used to fail at the first step
        ("train", {"train": {"n_classes": 1}}),
        ("train", {"train": {"eval_fraction": 0.5}}),
        ("train", {"train": {"optimizer": {"beta1": 0.9}}}),
    ])
    def test_bad_section_exits_before_the_run(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path / "c.json", **section)
        assert main([command, str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for key in {"n_classes", "eval_fraction", "optimizer"} & set(section.get("train", {})):
            assert f"unknown key(s): ['train.{key}']" in err
        assert not (tmp_path / "r").exists()

    def test_adapt_flag_with_adapt_null_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", adapt=None)
        assert main(["train", str(cfg), "--check-interval", "20"]) == 2
        assert "--check-interval" in capsys.readouterr().err

    def test_eval_scores_the_held_out_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        run = tmp_path / "r"
        assert main(["train", str(cfg), "--seed", "6", "--out", str(run)]) == 0
        out = tmp_path / "e"
        # the run's own config is its snapshot, flags included
        assert main(["eval", str(run / "checkpoint.final"), str(run / "config.snapshot"),
                     "--out", str(out)]) == 0
        trained = json.loads((run / "artifacts.json").read_text())
        scored = json.loads((out / "artifacts.json").read_text())
        assert scored["final_accuracy"] == trained["final_accuracy"]
        assert scored["mean_k"] == trained["mean_k"]
