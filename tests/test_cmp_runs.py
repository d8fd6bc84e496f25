import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("cmp_runs", ROOT / "tools" / "cmp_runs.py")
cmp_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cmp_runs)

SHORT = {"task": {"n_samples": 400}, "train": {"steps": 30, "eval_every": 15},
         "adapt": {"check_interval": 10}}


def test_checkout_against_itself_is_identical():
    runs = [("short", SHORT, ["train"])]
    assert cmp_runs.compare(ROOT, ROOT, runs) == []


def test_diff_dirs_names_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("1,2\n")
    (a / "run" / "metrics.csv").write_text("1.0\n")
    (b / "run" / "metrics.csv").write_text("1.0000000000000002\n")
    (a / "only_a.json").write_text("{}")
    assert cmp_runs.diff_dirs(a, b) == ["only_a.json", "run/metrics.csv"]
