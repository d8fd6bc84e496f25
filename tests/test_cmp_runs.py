import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("cmp_runs", ROOT / "tools" / "cmp_runs.py")
cmp_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cmp_runs)

SHORT = {"task": {"n_samples": 400}, "train": {"steps": 30, "eval_every": 15},
         "adapt": {"check_interval": 10}}


def test_checkout_against_itself_is_identical(monkeypatch):
    runs = [("short", SHORT, ["train"])]
    compared, diff_dirs = [], cmp_runs.diff_dirs

    def spy(a, b):
        compared.extend(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        return diff_dirs(a, b)

    monkeypatch.setattr(cmp_runs, "diff_dirs", spy)
    assert cmp_runs.compare(ROOT, ROOT, runs, demos=["01_top_any_gating.py"]) == []
    assert {"checkpoint.final", "eval/metrics.csv", "eval/artifacts.json",
            "report/k_trajectory.csv", "report/eval_accuracy.csv",
            "train.stdout", "eval.stdout", "report.stdout",
            "01_top_any_gating.stdout"} <= set(compared)


def test_main_counts_the_source_lines_of_both_trees(monkeypatch, capsys):
    # a checkout against itself: the same count on both sides, the one
    # wc -l gives for src/dynmoe/*.py
    n = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "dynmoe").glob("*.py"))
    assert n > 0 and cmp_runs.src_lines(ROOT) == n
    monkeypatch.setattr(cmp_runs, "compare", lambda *trees: [])
    assert cmp_runs.main([str(ROOT), "--tree", str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(cmp_runs.RUNS)} runs, {len(cmp_runs.DEMOS)} demos, 0 differing file(s), "
        "0 unexpected",
        f"src/dynmoe: {n} -> {n} lines"]


def test_diff_dirs_names_changed_and_one_sided_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("1,2\n")
    (a / "run" / "metrics.csv").write_text("1.0\n")
    (b / "run" / "metrics.csv").write_text("1.0000000000000002\n")
    (a / "only_a.json").write_text("{}")
    assert cmp_runs.diff_dirs(a, b) == ["only_a.json", "run/metrics.csv"]


def test_expect_names_the_files_allowed_to_differ(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, text in ((a, "1\n"), (b, "2\n")):
        for rel in ("default/config.snapshot", "sweep/dynmoe/config.snapshot",
                    "default/eval/metrics.csv"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    monkeypatch.setattr(cmp_runs, "compare", lambda *trees: cmp_runs.diff_dirs(a, b))
    snapshots = ["default/config.snapshot", "sweep/dynmoe/config.snapshot"]
    assert cmp_runs.split_expected(cmp_runs.diff_dirs(a, b), ["config.snapshot"]) == \
        (snapshots, ["default/eval/metrics.csv"])

    assert cmp_runs.main([str(a), "--expect", "config.snapshot"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [*(f"differs (expected): {rel}" for rel in snapshots),
                       "differs (unexpected): default/eval/metrics.csv"]
    assert out[3].endswith("3 differing file(s), 1 unexpected")
    assert cmp_runs.main([str(a), "--expect", "config.snapshot", "--expect", "metrics.csv"]) == 0
    assert cmp_runs.main([str(a)]) == 1
