import importlib.util
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lockstep", ROOT / "tools" / "lockstep.py")
lockstep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lockstep)

STEPS = 12


def run_against_itself(monkeypatch, **lead) -> tuple[dict, list[int]]:
    """The result of a short desk run of this checkout against itself, and
    the side holding the token before each step."""
    desk = lockstep.load_module("lockstep_workloads",
                                ROOT / "bench" / "workloads.py").WORKLOADS["desk-discovery"]
    spec = {**desk, "train": {**desk["train"], "steps": STEPS, "eval_every": 6},
            "adapt": {**desk["adapt"], "check_interval": 4}}
    sides, swap = [], lockstep.Turns.swap

    def spy(turns, side):
        sides.append(side)  # the caller holds the token here
        swap(turns, side)

    monkeypatch.setattr(lockstep.Turns, "swap", spy)
    result = {}
    runner = threading.Thread(
        target=lambda: result.update(lockstep.lockstep(ROOT, ROOT, spec, **lead)), daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "the two trees deadlocked"
    assert result["identical"]
    assert len(result["parent"]) == len(result["tree"]) == STEPS
    return result, sides


def test_checkout_against_itself_alternates_and_matches(monkeypatch):
    assert run_against_itself(monkeypatch)[1] == [0, 1] * STEPS


def test_the_tree_can_lead(monkeypatch):
    assert run_against_itself(monkeypatch, lead=1)[1] == [1, 0] * STEPS


def test_main_reports_both_orders(monkeypatch, capsys):
    leads = []

    def fake(parent_tree, tree, spec, lead):
        leads.append(lead)
        slow = [2.0, 2.0, 2.0, 2.0]  # the side taking the first step is slower
        fast = [1.0, 1.0, 1.0, 1.0]
        return {"parent": slow if lead == 0 else fast, "tree": fast if lead == 0 else slow,
                "identical": True}

    monkeypatch.setattr(lockstep, "lockstep", fake)
    for var in lockstep.THREAD_VARS:  # main pins them; restored after the test
        monkeypatch.setenv(var, "1")
    assert lockstep.main([str(ROOT)]) == 0
    assert leads == [0, 1]
    ratios = [line.strip() for line in capsys.readouterr().out.splitlines() if "ratio" in line]
    assert ratios == ["ratio tree/parent: median 0.5000, upper quartile 0.5000",
                      "ratio tree/parent: median 2.0000, upper quartile 2.0000",
                      "ratio tree/parent: median 1.0000, upper quartile 1.0000"]
