import importlib.util
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lockstep", ROOT / "tools" / "lockstep.py")
lockstep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lockstep)


def test_checkout_against_itself_alternates_and_matches(monkeypatch):
    desk = lockstep.load_module("lockstep_workloads",
                                ROOT / "bench" / "workloads.py").WORKLOADS["desk-discovery"]
    steps = 12
    spec = {**desk, "train": {**desk["train"], "steps": steps, "eval_every": 6},
            "adapt": {**desk["adapt"], "check_interval": 4}}
    sides, swap = [], lockstep.Turns.swap

    def spy(turns, side):
        sides.append(side)  # the caller holds the token here
        swap(turns, side)

    monkeypatch.setattr(lockstep.Turns, "swap", spy)
    result = {}
    runner = threading.Thread(target=lambda: result.update(lockstep.lockstep(ROOT, ROOT, spec)),
                              daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "the two trees deadlocked"
    assert result["identical"]
    assert len(result["parent"]) == len(result["tree"]) == steps
    assert sides == [0, 1] * steps
