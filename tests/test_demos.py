"""The quick demos run end to end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_top_any_gating.py",
    "02_aux_loss_and_gradients.py",
    "03_adaptive_experts.py",
    "04_skill_discovery.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
