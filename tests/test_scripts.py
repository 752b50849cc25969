"""Smoke runs of the experiment scripts, so that they cannot rot unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "masking_campaign.py": (["--trials", "5"], ["scheme", "trials", "abelian-c0 d=4", "ising-c1 d=3", "pass"]),
    "braid_survey.py": (
        ["--max-len", "1", "--trials", "3"],
        ["ising-c1: 6 sequences x 3 trials", "all sequences preserve masking"],
    ),
    "teleport_demo.py": (["--random", "1"], ["input random 0:", "verdict: pass"]),
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, expected = RUNS[script]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for text in expected:
        assert text in done.stdout
    assert "fail" not in done.stdout
