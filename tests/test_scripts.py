"""Smoke runs of the experiment scripts, so that they cannot rot unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "braid_survey.py": (
        ["--max-len", "1", "--trials", "3"],
        ["ising-c1: 6 sequences x 3 trials", "all sequences preserve masking within 1e-12"],
    ),
}

# (script, argv, error): numbers are read as the command line reads them, and a
# count, seed or tolerance it refuses exits 2 with argparse's error, as a flag of the CLI does
REFUSED = [
    ("braid_survey.py", ["--max-len", "0"], "error: --max-len must be a positive integer, got 0"),
    ("braid_survey.py", ["--trials", "1_0"], "error: argument --trials: invalid int value: '1_0'"),
    ("braid_survey.py", ["--seed", "-1"], "error: --seed must be a non-negative integer, got -1"),
    ("braid_survey.py", ["--tol", "nan"], "error: --tol must be finite and positive, got nan"),
]


def run(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, expected = RUNS[script]
    done = run(script, args)
    assert done.returncode == 0, done.stderr
    for text in expected:
        assert text in done.stdout
    assert "fail" not in done.stdout


@pytest.mark.parametrize(
    "script, args, error", REFUSED, ids=[" ".join([script, *args]) for script, args, _ in REFUSED]
)
def test_script_refuses_what_the_cli_refuses(script, args, error):
    done = run(script, args)
    assert (done.returncode, done.stdout) == (2, "")
    assert error in done.stderr and "Traceback" not in done.stderr
