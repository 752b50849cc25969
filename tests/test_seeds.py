"""Every seeded entry point rejects a seed that names no reproducible run.

None drew from fresh OS entropy and recorded ``"seed": null``, True ran
as seed 1, and -1 raised numpy's own message naming neither the argument
nor the flag.  Each now raises ValueError at the call, and the CLI exits
2 naming ``--seed`` or ``ANYONMASK_SEED``.  A trial count goes through the
same integer test and must also be positive: True ran one trial recorded
as ``"trials": true``, and 2.5 or None raised TypeError from ``range``.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from anyonmask.braid import parse_ops, verify_invariance
from anyonmask.cli import main
from anyonmask.masker import DEFAULT_SEED, DEFAULT_TRIALS, encoder_rows, ising_cyclic_scheme, run_masking_campaign
from anyonmask.qstate import check_seed
from anyonmask.trials import evaluate_trials
from test_refusals import ISING_SCHEME, refusals, refuse, refuse_argv
from test_tolerance import param_defaults

ROOT = Path(__file__).resolve().parents[1]

ENTRY_POINTS = {
    "evaluate_trials": lambda s, seed=3, trials=5: evaluate_trials(encoder_rows(s), trials, seed, 1e-12),
    "run_masking_campaign": lambda s, seed=3, trials=5: run_masking_campaign(s, trials, seed),
    "verify_invariance": lambda s, seed=3, trials=5: verify_invariance(s, parse_ops("xAB"), trials, seed=seed),
}


def test_a_seed_of_any_size_runs(ising_scheme):
    assert ENTRY_POINTS["evaluate_trials"](ising_scheme, 2**70).failed_trials == 0
    for name in ("run_masking_campaign", "verify_invariance"):
        result = ENTRY_POINTS[name](ising_scheme, 2**70)
        assert result.verdict and result.record()["seed"] == 2**70


@pytest.mark.parametrize("seed", [0, 7, np.int64(5), 2**70, np.uint8(5)])
def test_integers_pass(seed):
    value = check_seed(seed)
    assert type(value) is int and value == seed


def test_cli_huge_seed_runs(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--model", "ising", "--trials", "5", "--seed", str(2**70), "--out", str(out)]) == 0
    assert f'"seed": {2**70}' in out.read_text()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_numpy_integer_trial_count_runs(ising_scheme, name):
    got, want = (ENTRY_POINTS[name](ising_scheme, trials=count) for count in (np.int64(5), 5))
    if name == "evaluate_trials":
        assert got == want and got.failed_trials == 0
    else:
        assert got.record() == want.record() and got.verdict


@pytest.mark.parametrize("name", ["run_masking_campaign", "verify_invariance"])
def test_a_record_of_numpy_integers_serializes(ising_scheme, name):
    # the record used to keep the numpy integers, and json.dumps raised TypeError
    got = ENTRY_POINTS[name](ising_scheme, seed=np.int64(3), trials=np.int64(5)).record()
    want = ENTRY_POINTS[name](ising_scheme, seed=3, trials=5).record()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


BAD_SEEDS = [None, True, -1, 1.5, "3"]
BAD_TRIAL_COUNTS = [True, 0, -1, 2.5, 3.0, None, "3"]
test_bad_seed_rejected = refusals(*(
    refuse(ValueError, "seed must be a non-negative integer", ENTRY_POINTS[name], ISING_SCHEME, seed,
           id=f"{name}-{seed!r}")
    for name in sorted(ENTRY_POINTS)
    for seed in BAD_SEEDS
))
test_the_message_names_the_argument = refusals(
    refuse(ValueError, r"--seed must be a non-negative integer, got -1", check_seed, -1, "--seed"))
test_bad_trial_count_rejected = refusals(*(
    refuse(ValueError, f"trials must be a positive integer, got {re.escape(repr(count))}",
           ENTRY_POINTS[name], ISING_SCHEME, trials=count, id=f"{name}-{count!r}")
    for name in sorted(ENTRY_POINTS)
    for count in BAD_TRIAL_COUNTS
))
test_cli_negative_seed_exits_2 = refusals(
    refuse_argv(re.escape("error: --seed must be a non-negative integer, got -1"),
                "verify", "--model", "ising", "--trials", "5", "--seed", "-1", id="verify"),
    refuse_argv(re.escape("error: --seed must be a non-negative integer, got -1"),
                "braid", "--model", "ising", "--trials", "5", "--seed", "-1", "--ops", "xAB", id="braid"),
    refuse_argv(re.escape("error: ANYONMASK_SEED must be a non-negative integer, got -3"),
                "verify", "--model", "ising", "--trials", "5", env="-3", id="verify"),
    refuse_argv(re.escape("error: ANYONMASK_SEED must be a non-negative integer, got -3"),
                "braid", "--model", "ising", "--trials", "5", "--ops", "xAB", env="-3", id="braid"),
)


def test_every_seed_and_trials_default_is_the_shared_one():
    # one default run: a library call without seed or trials runs what the CLI runs without --seed or --trials
    for name, shared in (("seed", "DEFAULT_SEED"), ("trials", "DEFAULT_TRIALS")):
        defaults = param_defaults(name)
        assert "braid.verify_invariance" in defaults
        assert {function: text for function, text in defaults.items() if text != shared} == {}


def option_defaults(path: Path) -> dict[str, str]:
    """The ``default`` of every ``add_argument`` call in ``path``, as source text by option."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            found.update({node.args[0].value: ast.unparse(kw.value) for kw in node.keywords if kw.arg == "default"})
    return found


def test_every_seed_and_trials_option_reads_the_shared_default():
    cli_options = option_defaults(ROOT / "src" / "anyonmask" / "cli.py")
    survey_options = option_defaults(ROOT / "scripts" / "braid_survey.py")
    # the CLI's --seed stays None, so that ANYONMASK_SEED is read before DEFAULT_SEED
    assert (cli_options["--trials"], cli_options["--seed"]) == ("DEFAULT_TRIALS", "None")
    assert (survey_options["--trials"], survey_options["--seed"]) == ("DEFAULT_TRIALS", "DEFAULT_SEED")


def test_the_library_default_braid_run_is_the_clis(tmp_path, monkeypatch):
    # the library defaulted to seed 0 and the CLI to seed 7, so the two default runs recorded different trials
    monkeypatch.delenv("ANYONMASK_SEED", raising=False)
    out = tmp_path / "r.json"
    assert main(["braid", "--model", "ising", "--ops", "xAB", "--out", str(out)]) == 0
    library = verify_invariance(ising_cyclic_scheme(), parse_ops("xAB")).record()
    assert json.dumps(library, sort_keys=True) == json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
    assert (library["seed"], library["trials"]) == (DEFAULT_SEED, DEFAULT_TRIALS)
