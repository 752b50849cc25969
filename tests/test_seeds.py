"""Every seeded entry point rejects a seed that names no reproducible run.

None drew from fresh OS entropy and recorded ``"seed": null``, True ran
as seed 1, and -1 raised numpy's own message naming neither the argument
nor the flag.  Each now raises ValueError at the call, and the CLI exits
2 naming ``--seed`` or ``ANYONMASK_SEED``.  A trial count goes through the
same integer test and must also be positive: True ran one trial recorded
as ``"trials": true``, and 2.5 or None raised TypeError from ``range``.
"""

import json
import re

import numpy as np
import pytest

from anyonmask.braid import parse_ops, verify_invariance
from anyonmask.cli import main
from anyonmask.masker import encoder_rows, run_masking_campaign
from anyonmask.qstate import check_seed
from anyonmask.trials import evaluate_trials
from test_refusals import ISING_SCHEME, refusals, refuse, refuse_argv

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
