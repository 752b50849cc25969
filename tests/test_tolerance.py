"""Every library entry point that takes a tolerance rejects one that is no bound.

An infinite tolerance passed a product state as masked, and a NaN one
failed every trial of a correct campaign; both now raise ValueError at
the call, as ``--tol`` does at the command line.  So do a bool, which ran
as 1.0, and a value that is no real number, which raised TypeError.
"""

import math

import pytest

from anyonmask.braid import parse_ops, verify_invariance
from anyonmask.masker import encode, encoder_rows, run_masking_campaign, verify_masking
from anyonmask.qstate import basis_state
from anyonmask.teleport import run_teleport
from anyonmask.trials import evaluate_trials
from test_refusals import ISING_SCHEME, refusals, refuse


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 1.0, 1e300])
def test_finite_positive_tol_accepted(ising_scheme, tol):
    report = verify_masking(encode(ising_scheme, [1.0, 0.0, 0.0]), ising_scheme.model.alphabet, tol=tol)
    assert report.tol == tol


BAD_TOLS = [math.inf, math.nan, 0.0, -1.0, True, "1e-12", None]


ENTRY_POINTS = {
    "verify_masking": lambda s, tol: verify_masking(basis_state(("1", "1", "1")), s.model.alphabet, tol=tol),
    "run_masking_campaign": lambda s, tol: run_masking_campaign(s, 5, 1, tol=tol),
    "verify_invariance": lambda s, tol: verify_invariance(s, parse_ops("xAB"), 5, tol=tol),
    "evaluate_trials": lambda s, tol: evaluate_trials(encoder_rows(s), 5, 1, tol),
    "run_teleport": lambda s, tol: run_teleport([1.0, 0.0, 0.0], tol=tol),
}

test_bad_tol_rejected = refusals(*(
    refuse(ValueError, "tol must be finite and positive", ENTRY_POINTS[name], ISING_SCHEME, tol, id=f"{name}-{tol}")
    for name in sorted(ENTRY_POINTS)
    for tol in BAD_TOLS
))
