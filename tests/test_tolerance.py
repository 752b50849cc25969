"""Every library entry point that takes a tolerance rejects one that is no bound.

An infinite tolerance passed a product state as masked, and a NaN one
failed every trial of a correct campaign; both now raise ValueError at
the call, as ``--tol`` does at the command line.  So do a bool, which ran
as 1.0, and a value that is no real number, which raised TypeError.
"""

import ast
import math
from pathlib import Path

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


def param_defaults(name: str) -> dict[str, str]:
    """Every default of a parameter called ``name`` in the package, as source text by ``module.function``."""
    found = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "anyonmask").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
                found.update({f"{path.stem}.{node.name}": ast.unparse(default)
                              for arg, default in pairs if arg.arg == name})
    return found


def test_every_tol_default_is_default_tol():
    # one default bound: a library call without tol checks what the CLI checks without --tol
    defaults = param_defaults("tol")
    assert {"masker.verify_masking", "braid.verify_invariance"} <= set(defaults)
    assert {name: text for name, text in defaults.items() if text != "DEFAULT_TOL"} == {}
