"""Every integer the package takes passes one rule, ``qstate.check_seed``.

Orders, row indices and teleport outcomes had their own range tests, and
those let a bool or a float through: ``find_mols_pair(True)`` returned a
1 x 1 pair, ``alice_measure(enc, True)`` ran as outcome 1, and
``alice_measure(enc, 2.0)`` failed later with an error that did not name
it.  Each now raises ValueError naming the argument.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from anyonmask.anyons import ISING_ALPHABET
from anyonmask.latin import cyclic_square, find_mols_pair
from anyonmask.qstate import product_basis
from anyonmask.teleport import alice_measure, build_joint, correct, payload_state, permutation_encode
from anyonmask.trials import random_unit_coeffs
from test_refusals import refusals, refuse

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anyonmask"


def encoded():
    return permutation_encode(build_joint([1.0, 0.0, 0.0]))


# (call taking the value, the name the message gives, how the value must be)
CALLS = {
    "find_mols_pair": (find_mols_pair, "order d", "positive"),
    "cyclic_square": (cyclic_square, "order d", "positive"),
    "alice_measure": (lambda outcome: alice_measure(encoded(), outcome), "outcome", "positive"),
    "correct": (lambda outcome: correct(payload_state([1.0, 0.0, 0.0]), outcome), "outcome", "positive"),
    "random_unit_coeffs": (lambda d: random_unit_coeffs(d, np.random.default_rng(0)).tolist(), "d", "positive"),
    "random_unit_coeffs-size": (
        lambda size: random_unit_coeffs(3, np.random.default_rng(0), size).tolist(), "size", "positive"
    ),
    "product_basis": (lambda n: product_basis(ISING_ALPHABET, n), "n_registers", "non-negative"),
}

REFUSED = [
    ("find_mols_pair", True),
    ("find_mols_pair", 2.5),
    ("cyclic_square", 2.5),
    ("alice_measure", 2.0),
    ("alice_measure", True),
    ("correct", True),
    # a None d drew one scalar, 0 an empty array, -1 hit numpy's "negative dimensions"
    *(("random_unit_coeffs", value) for value in (None, 0, True, 1.5, -1)),
    *(("random_unit_coeffs-size", value) for value in (0, True, 1.5, -1)),
    # True returned the one-register basis, -1 raised itertools' unnamed error
    *(("product_basis", value) for value in (True, 1.5, None, -1)),
]

test_a_non_integer_is_refused_by_name = refusals(*(
    refuse(ValueError, f"^{argument} must be a {sign} integer, got {re.escape(repr(value))}$", call, value,
           id=f"{name}-{value!r}")
    for name, value in REFUSED
    for call, argument, sign in [CALLS[name]]
))


@pytest.mark.parametrize("name, value", [("find_mols_pair", 3), ("cyclic_square", 3), ("alice_measure", 2),
                                         ("correct", 3), ("random_unit_coeffs", 3), ("random_unit_coeffs-size", 2),
                                         ("product_basis", 2)])
def test_a_numpy_integer_runs_as_the_int_it_holds(name, value):
    call = CALLS[name][0]
    assert call(np.int64(value)) == call(value)


def _calls_operator_index(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator"
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(alias.name == "index" for alias in node.names)
    return False


def test_only_the_integer_rule_calls_operator_index():
    # a second copy of the rule is where the two drift apart
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "qstate.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _calls_operator_index(node)
    ]
    assert found == []
    assert any(map(_calls_operator_index, ast.walk(ast.parse((PACKAGE / "qstate.py").read_text(encoding="utf-8")))))


def test_no_registers_is_one_empty_label_tuple():
    # zero is a count like any other: the basis of a state on no registers
    assert product_basis(ISING_ALPHABET, 0) == ((),)
