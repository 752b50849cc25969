"""The braid rules are exact; one function turns them into floats.

Each per-ket rule in ``braid.py`` returns its image as (ket, phase in
eighths of pi, split flag), and ``_compile_kets`` alone converts a phase
with ``phase_from_eighths`` and a split with ``_INV_SQRT2``.  A float made
anywhere else is a second copy of that conversion, and a step away from
exact amplitudes.
"""

import ast
from pathlib import Path

BRAID = Path(__file__).resolve().parents[1] / "src" / "anyonmask" / "braid.py"
FLOAT_NAMES = {"phase_from_eighths", "_INV_SQRT2"}


def _name(node: ast.AST) -> str | None:
    """The name a read refers to, by plain or dotted name."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _uses(node: ast.AST) -> list[ast.AST]:
    """The reads of a float name under ``node``."""
    return [sub for sub in ast.walk(node) if _name(sub) in FLOAT_NAMES]


def test_only_compile_kets_turns_braid_phases_into_floats():
    tree = ast.parse(BRAID.read_text(encoding="utf-8"), str(BRAID))
    (compile_kets,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_compile_kets"
    ]
    inside = _uses(compile_kets)
    outside = [f"braid.py:{sub.lineno}" for sub in _uses(tree) if all(sub is not use for use in inside)]
    assert outside == []
    assert {_name(use) for use in inside} == FLOAT_NAMES
