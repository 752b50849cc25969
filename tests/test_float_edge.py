"""The braid rules are exact; one function turns them into floats.

Each per-ket rule in ``braid.py`` returns its image as (ket, phase in
eighths of pi, split flag), and ``_compile_kets`` alone converts a phase
with ``phase_from_eighths`` and a split with ``_INV_SQRT2``.  A float made
anywhere else is a second copy of that conversion, and a step away from
exact amplitudes.

The dense path is then an exact linear map: ``_braid_dense`` composes the
gathers and prunes nothing, and a channel conflict is table data that
``_gather`` alone turns into ``ChannelConflictError``.
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


def _tree() -> ast.Module:
    return ast.parse(BRAID.read_text(encoding="utf-8"), str(BRAID))


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (node,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_only_compile_kets_turns_braid_phases_into_floats():
    tree = _tree()
    compile_kets = _function(tree, "_compile_kets")
    inside = _uses(compile_kets)
    outside = [f"braid.py:{sub.lineno}" for sub in _uses(tree) if all(sub is not use for use in inside)]
    assert outside == []
    assert {_name(use) for use in inside} == FLOAT_NAMES


def test_only_gather_raises_a_channel_conflict():
    tree = _tree()

    def raised(node: ast.AST) -> list[ast.Raise]:
        return [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Raise)
            and sub.exc is not None
            and _name(sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc) == "ChannelConflictError"
        ]

    inside = raised(_function(tree, "_gather"))
    assert len(inside) == 1
    assert [f"braid.py:{sub.lineno}" for sub in raised(tree) if sub not in inside] == []


def test_the_dense_path_prunes_nothing():
    assert "PRUNE_EPS" not in {_name(sub) for sub in ast.walk(_function(_tree(), "_braid_dense"))}
