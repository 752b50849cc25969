"""Phases are exact eighths of pi; one function in the package turns them into floats.

The model tables hold exchange phases and spins as integer eighths, the
readers in ``anyons.py`` (``r_angle``, ``monodromy_angle``) return eighths,
and each per-ket rule in ``braid.py`` returns its image as (ket, phase in
eighths, split flag).  ``_compile_kets`` alone converts a phase with
``phase_from_eighths`` and a split with ``_INV_SQRT2``.  A float made
anywhere else in ``src/anyonmask`` is a second copy of that conversion, and
a step away from exact amplitudes.

The dense path is then an exact linear map: ``_braid_dense`` composes the
gathers and prunes nothing, and a channel conflict is table data that
``_gather`` alone turns into ``ChannelConflictError``.

The seeded inputs have one source too: ``trials.random_unit_coeffs``
alone draws from the generator, so a seed names the same trials in a
batch and one at a time.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anyonmask"
BRAID = PACKAGE / "braid.py"
FLOAT_NAMES = {"phase_from_eighths", "_INV_SQRT2"}


def _name(node: ast.AST) -> str | None:
    """The name a read refers to, by plain or dotted name."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _uses(node: ast.AST) -> list[ast.AST]:
    """The reads of a float name under ``node``."""
    return [sub for sub in ast.walk(node) if _name(sub) in FLOAT_NAMES]


def _tree(path: Path = BRAID) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (node,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_only_compile_kets_turns_braid_phases_into_floats():
    # every module: the definition and the __init__ re-export are no reads
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    inside = _uses(_function(trees["braid.py"], "_compile_kets"))
    outside = [
        f"{name}:{sub.lineno}"
        for name, tree in trees.items()
        for sub in _uses(tree)
        if all(sub is not use for use in inside)
    ]
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


def test_only_random_unit_coeffs_draws_normals():
    def draws(node: ast.AST) -> int:
        return sum(_name(sub) == "standard_normal" for sub in ast.walk(node))

    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    inside = draws(_function(trees["trials.py"], "random_unit_coeffs"))
    assert inside >= 1
    assert {name: draws(tree) for name, tree in trees.items() if draws(tree)} == {"trials.py": inside}
