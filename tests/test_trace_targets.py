"""Every function the bench tracer wraps exists in the package.

``bench/tracer.py`` looks up each ``(module, function)`` of its
``TARGETS`` with ``getattr`` and a traced run dies on a missing one.
Several targets (``exchange``, ``circle``, ``tripartite_braid``,
``qstate.norm``) have no caller inside the package, so nothing else
notices their removal.  The table is read with ``ast``, so the bench
itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return [(row.elts[0].value, row.elts[1].value) for row in table.elts]


def test_every_traced_function_resolves():
    targets = _targets()
    assert ("braid", "exchange") in targets and ("qstate", "norm") in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"anyonmask.{module}"), name, None))
    ]
    assert missing == []
