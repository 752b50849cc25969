"""Every refusal of the package is a row, and one function, ``check``, checks every row.

A library row, ``refuse(error, match, entry, *args, **kwargs)``, names an
entry point, its arguments, the exception it must raise and a pattern its
message must match (``re.search``, as ``pytest.raises`` reads it; None
checks the type only).  A CLI row, ``refuse_argv(err, *argv)``, gives the argv of
``cli.main`` (``{tmp}`` is a fresh empty directory), any
``ANYONMASK_SEED``, whether argparse raises ``SystemExit(2)`` or ``main``
returns 2, and a pattern searched in stderr; every CLI row also runs with
warnings as errors and must print nothing to stdout, no traceback to
stderr, and write no file.

``test_x = refusals(row, ...)`` is a test of rows, written beside the
other tests of the code the rows call.  Rows given an ``id`` make one
parameter each, every row of that id in it; rows with none make one test.
A new refusal is one more row, and a refusal that is one step of a
longer test calls ``check``: the guard at the end fails on
``pytest.raises`` outside ``check``, but in the files it names.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import pytest

from anyonmask.anyons import abelian_c0, ising_like
from anyonmask.cli import main
from anyonmask.masker import abelian_standard_scheme, ising_cyclic_scheme

# rows are built at import, before any fixture, so they share these
ABELIAN, ISING = abelian_c0(), ising_like(1)
ABELIAN_SCHEME, ISING_SCHEME = abelian_standard_scheme(), ising_cyclic_scheme()


@dataclass(frozen=True)
class Call:
    entry: Callable
    args: tuple
    kwargs: dict
    error: type[Exception]
    match: Optional[str]
    id: Optional[str] = None


@dataclass(frozen=True)
class Cli:
    argv: tuple[str, ...]
    err: str
    exits: bool = False
    env: Optional[str] = None
    id: Optional[str] = None


def refuse(error: type[Exception], match: Optional[str], entry: Callable, /, *args: Any, id: Optional[str] = None,
           **kwargs: Any) -> Call:
    return Call(entry, args, kwargs, error, match, id)


def refuse_argv(err: str, *argv: str, exits: bool = False, env: Optional[str] = None,
                id: Optional[str] = None) -> Cli:
    return Cli(argv, err, exits, env, id)


def whole(text: str) -> str:
    """The pattern of exactly ``text``."""
    return f"^{re.escape(text)}\\Z"


def check(row: Call | Cli, tmp_path, monkeypatch, capsys):
    if isinstance(row, Call):
        with pytest.raises(row.error, match=row.match):
            row.entry(*row.args, **row.kwargs)
        return
    if row.env is None:
        monkeypatch.delenv("ANYONMASK_SEED", raising=False)
    else:
        monkeypatch.setenv("ANYONMASK_SEED", row.env)
    argv = [arg.format(tmp=tmp_path) for arg in row.argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if row.exits:
            with pytest.raises(SystemExit) as stop:
                main(argv)
            code = stop.value.code
        else:
            code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert re.search(row.err, err) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def refusals(*rows: Call | Cli):
    """The test that checks ``rows``, in a class or at module level."""
    groups: dict[Optional[str], list] = {}
    for row in rows:
        groups.setdefault(row.id, []).append(row)
    if list(groups) == [None]:
        def test(tmp_path, monkeypatch, capsys):
            for row in rows:
                check(row, tmp_path, monkeypatch, capsys)
    else:
        @pytest.mark.parametrize("rows", [pytest.param(rows, id=id) for id, rows in groups.items()])
        def test(rows, tmp_path, monkeypatch, capsys):
            for row in rows:
                check(row, tmp_path, monkeypatch, capsys)
    return staticmethod(test)


# files whose refusals are no rows, and why
NOT_ROWS = {
    "test_refusals.py": "check, which checks every row",
    "test_batch.py": "bit-for-bit cross-checks, whose refusals need a patched draw or a foreign row array",
    "test_acceptance.py": "the acceptance criteria, which check results",
}


def _is_pytest_raises(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "raises" and isinstance(node.value, ast.Name) and node.value.id == "pytest"
    if isinstance(node, ast.ImportFrom):
        return node.module == "pytest" and any(alias.name == "raises" for alias in node.names)
    return False


def test_a_refusal_is_a_row():
    # a new refusal is one more row, not one more test function; a step of a longer test calls check
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name not in NOT_ROWS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _is_pytest_raises(node)
    ]
    assert found == []
