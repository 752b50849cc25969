"""Latin squares over sector alphabets and (A, B, C) masking triples.

Squares store alphabet indices, not labels; binding to a concrete model
happens in the encoder.  The combinatorics is model-independent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .qstate import ValidationReport, check_seed, first_repeat

MOLS_SEARCH_BOUND = 5


@dataclass(frozen=True)
class Square:
    """A d x d array of alphabet indices."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.cells)
        if d == 0:
            raise ValueError("a square needs at least one row")
        cells = tuple(
            tuple(check_seed(x, f"cell ({j}, {k})") for k, x in enumerate(row))
            for j, row in enumerate(self.cells)
        )
        for row in cells:
            if len(row) != d:
                raise ValueError("square rows must all have length d")
            for x in row:
                if x >= d:
                    raise ValueError(f"cell value {x} outside 0..{d - 1}")
        object.__setattr__(self, "cells", cells)

    @property
    def d(self) -> int:
        return len(self.cells)


def is_latin(square: Square) -> bool:
    """True iff every value appears exactly once per row and per column."""
    full = set(range(square.d))
    return all(set(line) == full for line in (*square.cells, *zip(*square.cells)))


def are_orthogonal(s1: Square, s2: Square) -> bool:
    """True iff the d^2 ordered cell pairs (s1[j][k], s2[j][k]) are all distinct."""
    if s1.d != s2.d:
        raise ValueError(f"order mismatch: {s1.d} vs {s2.d}")
    pairs = {
        (s1.cells[j][k], s2.cells[j][k])
        for j in range(s1.d)
        for k in range(s1.d)
    }
    return len(pairs) == s1.d * s1.d


def cyclic_square(d: int, direction: str = "forward") -> Square:
    """Rows are successive powers of the cyclic permutation acting on 0..d-1.

    Row r of the forward square is the alphabet rotated right r times
    (cell (r, k) holds (k - r) mod d); the backward square rotates left
    (cell (r, k) holds (k + r) mod d).  Row 0 is always the identity.
    """
    d = check_seed(d, "order d", positive=True)
    if direction == "forward":
        sign = -1
    elif direction == "backward":
        sign = +1
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return Square(tuple(tuple((k + sign * r) % d for k in range(d)) for r in range(d)))


@lru_cache(maxsize=16)  # the A of each built-in triple, and validate_triple's first test; a Square is frozen
def constant_row_square(d: int) -> Square:
    return Square(tuple(tuple(range(d)) for _ in range(d)))


def constant_column_square(d: int) -> Square:
    return Square(tuple(tuple(j for _ in range(d)) for j in range(d)))


@dataclass(frozen=True)
class SchemeTriple:
    """An (A, B, C) triple of equal-order squares used by the tripartite encoder."""

    a: Square
    b: Square
    c: Square

    def __post_init__(self) -> None:
        if not (self.a.d == self.b.d == self.c.d):
            raise ValueError("A, B, C must share one order")

    @property
    def d(self) -> int:
        return self.a.d


def validate_triple(triple: SchemeTriple) -> ValidationReport:
    """Check the triple invariants, naming each violation.

    B and C must be mutually orthogonal Latin squares; A must be a
    constant-row or constant-column square, or a third Latin square
    orthogonal to both.
    """
    bad: list[str] = []
    if not is_latin(triple.b):
        bad.append("B-not-latin")
    if not is_latin(triple.c):
        bad.append("C-not-latin")
    if not bad and not are_orthogonal(triple.b, triple.c):
        bad.append("B-C-not-orthogonal")
    if triple.a != constant_row_square(triple.d) and triple.a != constant_column_square(triple.d):
        if not is_latin(triple.a):
            bad.append("A-not-constant-or-latin")
        elif not (are_orthogonal(triple.a, triple.b) and are_orthogonal(triple.a, triple.c)):
            bad.append("A-latin-but-not-orthogonal-to-B-and-C")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def standard_squares_d4() -> SchemeTriple:
    """The built-in order-4 triple: constant-row A with the standard MOLS pair."""
    b = Square(
        (
            (0, 1, 2, 3),
            (1, 0, 3, 2),
            (2, 3, 0, 1),
            (3, 2, 1, 0),
        )
    )
    c = Square(
        (
            (0, 1, 2, 3),
            (3, 2, 1, 0),
            (1, 0, 3, 2),
            (2, 3, 0, 1),
        )
    )
    return SchemeTriple(a=constant_row_square(4), b=b, c=c)


def cyclic_triple(d: int) -> SchemeTriple:
    """Constant-row A with the forward/backward cyclic MOLS pair (odd d >= 3)."""
    return SchemeTriple(
        a=constant_row_square(d),
        b=cyclic_square(d, "forward"),
        c=cyclic_square(d, "backward"),
    )


def _latin_squares(d: int, mate_of: Optional[Square] = None) -> Iterator[Square]:
    """All Latin squares with identity first row, in lexicographic row order.

    With ``mate_of``, only its orthogonal mates: the squares in which each
    (``mate_of`` cell, cell) pair occurs once.  Without it, the pairs are
    keyed by cell position and so never repeat.
    """
    key = mate_of.cells if mate_of is not None else [range(j * d, j * d + d) for j in range(d)]
    cells = [list(range(d))] + [[0] * d for _ in range(d - 1)]
    row_used = [set(range(d))] + [set() for _ in range(d - 1)]
    col_used = [{k} for k in range(d)]
    pairs_used = set(zip(key[0], cells[0]))

    def fill(p: int) -> Iterator[Square]:
        if p == d * d:
            yield Square(cells)
            return
        j, k = divmod(p, d)
        row, col, label = row_used[j], col_used[k], key[j][k]
        for v in range(d):
            pair = (label, v)
            if v in row or v in col or pair in pairs_used:
                continue
            cells[j][k] = v
            row.add(v)
            col.add(v)
            pairs_used.add(pair)
            yield from fill(p + 1)
            row.remove(v)
            col.remove(v)
            pairs_used.remove(pair)

    yield from fill(d)


def find_mols_pair(d: int) -> Optional[tuple[Square, Square]]:
    """Deterministic search for a mutually orthogonal Latin pair of order d.

    Enumerates identity-first-row squares in lexicographic order (symbol
    relabeling loses no generality), so repeated calls return the same
    pair.  Returns None when no pair exists.  Bounded to d <= 5.
    """
    d = check_seed(d, "order d", positive=True)
    if d > MOLS_SEARCH_BOUND:
        raise ValueError(f"search is bounded to d <= {MOLS_SEARCH_BOUND}, got {d}")
    for s1 in _latin_squares(d):
        mate = next(_latin_squares(d, s1), None)
        if mate is not None:
            return s1, mate
    return None


def square_to_text(square: Square, alphabet: Sequence[str]) -> str:
    """One row per line, labels space-separated."""
    if len(alphabet) != square.d:
        raise ValueError("alphabet size must equal the square order")
    return "\n".join(" ".join(alphabet[x] for x in row) for row in square.cells) + "\n"


def parse_square(text: str, alphabet: Sequence[str]) -> Square:
    index = {label: i for i, label in enumerate(alphabet)}
    if len(index) != len(alphabet):
        raise ValueError(f"alphabet repeats the label {first_repeat(alphabet)!r}")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(tuple(index[token] for token in line.split()))
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r} for alphabet {tuple(alphabet)}") from None
    if len(rows) != len(alphabet):
        raise ValueError(f"expected {len(alphabet)} rows, got {len(rows)}")
    return Square(tuple(rows))


def triple_to_text(triple: SchemeTriple, alphabet: Sequence[str]) -> str:
    """A, B, C grids separated by blank lines."""
    return "\n".join(
        square_to_text(s, alphabet) for s in (triple.a, triple.b, triple.c)
    )


def parse_triple(text: str, alphabet: Sequence[str]) -> SchemeTriple:
    blocks = [block for block in re.split(r"\n\s*\n", text) if block.strip()]
    if len(blocks) != 3:
        raise ValueError(f"expected three blank-line-separated grids, got {len(blocks)}")
    a, b, c = (parse_square(block, alphabet) for block in blocks)
    return SchemeTriple(a=a, b=b, c=c)
