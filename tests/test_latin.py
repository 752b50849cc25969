import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonmask.latin import (
    SchemeTriple,
    Square,
    are_orthogonal,
    constant_column_square,
    constant_row_square,
    cyclic_square,
    cyclic_triple,
    find_mols_pair,
    is_latin,
    parse_square,
    parse_triple,
    square_to_text,
    standard_squares_d4,
    triple_to_text,
    validate_triple,
)
from test_refusals import refusals, refuse, whole

ISING = ("1", "eps", "sigma")


class TestIsLatin:
    def test_standard_b_square(self):
        assert is_latin(standard_squares_d4().b)

    def test_constant_row_a_square_is_not_latin(self):
        assert not is_latin(standard_squares_d4().a)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_repeated_identity_rows_not_latin(self, d):
        square = Square(tuple(tuple(range(d)) for _ in range(d)))
        assert not is_latin(square)

    def test_order_one(self):
        assert is_latin(Square(((0,),)))


# (cells, the cell the message names, the value it shows)
BAD_CELLS = [
    (((0, 1.9), (1.2, 0)), "(0, 1)", "1.9"),
    ((("0", "1"), ("1", "0")), "(0, 0)", "'0'"),
    (((0, 1), (True, 0)), "(1, 0)", "True"),
    (((0, 1), (1, None)), "(1, 1)", "None"),
    (((0, -1), (1, 0)), "(0, 1)", "-1"),
]


class TestSquareCells:
    """A cell is an alphabet index: int() would truncate a float and parse a string."""

    def test_numpy_integers_are_stored_as_ints(self):
        square = Square(((np.int64(0), np.uint8(1)), (np.int32(1), 0)))
        assert square.cells == ((0, 1), (1, 0))
        assert all(type(x) is int for row in square.cells for x in row)
        assert is_latin(square)

    test_a_non_index_cell_is_refused_by_position = refusals(*(
        refuse(ValueError, whole(f"cell {cell} must be a non-negative integer, got {value}"), Square, cells,
               id=f"cells{i}-{cell}-{value}")
        for i, (cells, cell, value) in enumerate(BAD_CELLS)
    ))
    test_a_ragged_row_is_refused = refusals(
        refuse(ValueError, whole("row 1 has length 1, not d = 2"), Square, ((0, 1), (1,))))
    test_a_cell_of_the_order_or_more_is_refused = refusals(
        refuse(ValueError, whole("cell (1, 0) value 2 outside 0..1"), Square, ((0, 1), (2, 0))))
    # validate_triple called a triple of three empty squares valid
    test_an_empty_square_is_refused = refusals(refuse(ValueError, "^a square needs at least one row$", Square, ()))


class TestOrthogonality:
    def test_standard_pair(self):
        triple = standard_squares_d4()
        assert are_orthogonal(triple.b, triple.c)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_square_with_itself_fails(self, d):
        square = cyclic_square(d, "forward")
        assert not are_orthogonal(square, square)

    def test_cyclic_d3_pair(self):
        assert are_orthogonal(cyclic_square(3, "forward"), cyclic_square(3, "backward"))

    @given(st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, da, db):
        if da != db:
            return
        s1 = cyclic_square(da, "forward")
        s2 = cyclic_square(da, "backward")
        assert are_orthogonal(s1, s2) == are_orthogonal(s2, s1)

    test_dimension_mismatch_rejected = refusals(
        refuse(ValueError, "order mismatch", are_orthogonal, cyclic_square(3, "forward"), cyclic_square(4, "forward")))


class TestCyclicSquares:
    def test_d3_forward_cells(self):
        # rows: (1, eps, sigma), (sigma, 1, eps), (eps, sigma, 1)
        assert cyclic_square(3, "forward").cells == ((0, 1, 2), (2, 0, 1), (1, 2, 0))

    def test_d3_backward_cells(self):
        # rows: (1, eps, sigma), (eps, sigma, 1), (sigma, 1, eps)
        assert cyclic_square(3, "backward").cells == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_order_one(self):
        assert cyclic_square(1, "forward").cells == ((0,),)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_always_latin(self, d, direction):
        assert is_latin(cyclic_square(d, direction))

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_forward_backward_orthogonal_for_odd_d(self, d):
        fwd = cyclic_square(d, "forward")
        bwd = cyclic_square(d, "backward")
        # exhaustive pair check, not just the library predicate
        pairs = {
            (fwd.cells[j][k], bwd.cells[j][k]) for j in range(d) for k in range(d)
        }
        assert len(pairs) == d * d
        assert are_orthogonal(fwd, bwd)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_row_zero_is_identity(self, d):
        for direction in ("forward", "backward"):
            assert cyclic_square(d, direction).cells[0] == tuple(range(d))

    @pytest.mark.parametrize(
        "square",
        [cyclic_square(3, "forward"), cyclic_square(5, "backward"), standard_squares_d4().b],
        ids=["fwd3", "bwd5", "std4"],
    )
    def test_each_value_forms_a_transversal(self, square):
        d = square.d
        for value in range(d):
            cells = [(j, k) for j in range(d) for k in range(d) if square.cells[j][k] == value]
            assert len(cells) == d
            assert len({j for j, _ in cells}) == d
            assert len({k for _, k in cells}) == d

    test_bad_direction_rejected = refusals(refuse(ValueError, "direction", cyclic_square, 3, "sideways"))


class TestStandardSquaresD4:
    def test_b_row_one(self):
        # (e, 1, eps, m) over the alphabet (1, e, m, eps)
        assert standard_squares_d4().b.cells[1] == (1, 0, 3, 2)

    def test_c_row_one(self):
        # (eps, m, e, 1)
        assert standard_squares_d4().c.cells[1] == (3, 2, 1, 0)

    def test_validates(self):
        assert validate_triple(standard_squares_d4()).ok


class TestValidateTriple:
    def test_cyclic_d3_passes(self):
        assert validate_triple(cyclic_triple(3)).ok

    def test_duplicate_latin_square_fails(self):
        fwd = cyclic_square(3, "forward")
        report = validate_triple(SchemeTriple(a=constant_row_square(3), b=fwd, c=fwd))
        assert not report.ok
        assert "B-C-not-orthogonal" in report.violations

    def test_order_one_passes(self):
        # the one 1 x 1 square is Latin, constant-row and constant-column at once
        one = Square(((0,),))
        report = validate_triple(SchemeTriple(a=one, b=one, c=one))
        assert report.ok and report.violations == ()

    def test_a_latin_a_must_be_orthogonal_to_b_and_c(self):
        std = standard_squares_d4()
        third = Square(((0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2)))
        assert validate_triple(SchemeTriple(a=third, b=std.b, c=std.c)).violations == ()
        report = validate_triple(SchemeTriple(a=std.b, b=std.b, c=std.c))
        assert report.violations == ("A-latin-but-not-orthogonal-to-B-and-C",)

    def test_constant_column_a_passes(self):
        triple = SchemeTriple(
            a=constant_column_square(3),
            b=cyclic_square(3, "forward"),
            c=cyclic_square(3, "backward"),
        )
        assert validate_triple(triple).ok

    def test_non_latin_b_fails(self):
        report = validate_triple(
            SchemeTriple(
                a=constant_row_square(3),
                b=constant_row_square(3),
                c=cyclic_square(3, "backward"),
            )
        )
        assert not report.ok
        assert "B-not-latin" in report.violations

    def test_non_latin_c_fails(self):
        report = validate_triple(
            SchemeTriple(
                a=constant_row_square(3),
                b=cyclic_square(3, "forward"),
                c=constant_column_square(3),
            )
        )
        assert report.violations == ("C-not-latin",)

    def test_arbitrary_a_fails(self):
        report = validate_triple(
            SchemeTriple(
                a=Square(((0, 0, 0), (0, 0, 0), (0, 0, 0))),
                b=cyclic_square(3, "forward"),
                c=cyclic_square(3, "backward"),
            )
        )
        assert not report.ok
        assert "A-not-constant-or-latin" in report.violations

    test_mismatched_orders_rejected = refusals(
        refuse(ValueError, "share one order",
               SchemeTriple, a=constant_row_square(3), b=cyclic_square(4, "forward"), c=cyclic_square(3, "backward")))


class TestFindMolsPair:
    def test_d3_returns_valid_pair(self):
        pair = find_mols_pair(3)
        assert pair is not None
        s1, s2 = pair
        assert is_latin(s1) and is_latin(s2)
        assert are_orthogonal(s1, s2)

    def test_d2_has_no_pair(self):
        assert find_mols_pair(2) is None

    def test_d4_returns_valid_pair(self):
        pair = find_mols_pair(4)
        assert pair is not None
        assert are_orthogonal(*pair)

    def test_d5_returns_valid_pair(self):
        pair = find_mols_pair(5)
        assert pair is not None
        assert are_orthogonal(*pair)

    def test_d1_trivial_pair(self):
        pair = find_mols_pair(1)
        assert pair is not None

    def test_deterministic(self):
        assert find_mols_pair(4) == find_mols_pair(4)

    # the lexicographically first identity-first-row pair of each order;
    # a rewrite of the search must find the same one
    PINNED = {
        1: (((0,),), ((0,),)),
        3: (
            ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
        ),
        4: (
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
            ((0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2)),
        ),
        5: (
            ((0, 1, 2, 3, 4), (1, 2, 3, 4, 0), (2, 3, 4, 0, 1), (3, 4, 0, 1, 2), (4, 0, 1, 2, 3)),
            ((0, 1, 2, 3, 4), (2, 3, 4, 0, 1), (4, 0, 1, 2, 3), (1, 2, 3, 4, 0), (3, 4, 0, 1, 2)),
        ),
    }

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_pinned_pair(self, d):
        pair = find_mols_pair(d)
        if d == 2:
            assert pair is None
        else:
            assert (pair[0].cells, pair[1].cells) == self.PINNED[d]

    test_search_bound = refusals(refuse(ValueError, "bounded", find_mols_pair, 9))


class TestTextFormat:
    def test_square_round_trip(self):
        square = cyclic_square(3, "forward")
        text = square_to_text(square, ISING)
        assert text.splitlines()[0] == "1 eps sigma"
        assert parse_square(text, ISING) == square

    def test_triple_round_trip(self):
        triple = cyclic_triple(3)
        text = triple_to_text(triple, ISING)
        assert parse_triple(text, ISING) == triple

    @pytest.mark.parametrize("separator", ["\n   \n", "\n\t\n", "\n \n\n  \n"])
    def test_separator_lines_holding_whitespace(self, separator):
        triple = cyclic_triple(3)
        text = triple_to_text(triple, ISING).replace("\n\n", separator)
        assert parse_triple(text, ISING) == triple

    def test_windows_line_endings(self):
        triple = cyclic_triple(3)
        text = triple_to_text(triple, ISING).replace("\n", "\r\n")
        assert parse_triple(text, ISING) == triple

    test_unknown_label_rejected = refusals(refuse(ValueError, "unknown label", parse_square, "1 eps bogus\n", ISING))
    # "a a\na a" over ("a", "a") parsed as ((1, 1), (1, 1))
    test_a_repeated_label_is_refused = refusals(
        refuse(ValueError, whole("alphabet repeats the label 'a'"), parse_square, "a a\na a", ("a", "a")))
    test_wrong_row_count_rejected = refusals(refuse(ValueError, "rows", parse_square, "1 eps sigma\n", ISING))
    test_wrong_block_count_rejected = refusals(
        refuse(ValueError, "three", parse_triple, "1 eps sigma\neps sigma 1\nsigma 1 eps\n", ISING))
    test_alphabet_size_checked = refusals(
        refuse(ValueError, "alphabet", square_to_text, cyclic_square(4, "forward"), ISING))
