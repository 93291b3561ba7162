import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantum_nqueens.analysis import EncodingError, decode
from quantum_nqueens.board import (
    diagonal_pairs,
    is_diagonal,
    is_valid_solution,
    solve_classical,
    verify_even_parity_proposition,
)
from quantum_nqueens.circuit import layout

# OEIS A000170; n <= 8 was also computed by brute force over all n! permutations
# (see test_solution_counts_brute_force).
KNOWN_SOLUTION_COUNTS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}


def brute_force_solutions(n):
    """Independent oracle: filter all permutations by pairwise diagonal conflicts."""
    out = []
    for perm in itertools.permutations(range(n)):
        if all(
            abs(perm[i] - perm[j]) != j - i
            for i in range(n)
            for j in range(i + 1, n)
        ):
            out.append(perm)
    return sorted(out)


class TestIsDiagonal:
    def test_main_diagonal_adjacency(self):
        assert is_diagonal(0, 0, 1, 1) is True

    def test_non_diagonal(self):
        assert is_diagonal(0, 0, 1, 2) is False

    def test_anti_diagonal_two_apart(self):
        # cross-checked against enumeration of all diagonals of a 4x4 grid
        assert is_diagonal(1, 3, 3, 1) is True

    def test_rejects_bad_row_order(self):
        with pytest.raises(ValueError):
            is_diagonal(1, 0, 1, 1)
        with pytest.raises(ValueError):
            is_diagonal(2, 0, 1, 1)

    def test_matches_grid_enumeration_4x4(self):
        diag_cells = set()
        for r in range(4):
            for c in range(4):
                for dr, dc in ((1, 1), (1, -1)):
                    rr, cc = r + dr, c + dc
                    while 0 <= rr < 4 and 0 <= cc < 4:
                        diag_cells.add(((r, c), (rr, cc)))
                        rr += dr
                        cc += dc
        for i in range(4):
            for j in range(i + 1, 4):
                for x in range(4):
                    for y in range(4):
                        assert is_diagonal(i, x, j, y) == (((i, x), (j, y)) in diag_cells)


class TestIsValidSolution:
    def test_identity_is_not_a_solution(self):
        assert not is_valid_solution((0, 1, 2, 3))

    def test_single_cell_board(self):
        assert is_valid_solution((0,))

    def test_known_4queens_solution(self):
        assert is_valid_solution((1, 3, 0, 2))

    def test_exhaustive_4x4_boards_with_one_queen_per_row(self):
        # all 4^4 one-queen-per-row boards: valid iff in the brute-force set
        expected = set(brute_force_solutions(4))
        for cols in itertools.product(range(4), repeat=4):
            assert is_valid_solution(cols) == (cols in expected)

    def test_row_violation(self):
        # rows 0 and 2 share column 0; no pair shares a diagonal
        assert not is_valid_solution((0, 2, 0))


class TestSolveClassical:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_SOLUTION_COUNTS.items()))
    def test_solution_counts(self, n, count):
        assert len(solve_classical(n)) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_solution_counts_brute_force(self, n):
        assert solve_classical(n) == brute_force_solutions(n)

    @pytest.mark.parametrize("n", [0, -2, 2.5, "4"])
    def test_rejects_what_the_layout_rejects(self, n):
        with pytest.raises(ValueError) as err:
            solve_classical(n)
        assert str(err.value) == f"board size must be >= 1, got {n}"

    def test_a_numpy_integer_is_a_board_size(self):
        assert solve_classical(np.int64(6)) == solve_classical(6)

    def test_sorted_and_deterministic(self):
        sols = solve_classical(6)
        assert sols == sorted(sols)
        assert sols == solve_classical(6)

    def test_all_outputs_valid(self):
        for sol in solve_classical(7):
            assert is_valid_solution(sol)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_closed_under_180_rotation(self, n):
        sols = set(solve_classical(n))
        for cols in sols:
            assert tuple(n - 1 - c for c in reversed(cols)) in sols

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            solve_classical(0)


class TestDiagonalPairs:
    def test_n1_empty(self):
        assert diagonal_pairs(1) == []

    def test_n2(self):
        assert diagonal_pairs(2) == [((0, 0), (1, 1)), ((0, 1), (1, 0))]

    def test_n4_count(self):
        assert len(diagonal_pairs(4)) == 28

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_closed_form(self, n):
        expected = n * n * (n - 1) - n * (n - 1) - n * (n - 1) * (n - 2) // 3
        assert len(diagonal_pairs(n)) == expected

    def test_canonical_order(self):
        pairs = diagonal_pairs(5)
        keys = [(i, j, x, y) for (i, x), (j, y) in pairs]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_brute_force_definition(self, n):
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                for x in range(n):
                    for y in range(n):
                        if abs(x - y) == j - i:
                            expected.append(((i, x), (j, y)))
        assert diagonal_pairs(n) == expected

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_each_cell_is_one_shared_tuple(self, n):
        cells = [cell for pair in diagonal_pairs(n) for cell in pair]
        assert len({id(cell) for cell in cells}) == len(set(cells))

    def test_all_pairs_are_diagonal(self):
        for (i, x), (j, y) in diagonal_pairs(6):
            assert is_diagonal(i, x, j, y)


class TestEvenParityProposition:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_holds_exhaustively(self, n):
        assert verify_even_parity_proposition(n) is True

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            verify_even_parity_proposition(11)

    def test_bound_override(self):
        assert verify_even_parity_proposition(11, max_n=11) is True


def grid_label(cells):
    """The label that draws `cells` on the system qubits, one bit per queen."""
    lay = layout(len(cells))
    label = 0
    for r, row in enumerate(cells):
        for c, cell in enumerate(row):
            label |= cell << lay.system_qubit(r, c)
    return label, lay


class TestQueenColumns:
    """A board drawn as a 0/1 grid decodes to the column of each row's queen."""

    def test_one_queen_per_row(self):
        cells = ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0))
        assert decode(*grid_label(cells)).cols == (1, 3, 0, 2)

    def test_shared_column_is_allowed(self):
        assert decode(*grid_label(((0, 1), (0, 1)))).cols == (1, 1)

    @pytest.mark.parametrize(
        "cells, message",
        [
            (((0, 1), (1, 1)), "row 1 holds 2 queens, expected 1"),
            (((0, 0), (1, 0)), "row 0 holds 0 queens, expected 1"),
            (((1, 1, 1), (0, 0, 0), (1, 0, 0)), "row 0 holds 3 queens, expected 1"),
        ],
    )
    def test_names_the_first_bad_row(self, cells, message):
        with pytest.raises(EncodingError) as err:
            decode(*grid_label(cells))
        assert str(err.value) == message


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: (n, tuple(p)))
    )
)
def test_validity_decomposes_into_pairwise_diagonal_checks(case):
    # for permutation boards, validity is exactly the absence of diagonal conflicts
    n, cols = case
    clash = any(
        is_diagonal(i, cols[i], j, cols[j]) for i in range(n) for j in range(i + 1, n)
    )
    assert is_valid_solution(cols) == (not clash)
