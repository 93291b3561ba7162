import itertools

import pytest
from hypothesis import given, strategies as st

from quantum_nqueens.board import (
    BoardConfig,
    EncodingError,
    PermutationVector,
    diagonal_pairs,
    is_diagonal,
    is_valid_solution,
    queen_columns,
    solve_classical,
    verify_even_parity_proposition,
)

# Computed by brute force over all n! permutations (see test_solution_counts_brute_force).
KNOWN_SOLUTION_COUNTS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92}


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
        identity = PermutationVector(4, (0, 1, 2, 3)).to_board()
        assert not is_valid_solution(identity)

    def test_single_cell_board(self):
        assert is_valid_solution(BoardConfig(1, ((1,),)))

    def test_known_4queens_solution(self):
        assert is_valid_solution(PermutationVector(4, (1, 3, 0, 2)).to_board())

    def test_exhaustive_4x4_boards_with_one_queen_per_row(self):
        # all 4^4 one-queen-per-row boards: valid iff in the brute-force set
        expected = set(brute_force_solutions(4))
        for cols in itertools.product(range(4), repeat=4):
            b = PermutationVector(4, cols).to_board()
            assert is_valid_solution(b) == (cols in expected)

    def test_row_violation(self):
        cells = ((1, 1), (0, 0))
        assert not is_valid_solution(BoardConfig(2, cells))


class TestSolveClassical:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_SOLUTION_COUNTS.items()))
    def test_solution_counts(self, n, count):
        assert len(solve_classical(n)) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_solution_counts_brute_force(self, n):
        assert [s.cols for s in solve_classical(n)] == brute_force_solutions(n)

    def test_sorted_and_deterministic(self):
        sols = solve_classical(6)
        assert [s.cols for s in sols] == sorted(s.cols for s in sols)
        assert sols == solve_classical(6)

    def test_all_outputs_valid(self):
        for sol in solve_classical(7):
            assert is_valid_solution(sol.to_board())

    @pytest.mark.parametrize("n", range(4, 8))
    def test_closed_under_180_rotation(self, n):
        sols = {s.cols for s in solve_classical(n)}
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


class TestBoardSerialization:
    def test_board_permutation_round_trip(self):
        p = PermutationVector(5, (0, 2, 4, 1, 3))
        assert PermutationVector.from_board(p.to_board()) == p

    def test_from_board_rejects_multi_queen_row(self):
        with pytest.raises(ValueError) as err:
            PermutationVector.from_board(BoardConfig(2, ((1, 1), (0, 0))))
        assert isinstance(err.value, EncodingError)
        assert str(err.value) == "row 0 holds 2 queens, expected 1"


class TestQueenColumns:
    def test_one_queen_per_row(self):
        assert queen_columns(PermutationVector(4, (1, 3, 0, 2)).to_board()) == (1, 3, 0, 2)

    def test_shared_column_is_allowed(self):
        assert queen_columns(BoardConfig(2, ((0, 1), (0, 1)))) == (1, 1)

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
            queen_columns(BoardConfig(len(cells), cells))
        assert str(err.value) == message


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: (n, tuple(p)))
    )
)
def test_validity_decomposes_into_pairwise_diagonal_checks(case):
    # for permutation boards, validity is exactly the absence of diagonal conflicts
    n, cols = case
    b = PermutationVector(n, cols).to_board()
    clash = any(
        is_diagonal(i, cols[i], j, cols[j]) for i in range(n) for j in range(i + 1, n)
    )
    assert is_valid_solution(b) == (not clash)
