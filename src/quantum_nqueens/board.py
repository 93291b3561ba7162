"""Classical N-Queens domain: boards, validity predicates, and a backtracking oracle.

Rows and columns are 0-based everywhere. The circuit places exactly one queen
in each row, so a board is its column vector: cols[r] is the column of row r's
queen. A solution is that vector as a tuple.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from typing import Iterator, Sequence


def board_size(n) -> int:
    """n as a Python int, if it is an integer board size of at least 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"board size must be >= 1, got {n}")
    return operator.index(n)


def is_diagonal(i: int, x: int, j: int, y: int) -> bool:
    """True iff cells (i, x) and (j, y) lie on a common diagonal.

    Defined only for j > i, matching the ordered-pair convention of the
    diagonal predicate on queen pairs.
    """
    if j <= i:
        raise ValueError(f"requires j > i, got i={i}, j={j}")
    return abs(x - y) == j - i


def is_valid_solution(cols: Sequence[int]) -> bool:
    """Column and diagonal criteria: no column repeats, no pair shares a diagonal."""
    n = len(cols)
    if len(set(cols)) != n:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if is_diagonal(i, cols[i], j, cols[j]):
                return False
    return True


def solve_classical(n: int) -> list[tuple[int, ...]]:
    """All N-Queens solutions by row-by-row backtracking, sorted: columns are tried in order."""
    n = board_size(n)
    full = (1 << n) - 1
    solutions: list[tuple[int, ...]] = []
    cols: list[int] = []

    def place(used: int, left: int, right: int) -> None:
        # Bit c marks column c as taken (used) or attacked along a diagonal from the
        # rows above (left, right); the diagonal masks move one column per row.
        if used == full:
            solutions.append(tuple(cols))
            return
        free = full & ~(used | left | right)
        while free:
            bit = free & -free  # the lowest free column first keeps the output sorted
            free ^= bit
            cols.append(bit.bit_length() - 1)
            place(used | bit, (left | bit) << 1, (right | bit) >> 1)
            cols.pop()

    place(0, 0, 0)
    return solutions


def diagonal_pairs(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All cell pairs ((i, x), (j, y)) with j > i sharing a diagonal.

    Canonical order: ascending i, then j, then x, then y. With d = j - i, the
    only partners of (i, x) are y = x - d and y = x + d, so the cost is
    O(pairs) = n(n-1)(2n-1)/3 rather than a test of every cell pair.
    """
    n = board_size(n)
    cells = [[(r, c) for c in range(n)] for r in range(n)]  # one shared tuple per cell
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            d = j - i
            row_i, row_j = cells[i], cells[j]
            for x in range(n):
                if x >= d:
                    pairs.append((row_i[x], row_j[x - d]))
                if x + d < n:
                    pairs.append((row_i[x], row_j[x + d]))
    return pairs


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways of writing `total` as an ordered sum of `parts` non-negative ints."""
    for dividers in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for d in dividers:
            comp.append(d - prev - 1)
            prev = d
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


def verify_even_parity_proposition(n: int, max_n: int = 10) -> bool:
    """Exhaustively check: whenever n non-negative integers sum to n, an even
    number of them are even (0 counts as even).

    Enumeration has C(2n-1, n-1) cases; n is capped to keep that tractable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the enumeration bound {max_n}")
    for comp in _compositions(n, n):
        evens = sum(1 for part in comp if part % 2 == 0)
        if evens % 2 != 0:
            return False
    return True
