"""Classical N-Queens domain: boards, validity predicates, and a backtracking oracle.

Rows and columns are 0-based everywhere. A board is an N x N matrix of 0/1
cells; cell (r, c) = 1 places a queen at row r, column c. Boards with exactly
one queen per row round-trip with a column-permutation vector.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class BoardConfig:
    """An n x n occupancy matrix; cells[r][c] == 1 means a queen at (r, c)."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"board size must be >= 1, got {self.n}")
        if len(self.cells) != self.n or any(len(row) != self.n for row in self.cells):
            raise ValueError(f"cells must be a {self.n}x{self.n} matrix")
        if any(cell not in (0, 1) for row in self.cells for cell in row):
            raise ValueError("cells must contain only 0 or 1")

    @classmethod
    def from_text(cls, text: str) -> "BoardConfig":
        """Parse the n-lines-of-n-characters '0'/'1' serialization."""
        lines = [line for line in text.strip().splitlines()]
        cells = tuple(tuple(int(ch) for ch in line.strip()) for line in lines)
        return cls(n=len(lines), cells=cells)

    def to_text(self) -> str:
        return "\n".join("".join(str(c) for c in row) for row in self.cells)

    def row_sum(self, r: int) -> int:
        return sum(self.cells[r])

    def col_sum(self, c: int) -> int:
        return sum(self.cells[r][c] for r in range(self.n))

    def rotate_180(self) -> "BoardConfig":
        cells = tuple(tuple(reversed(row)) for row in reversed(self.cells))
        return BoardConfig(self.n, cells)


@dataclass(frozen=True)
class PermutationVector:
    """cols[r] is the column of the (single) queen in row r."""

    n: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cols) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.cols)}")
        if any(not 0 <= c < self.n for c in self.cols):
            raise ValueError("column index out of range")

    def to_board(self) -> BoardConfig:
        cells = tuple(
            tuple(1 if c == col else 0 for c in range(self.n)) for col in self.cols
        )
        return BoardConfig(self.n, cells)

    @classmethod
    def from_board(cls, board: BoardConfig) -> "PermutationVector":
        cols = []
        for r, row in enumerate(board.cells):
            if sum(row) != 1:
                raise ValueError(f"row {r} does not hold exactly one queen")
            cols.append(row.index(1))
        return cls(board.n, tuple(cols))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "cols": list(self.cols)})

    @classmethod
    def from_json(cls, text: str) -> "PermutationVector":
        obj = json.loads(text)
        return cls(n=obj["n"], cols=tuple(obj["cols"]))


def is_diagonal(i: int, x: int, j: int, y: int) -> bool:
    """True iff cells (i, x) and (j, y) lie on a common diagonal.

    Defined only for j > i, matching the ordered-pair convention of the
    diagonal predicate on queen pairs.
    """
    if j <= i:
        raise ValueError(f"requires j > i, got i={i}, j={j}")
    return abs(x - y) == j - i


def is_valid_solution(board: BoardConfig) -> bool:
    """Row, column, and diagonal criteria: each row/column sum 1, diagonals <= 1."""
    n = board.n
    if any(board.row_sum(r) != 1 for r in range(n)):
        return False
    if any(board.col_sum(c) != 1 for c in range(n)):
        return False
    cols = [board.cells[r].index(1) for r in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if is_diagonal(i, cols[i], j, cols[j]):
                return False
    return True


def solve_classical(n: int) -> list[PermutationVector]:
    """All N-Queens solutions by row-by-row backtracking, sorted by cols."""
    if n < 1:
        raise ValueError(f"board size must be >= 1, got {n}")
    solutions: list[PermutationVector] = []
    cols: list[int] = []
    used_cols = set()

    def place(row: int) -> None:
        if row == n:
            solutions.append(PermutationVector(n, tuple(cols)))
            return
        for c in range(n):
            if c in used_cols:
                continue
            if any(abs(cols[r] - c) == row - r for r in range(row)):
                continue
            cols.append(c)
            used_cols.add(c)
            place(row + 1)
            cols.pop()
            used_cols.remove(c)

    place(0)
    solutions.sort(key=lambda s: s.cols)
    return solutions


def diagonal_pairs(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All cell pairs ((i, x), (j, y)) with j > i sharing a diagonal.

    Canonical order: ascending i, then j, then x, then y.
    """
    if n < 1:
        raise ValueError(f"board size must be >= 1, got {n}")
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            for x in range(n):
                for y in range(n):
                    if abs(x - y) == j - i:
                        pairs.append(((i, x), (j, y)))
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
