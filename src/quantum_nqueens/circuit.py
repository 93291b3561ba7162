"""Gate-level circuit IR and the builders for the three solver stages.

Register layout over Q_total = n^2 + (n-1) + n(n-1)/2 qubits:
  - system qubits 0 .. n^2-1, cell (r, c) at index r*n + c;
  - column ancillas n^2 .. n^2+n-2, one per column 0 .. n-2;
  - diagonal ancillas n^2+n-1 .. Q_total-1, 1-based pair index k at offset k-1.

Stages: per-row W-state preparation, H-CZ...CZ-H column parity sandwiches,
then Toffoli diagonal checks onto ancillas pre-flipped to |1>.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .board import board_size, diagonal_pairs

_ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}  # _checked_gates needs <= 3
_PARAMETRIC = {"RY", "CRY"}
# The exact type of a checked gate's angle, by kind.
_ANGLE_TYPE = {kind: float if kind in _PARAMETRIC else type(None) for kind in _ARITY}


class _GateFields(NamedTuple):  # a NamedTuple may not define __new__, so Gate subclasses it
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None


class Gate(_GateFields):
    """One gate, a validated tuple: controls listed before the target in `qubits`."""

    __slots__ = ()

    def __new__(cls, kind: str, qubits: Iterable[int], theta: float | None = None) -> "Gate":
        arity = _ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        try:
            qubits = tuple(map(operator.index, qubits))
        except TypeError:
            raise ValueError("gate operands must be integers") from None
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubits")
        if min(qubits) < 0:
            raise ValueError("gate operands must be non-negative")
        if arity > 1 and len(set(qubits)) != arity:
            raise ValueError("gate operands must be distinct")
        if kind in _PARAMETRIC:
            # float first: it decides the usual case without the slow ABC check;
            # a Python float, as a numpy scalar would export as its repr, np.float64(...)
            try:
                theta = float(theta) if isinstance(theta, (float, numbers.Real)) else math.nan
            except OverflowError:  # a real past the float range, such as 10**400
                theta = math.inf
            if not math.isfinite(theta):
                raise ValueError(f"{kind} requires a finite angle")
        elif theta is not None:
            raise ValueError(f"{kind} takes no angle")
        return tuple.__new__(cls, (kind, qubits, theta))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        """Build through the checks: NamedTuple's _make, which _replace calls, skips them."""
        return cls(*iterable)

    def inverse(self) -> "Gate":
        if self.kind in _PARAMETRIC:
            return Gate(self.kind, self.qubits, -self.theta)
        return self  # X, H, CX, CZ, CCX are self-inverse


def _checked_gates(kinds, qubits, thetas) -> list[Gate]:
    """`[Gate(*g) for g in zip(kinds, qubits, thetas, strict=True)]` for three
    parallel sequences, one per field, with each of Gate's checks made as one
    C-level pass over a whole column.

    When every gate already has the form Gate gives it (an exact tuple of
    exact ints, an exact float angle) and passes every check, each becomes a
    Gate that shares its operand tuple. Otherwise the gates are built again
    one by one, so a gate that needs converting (a list, a numpy int, a bool)
    is converted as Gate converts it, and the first bad gate raises Gate's own
    ValueError. Columns of unequal length raise zip's ValueError.
    """
    def operands():
        return itertools.chain.from_iterable(qubits)

    try:
        passed = (
            set(map(type, qubits)) <= {tuple}
            and set(map(type, operands())) <= {int}
            # a kind's arity is never None, so this also rejects an unknown kind
            and all(map(operator.eq, map(len, qubits), map(_ARITY.get, kinds)))
            and min(operands(), default=0) >= 0
            # with at most three operands, they are distinct iff the first and the last
            # each occur once: a count, cheaper than a set per gate
            and set(map(tuple.count, qubits, map(operator.itemgetter(0), qubits))) <= {1}
            and set(map(tuple.count, qubits, map(operator.itemgetter(-1), qubits))) <= {1}
            and all(map(operator.is_, map(type, thetas), map(_ANGLE_TYPE.get, kinds)))
            and all(map(math.isfinite, filter(None, thetas)))  # no None, and 0.0 is finite
        )
    except TypeError:  # an unhashable kind
        passed = False
    gates = zip(kinds, qubits, thetas, strict=True)
    if not passed:
        return [Gate(*g) for g in gates]
    return list(map(tuple.__new__, itertools.repeat(Gate), gates))


@dataclass(frozen=True)
class RegisterLayout:
    n: int
    q_total: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", board_size(self.n))
        object.__setattr__(self, "q_total", self.n_system + self.n_col_anc + self.n_diag_anc)

    @property
    def n_system(self) -> int:
        return self.n * self.n

    @property
    def n_col_anc(self) -> int:
        return self.n - 1

    @property
    def n_diag_anc(self) -> int:
        return self.n * (self.n - 1) // 2

    def system_qubit(self, r: int, c: int) -> int:
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise ValueError(f"cell ({r}, {c}) out of range for n={self.n}")
        return r * self.n + c

    def col_anc_qubit(self, c: int) -> int:
        if not 0 <= c < self.n - 1:
            raise ValueError(f"no column ancilla for column {c} (n={self.n})")
        return self.n * self.n + c

    def diag_anc_qubit(self, k: int) -> int:
        """Qubit for the 1-based diagonal-pair index k."""
        if not 1 <= k <= self.n_diag_anc:
            raise ValueError(f"diagonal ancilla index {k} out of range")
        return self.n * self.n + self.n - 2 + k


@dataclass(frozen=True)
class Circuit:
    layout: RegisterLayout
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        # A tuple: a caller's list could change after the checks below.
        object.__setattr__(self, "gates", tuple(self.gates))
        q_total = self.layout.q_total
        # C-level passes over the entries and all their operands; a generator names an offender.
        if not all(map(isinstance, self.gates, itertools.repeat(Gate))):
            entry = next(g for g in self.gates if not isinstance(g, Gate))
            raise ValueError(f"circuit entry {entry!r} is not a Gate")
        operands = itertools.chain.from_iterable(map(operator.attrgetter("qubits"), self.gates))
        if max(operands, default=-1) >= q_total:
            gate = next(g for g in self.gates if max(g.qubits) >= q_total)
            raise ValueError(f"gate {gate} exceeds layout of {q_total} qubits")


@contextlib.contextmanager
def gc_paused():
    """Run a block, or each call of a decorated function, with CPython's
    cyclic garbage collector off.

    A whole gate list is tens of thousands of tuples that cannot form a
    reference cycle, yet their allocation would trigger collections that scan
    every live container; paused, the collection is put off, not skipped. At
    exit, normal or by an exception, the collector is turned back on only if
    it was on at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def layout(n: int) -> RegisterLayout:
    return RegisterLayout(n)


def build_w_prep(n: int, row: int) -> list[Gate]:
    """Map the n qubits of one row block from |0...0> to the equal one-hot
    superposition, via a linear controlled-rotation cascade.

    X on the block's first qubit, then for i = 1 .. n-1:
    CRY(2*arccos(sqrt(1/(n-i+1)))) from qubit i-1 onto qubit i, followed by
    CX from qubit i back onto qubit i-1.
    """
    if not 0 <= row < n:
        raise ValueError(f"row {row} out of range for n={n}")
    base = row * n
    kinds, qubits, thetas = ["X"], [(base,)], [None]
    for i in range(1, n):
        theta = 2.0 * math.acos(math.sqrt(1.0 / (n - i + 1)))
        kinds += ("CRY", "CX")
        qubits += ((base + i - 1, base + i), (base + i, base + i - 1))
        thetas += (theta, None)
    return _checked_gates(kinds, qubits, thetas)


def build_column_checks(n: int) -> list[Gate]:
    """Phase-kickback parity sandwich per column 0 .. n-2.

    For each checked column: H on its ancilla, CZ against the column's qubit
    in every row (ascending), then H again. The ancilla ends in |1> iff the
    column sum is odd. The last column needs no check.
    """
    lay = layout(n)
    qubits = []
    for c in range(n - 1):
        anc = lay.col_anc_qubit(c)
        qubits.append((anc,))
        qubits += [(anc, lay.system_qubit(r, c)) for r in range(n)]
        qubits.append((anc,))
    kinds = (["H"] + ["CZ"] * n + ["H"]) * (n - 1)
    return _checked_gates(kinds, qubits, [None] * len(kinds))


def ancilla_index(i: int, j: int, n: int) -> int:
    """1-based diagonal-ancilla index k for the 1-based row pair (i, j), i < j.

    k = (i-1)(2n-i)/2 + (j-i); bijective onto 1 .. n(n-1)/2.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"requires 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i)


def build_diagonal_checks(n: int) -> list[Gate]:
    """X every diagonal ancilla to |1>, then one Toffoli per diagonal cell pair.

    Pairs run in canonical order (ascending i, j, x, y); controls are the two
    system qubits, target the ancilla assigned to the row pair. An ancilla
    ends |0> iff its row pair's queens share a diagonal.

    The Toffolis' operand tuples hold the ints of two tables, one per cell and
    one per row pair, so at most n^2 + n(n-1)/2 int objects serve them all.
    """
    lay = layout(n)
    m = lay.n_diag_anc
    system = [[lay.system_qubit(r, c) for c in range(n)] for r in range(n)]
    anc = {
        (i, j): lay.diag_anc_qubit(ancilla_index(i + 1, j + 1, n))
        for i in range(n)
        for j in range(i + 1, n)
    }
    qubits = [(lay.diag_anc_qubit(k),) for k in range(1, m + 1)]
    qubits += [(system[i][x], system[j][y], anc[i, j]) for (i, x), (j, y) in diagonal_pairs(n)]
    kinds = ["X"] * m + ["CCX"] * (len(qubits) - m)
    return _checked_gates(kinds, qubits, [None] * len(qubits))


@gc_paused()
def build_full_circuit(n: int) -> Circuit:
    """W-state preparation for every row, then column checks, then diagonal
    checks, built with the cyclic collector paused."""
    gates: list[Gate] = []
    for row in range(n):
        gates.extend(build_w_prep(n, row))
    gates.extend(build_column_checks(n))
    gates.extend(build_diagonal_checks(n))
    return Circuit(layout=layout(n), gates=tuple(gates))


@dataclass(frozen=True)
class GateCensus:
    """Per-kind gate counts plus the four totals the closed forms predict:
    the register width `qubits`, the H and CZ gates of the parity sandwiches
    `column_check_gates`, the Toffolis `diagonal_ccx` (ancilla-init X gates
    count under `counts` only), and the W-state preparation `w_prep_gates`.
    """

    counts: dict[str, int] = field(default_factory=dict)
    qubits: int = 0
    column_check_gates: int = 0
    diagonal_ccx: int = 0
    w_prep_gates: int = 0


def gate_census(circuit: Circuit) -> GateCensus:
    """Count the built circuit's gates by kind, and read its four totals.

    H and CZ occur only in column checks and CCX only in diagonal checks, so
    the stage totals are recovered directly from the kind counts.
    `build_full_circuit` puts W-prep first and opens the column checks with an
    H, so W-prep is every gate before the first H (all of them at n=1, which
    has no column check).
    """
    kinds = list(map(operator.attrgetter("kind"), circuit.gates))
    counts = Counter(kinds)
    return GateCensus(
        counts=dict(counts),
        qubits=circuit.layout.q_total,
        column_check_gates=counts["H"] + counts["CZ"],
        diagonal_ccx=counts["CCX"],
        w_prep_gates=kinds.index("H") if counts["H"] else len(kinds),
    )


def qubit_total(n: int) -> int:
    """Closed form 3n^2/2 + n/2 - 1, kept in exact integer arithmetic."""
    n = board_size(n)
    return (3 * n * n + n - 2) // 2


def column_check_gate_count(n: int) -> int:
    """(n-1)(n+2): two H plus n CZ per checked column."""
    return (n - 1) * (n + 2) if n >= 2 else 0


def diagonal_pair_count(n: int) -> int:
    """n^2(n-1) - n(n-1) - n(n-1)(n-2)/3, one Toffoli per diagonal pair."""
    return n * n * (n - 1) - n * (n - 1) - n * (n - 1) * (n - 2) // 3


def diagonal_pair_count_sum(n: int) -> int:
    """The same count as an explicit double sum over row offsets."""
    return sum(2 * (n - j) for i in range(1, n) for j in range(1, n - i + 1))


def diagonal_pair_count_simplified(n: int) -> int:
    """Simplified cubic n(n-1)(2n-1)/3; equals diagonal_pair_count for all n."""
    return n * (n - 1) * (2 * n - 1) // 3


def w_prep_gate_count(n: int) -> int:
    """Per-row X + (n-1) CRY + (n-1) CX, summed over n rows."""
    return n * (2 * n - 1)


def closed_form_census(n: int) -> GateCensus:
    """Predicted census from the closed forms, without building a circuit."""
    n = board_size(n)
    n_col = n - 1 if n >= 2 else 0
    counts = {
        "X": n + n * (n - 1) // 2,  # W-prep seeds + diagonal ancilla init
        "CRY": n * (n - 1),
        "CX": n * (n - 1),
        "H": 2 * n_col,
        "CZ": n * n_col,
        "CCX": diagonal_pair_count(n),
    }
    return GateCensus(
        counts={k: v for k, v in counts.items() if v},
        qubits=qubit_total(n),
        column_check_gates=column_check_gate_count(n),
        diagonal_ccx=diagonal_pair_count(n),
        w_prep_gates=w_prep_gate_count(n),
    )
