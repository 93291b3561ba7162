"""Decoding, post-selection, and certification against the classical oracle.

The final state of the solver circuit is a superposition of n^n terms, each a
one-queen-per-row board tagged with the ancilla bits the circuit computed for
it. Post-selecting all-ones ancillas must recover exactly the classical
solution set, and every term's ancilla bits must match the classical
prediction `ancilla_truth`.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import board as board_mod
from . import circuit as circuit_mod
from . import planes as planes_mod
from . import sim as sim_mod
from .circuit import RegisterLayout
from .sim import SparseState

#: Largest accepted gap between the measured success probability and the
#: classical solution ratio.
PROBABILITY_TOLERANCE = 1e-9


class EncodingError(ValueError):
    """A label violates the one-queen-per-row guarantee."""


class OutcomeRecord(NamedTuple):
    cols: tuple[int, ...]
    col_anc: tuple[int, ...]
    diag_anc: tuple[int, ...]


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bit values


@functools.lru_cache(maxsize=None)
def _decoder(layout: RegisterLayout) -> tuple:
    """Per-layout constants of `decode`: row shifts, row mask, one-hot block to
    column, ancilla offset and width, and the column-ancilla count."""
    n = layout.n
    shifts = tuple(layout.system_qubit(r, 0) for r in range(n))
    column = {1 << c: c for c in range(n)}
    return shifts, (1 << n) - 1, column, layout.n_system, layout.q_total - layout.n_system, n - 1


def decode(label: int, layout: RegisterLayout) -> OutcomeRecord:
    """Split a label into queen columns, read from the one set bit of each
    row's n-qubit block, and the column- and diagonal-ancilla bits."""
    shifts, row_mask, column, n_system, width, k = _decoder(layout)
    try:
        cols = tuple([column[label >> s & row_mask] for s in shifts])
    except KeyError:
        for r, s in enumerate(shifts):
            if (queens := (label >> s & row_mask).bit_count()) != 1:
                raise EncodingError(f"row {r} holds {queens} queens, expected 1") from None
    # Bits from q_total up are masked off; the top 1 keeps the leading zeros.
    bank = format(label >> n_system & (1 << width) - 1 | 1 << width, "b")
    anc = tuple(bank[:0:-1].encode().translate(_BITS))  # qubit n_system first
    return OutcomeRecord(cols, anc[:k], anc[k:])


def encode(record: OutcomeRecord, layout: RegisterLayout) -> int:
    """Inverse of decode, placing each set bit by the layout's per-qubit accessors."""
    label = 0
    for r, c in enumerate(record.cols):
        label |= 1 << layout.system_qubit(r, c)
    for c, bit in enumerate(record.col_anc):
        if bit:
            label |= 1 << layout.col_anc_qubit(c)
    for k, bit in enumerate(record.diag_anc, start=1):
        if bit:
            label |= 1 << layout.diag_anc_qubit(k)
    return label


@functools.lru_cache(maxsize=None)
def _row_pairs(n: int) -> tuple[tuple[int, int, int], ...]:
    """Row pairs (i, j, j - i) in lexicographic (i, j) order."""
    return tuple((i, j, j - i) for i, j in itertools.combinations(range(n), 2))


def ancilla_truth(cols: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Classical prediction of the circuit's ancilla outputs for one board.

    Column ancilla c reads the parity of column c's queen count; diagonal
    ancilla for row pair (i, j) reads 0 iff those rows' queens share a
    diagonal. The diagonal ancillas k = 1, 2, ... hold the row pairs in
    lexicographic (i, j) order.
    """
    n = len(cols)
    col_bits = tuple([cols.count(c) % 2 for c in range(n - 1)])
    diag_bits = tuple([1 if abs(cols[i] - cols[j]) != d else 0 for i, j, d in _row_pairs(n)])
    return col_bits, diag_bits


def postselect_solutions(state: SparseState) -> list[tuple[int, ...]]:
    """Queen columns of all terms at or above the prune threshold whose
    ancillas are all 1, sorted."""
    kept = np.flatnonzero(np.abs(state.amps) >= sim_mod.PRUNE_THRESHOLD)
    solutions = []
    for lbl in sim_mod._to_ints(state.labels[kept]):
        record = decode(lbl, state.layout)
        if all(record.col_anc) and all(record.diag_anc):
            solutions.append(record.cols)
    return sorted(solutions)


@dataclass(frozen=True)
class VerificationReport:
    n: int
    quantum_solutions: list[tuple[int, ...]]
    classical_solutions: list[tuple[int, ...]]
    equal: bool = field(init=False)
    success_probability: float
    census_ok: bool
    ancilla_mismatches: int
    seed: None = field(init=False, default=None)
    rng_algorithm: None = field(init=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "equal", self.quantum_solutions == self.classical_solutions)

    @property
    def probability_ok(self) -> bool:
        """The measured success probability matches the classical ratio."""
        expected = len(self.classical_solutions) / self.n**self.n
        return abs(self.success_probability - expected) <= PROBABILITY_TOLERANCE

    @property
    def ok(self) -> bool:
        """The one verdict: every check of the report passes."""
        return self.equal and self.census_ok and self.probability_ok and not self.ancilla_mismatches

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_against_oracle(n: int) -> VerificationReport:
    """Run the full pipeline and certify equivalence with the classical oracle.

    The success probability is measured from the final state: the total
    |amp|^2 of the terms whose ancillas are all 1.
    """
    circuit = circuit_mod.build_full_circuit(n)
    state = sim_mod.run(circuit)

    mismatches = 0
    success_probability = 0.0
    for lbl, amp in sim_mod.readout(state):
        record = decode(lbl, state.layout)
        if record[1:] != ancilla_truth(record.cols):
            mismatches += 1
        if all(record.col_anc) and all(record.diag_anc):
            success_probability += abs(amp) ** 2

    quantum = postselect_solutions(state)
    classical = board_mod.solve_classical(n)

    return VerificationReport(
        n=n,
        quantum_solutions=quantum,
        classical_solutions=classical,
        success_probability=success_probability,
        census_ok=circuit_mod.gate_census(circuit) == circuit_mod.closed_form_census(n),
        ancilla_mismatches=mismatches,
    )


@dataclass(frozen=True)
class SamplingReport:
    n: int
    shots: int
    seed: int
    rng_algorithm: str = field(init=False, default=sim_mod.RNG_ALGORITHM)
    distinct_outcomes: int
    solution_hits: int
    chi_square: float | None
    p_value: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def sampling_report(n: int, shots: int, seed: int) -> SamplingReport:
    """Seeded measurement summary of the n-circuit's final state: distinct
    outcomes, solution hits, and a chi-square uniformity statistic over its
    n^n boards with its p-value (`chisq.chdtrc`).

    The state is read from its planes (`planes.compile_circuit`), never as
    terms: the shots of `sim.sample` on that state are counted per board in
    readout order (`sim.sample_counts` over the product-form probabilities),
    and the solution hits are the shots on the boards whose ancillas are all
    1. Chi-square is degenerate (reported as None) when the support has a
    single outcome.
    """
    from . import chisq  # only sampling reads its 216-entry table

    planes = planes_mod.compile_circuit(circuit_mod.build_full_circuit(n))
    counts = sim_mod.sample_counts(planes.probabilities(), shots, seed)

    chi_square = p_value = None
    if len(counts) > 1:
        expected = counts.mean()
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        p_value = chisq.chdtrc(len(counts) - 1, chi_square)

    return SamplingReport(
        n=n,
        shots=shots,
        seed=seed,
        distinct_outcomes=int(np.count_nonzero(counts)),
        solution_hits=int(counts[planes.selected()].sum()),
        chi_square=chi_square,
        p_value=p_value,
    )
