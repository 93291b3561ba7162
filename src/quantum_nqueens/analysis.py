"""Decoding, post-selection, and certification against the classical oracle.

The final state of the solver circuit is a superposition of n^n terms, each a
one-queen-per-row board tagged with the ancilla bits the circuit computed for
it. Post-selecting all-ones ancillas must recover exactly the classical
solution set, and every term's ancilla bits must match the classical
prediction `ancilla_truth`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from scipy import stats

from . import board as board_mod
from . import circuit as circuit_mod
from . import sim as sim_mod
from .board import BoardConfig, PermutationVector
from .circuit import RegisterLayout
from .sim import SparseState


class EncodingError(ValueError):
    """A decoded board violates the one-queen-per-row guarantee."""


@dataclass(frozen=True)
class OutcomeRecord:
    board: BoardConfig
    col_anc: tuple[int, ...]
    diag_anc: tuple[int, ...]


def decode(label: int, layout: RegisterLayout) -> OutcomeRecord:
    """Split a basis label into board, column-ancilla, and diagonal-ancilla bits."""
    n = layout.n
    cells = tuple(
        tuple(label >> layout.system_qubit(r, c) & 1 for c in range(n)) for r in range(n)
    )
    board = BoardConfig(n, cells)
    for r in range(n):
        if board.row_sum(r) != 1:
            raise EncodingError(f"row {r} holds {board.row_sum(r)} queens, expected 1")
    col_anc = tuple(label >> layout.col_anc_qubit(c) & 1 for c in range(n - 1))
    diag_anc = tuple(
        label >> layout.diag_anc_qubit(k) & 1 for k in range(1, layout.n_diag_anc + 1)
    )
    return OutcomeRecord(board=board, col_anc=col_anc, diag_anc=diag_anc)


def encode(record: OutcomeRecord, layout: RegisterLayout) -> int:
    """Inverse of decode: pack board and ancilla bits back into a label."""
    n = layout.n
    label = 0
    for r in range(n):
        for c in range(n):
            if record.board.cells[r][c]:
                label |= 1 << layout.system_qubit(r, c)
    for c, bit in enumerate(record.col_anc):
        if bit:
            label |= 1 << layout.col_anc_qubit(c)
    for k, bit in enumerate(record.diag_anc, start=1):
        if bit:
            label |= 1 << layout.diag_anc_qubit(k)
    return label


def ancilla_truth(board: BoardConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Classical prediction of the circuit's ancilla outputs for one board.

    Column ancilla c reads the parity of column c's queen count; diagonal
    ancilla for row pair (i, j) reads 0 iff those rows' queens share a
    diagonal.
    """
    n = board.n
    cols = []
    for r in range(n):
        if board.row_sum(r) != 1:
            raise EncodingError(f"row {r} holds {board.row_sum(r)} queens, expected 1")
        cols.append(board.cells[r].index(1))
    col_bits = tuple(board.col_sum(c) % 2 for c in range(n - 1))
    diag_bits = [1] * (n * (n - 1) // 2)
    for i in range(n):
        for j in range(i + 1, n):
            if board_mod.is_diagonal(i, cols[i], j, cols[j]):
                k = circuit_mod.ancilla_index(i + 1, j + 1, n)
                diag_bits[k - 1] = 0
    return col_bits, tuple(diag_bits)


def postselect_solutions(state: SparseState) -> list[BoardConfig]:
    """Boards of all terms whose ancillas are all 1, sorted canonically."""
    boards = []
    for lbl, _ in sim_mod.readout(state):
        record = decode(lbl, state.layout)
        if all(record.col_anc) and all(record.diag_anc):
            boards.append(record.board)
    boards.sort(key=lambda b: PermutationVector.from_board(b).cols)
    return boards


@dataclass(frozen=True)
class VerificationReport:
    n: int
    quantum_solutions: list[PermutationVector]
    classical_solutions: list[PermutationVector]
    equal: bool
    success_probability: float
    census_ok: bool
    ancilla_mismatches: int
    seed: int | None = None
    rng_algorithm: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "quantum_solutions": [list(s.cols) for s in self.quantum_solutions],
                "classical_solutions": [list(s.cols) for s in self.classical_solutions],
                "equal": self.equal,
                "success_probability": self.success_probability,
                "census_ok": self.census_ok,
                "ancilla_mismatches": self.ancilla_mismatches,
                "seed": self.seed,
                "rng_algorithm": self.rng_algorithm,
            }
        )


def verify_against_oracle(n: int) -> VerificationReport:
    """Run the full pipeline and certify equivalence with the classical oracle."""
    circuit = circuit_mod.build_full_circuit(n)
    state = sim_mod.run(circuit)

    mismatches = 0
    for lbl, _ in sim_mod.readout(state):
        record = decode(lbl, state.layout)
        if (record.col_anc, record.diag_anc) != ancilla_truth(record.board):
            mismatches += 1

    quantum = [PermutationVector.from_board(b) for b in postselect_solutions(state)]
    classical = board_mod.solve_classical(n)
    equal = [s.cols for s in quantum] == [s.cols for s in classical]

    built = circuit_mod.gate_census(circuit)
    predicted = circuit_mod.closed_form_census(n)
    census_ok = (
        built.column_check_gates == predicted.column_check_gates
        and built.diagonal_ccx == predicted.diagonal_ccx
        and circuit.layout.q_total == circuit_mod.qubit_total(n)
    )

    return VerificationReport(
        n=n,
        quantum_solutions=quantum,
        classical_solutions=classical,
        equal=equal,
        success_probability=len(classical) / n**n,
        census_ok=census_ok,
        ancilla_mismatches=mismatches,
    )


@dataclass(frozen=True)
class SamplingReport:
    n: int
    shots: int
    seed: int
    rng_algorithm: str
    distinct_outcomes: int
    solution_hits: int
    chi_square: float | None
    p_value: float | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "shots": self.shots,
                "seed": self.seed,
                "rng_algorithm": self.rng_algorithm,
                "distinct_outcomes": self.distinct_outcomes,
                "solution_hits": self.solution_hits,
                "chi_square": self.chi_square,
                "p_value": self.p_value,
            }
        )


def sampling_report(state: SparseState, shots: int, seed: int) -> SamplingReport:
    """Seeded measurement summary: distinct outcomes, solution hits, and a
    chi-square uniformity statistic over the state's support.

    Each distinct sampled label is decoded once, in first-hit order; shots are
    counted against those decodes. Chi-square is degenerate (reported as None)
    when the support has a single outcome.
    """
    labels = sim_mod.sample(state, shots, seed)
    support = [lbl for lbl, _ in sim_mod.readout(state)]

    is_solution = {}
    for lbl in dict.fromkeys(labels):
        record = decode(lbl, state.layout)
        is_solution[lbl] = all(record.col_anc) and all(record.diag_anc)
    hits = sum(is_solution[lbl] for lbl in labels)

    chi_square = p_value = None
    if len(support) > 1:
        observed = {lbl: 0 for lbl in support}
        for lbl in labels:
            observed[lbl] += 1
        result = stats.chisquare(list(observed.values()))
        chi_square = float(result.statistic)
        p_value = float(result.pvalue)

    return SamplingReport(
        n=state.layout.n,
        shots=shots,
        seed=seed,
        rng_algorithm=sim_mod.RNG_ALGORITHM,
        distinct_outcomes=len(is_solution),
        solution_hits=hits,
        chi_square=chi_square,
        p_value=p_value,
    )
