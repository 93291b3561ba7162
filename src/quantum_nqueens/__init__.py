"""Quantum N-Queens solver circuit: construction, exact sparse simulation,
post-selection analysis, and OpenQASM 2.0 export."""

from .board import (
    diagonal_pairs,
    is_diagonal,
    is_valid_solution,
    solve_classical,
    verify_even_parity_proposition,
)
from .circuit import (
    Circuit,
    Gate,
    GateCensus,
    RegisterLayout,
    ancilla_index,
    build_column_checks,
    build_diagonal_checks,
    build_full_circuit,
    build_w_prep,
    closed_form_census,
    gate_census,
    layout,
)
from .analysis import (
    OutcomeRecord,
    SamplingReport,
    VerificationReport,
    ancilla_truth,
    decode,
    postselect_solutions,
    sampling_report,
    verify_against_oracle,
)
from .qasm import QasmDocument, export_qasm, parse_qasm_subset
from .sim import SparseState, apply_gate, init_state, readout, run, sample

__all__ = [
    "Circuit",
    "Gate",
    "GateCensus",
    "OutcomeRecord",
    "QasmDocument",
    "RegisterLayout",
    "SamplingReport",
    "SparseState",
    "VerificationReport",
    "ancilla_index",
    "ancilla_truth",
    "apply_gate",
    "build_column_checks",
    "build_diagonal_checks",
    "build_full_circuit",
    "build_w_prep",
    "closed_form_census",
    "decode",
    "diagonal_pairs",
    "export_qasm",
    "gate_census",
    "init_state",
    "is_diagonal",
    "is_valid_solution",
    "layout",
    "parse_qasm_subset",
    "postselect_solutions",
    "readout",
    "run",
    "sample",
    "sampling_report",
    "solve_classical",
    "verify_against_oracle",
    "verify_even_parity_proposition",
]

__version__ = "0.1.0"
