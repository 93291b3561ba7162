"""Quantum N-Queens solver circuit: construction, exact sparse simulation,
post-selection analysis, and OpenQASM 2.0 export.

`board`, `circuit` and `qasm` load with the package; none of them imports
numpy. The submodules `analysis`, `sim` and `planes`, which import numpy, load
on first use through the module `__getattr__` (PEP 562), and so does every
name of `__all__` that `analysis` or `sim` defines: `OutcomeRecord`,
`SamplingReport`, `VerificationReport`, `ancilla_truth`, `decode`,
`postselect_solutions`, `sampling_report` and `verify_against_oracle` from
`analysis`; `SparseState`, `apply_gate`, `init_state`, `readout`, `run` and
`sample` from `sim`.
"""

import importlib

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
from .qasm import QasmDocument, export_qasm, parse_qasm_subset

_SUBMODULES = ("analysis", "planes", "sim")
# Each name re-exported on first use, and the submodule that defines it.
_REEXPORTS = {
    **dict.fromkeys(
        (
            "OutcomeRecord",
            "SamplingReport",
            "VerificationReport",
            "ancilla_truth",
            "decode",
            "postselect_solutions",
            "sampling_report",
            "verify_against_oracle",
        ),
        "analysis",
    ),
    **dict.fromkeys(
        ("SparseState", "apply_gate", "init_state", "readout", "run", "sample"), "sim"
    ),
}

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


def __getattr__(name: str):
    """Import a numpy-backed submodule or re-exported name on first use, and
    cache it in the module globals."""
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _REEXPORTS:
        value = getattr(importlib.import_module(f".{_REEXPORTS[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_REEXPORTS})
