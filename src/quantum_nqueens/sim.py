"""Exact sparse statevector engine.

A state is a mapping from basis labels to complex amplitudes. Labels are
Python ints (qubit q is bit q), so widths beyond 64 qubits cost nothing.
Every gate lists its controls before its target and acts on a term in one of
three ways once all its controls are set: X/CX/CCX flip the target bit and CZ
negates the amplitude, both without floating-point arithmetic; H/RY/CRY split
the term in two by the gate's real 2x2 matrix and merge collisions by
addition, pruning anything below 1e-12 magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .circuit import Circuit, Gate, RegisterLayout

PRUNE_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-6

#: Algorithm behind the sampling RNG, recorded in report metadata.
RNG_ALGORITHM = "PCG64"

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class StateNormError(ValueError):
    """Raised when an operation requires a normalized state and the norm is off."""


@dataclass
class SparseState:
    layout: RegisterLayout
    terms: dict[int, complex] = field(default_factory=dict)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def __len__(self) -> int:
        return len(self.terms)


def init_state(layout: RegisterLayout) -> SparseState:
    """All qubits |0>: a single all-zeros term with amplitude 1."""
    return SparseState(layout=layout, terms={0: 1.0 + 0.0j})


def bitstring(label: int, width: int) -> str:
    """Render a label qubit-0-first."""
    return "".join("1" if label >> q & 1 else "0" for q in range(width))


_PERMUTE = {"X", "CX", "CCX"}
_PHASE = {"CZ"}
_SPLIT = {"H", "RY", "CRY"}


def _split_matrix(gate: Gate) -> tuple[float, float, float, float]:
    """Entries m00, m01, m10, m11 of the real 2x2 matrix of an H/RY/CRY target."""
    if gate.kind == "H":
        return _SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2
    c = math.cos(gate.theta / 2.0)
    s = math.sin(gate.theta / 2.0)
    return c, -s, s, c


def _apply_terms(gate: Gate, terms: Iterable[tuple[int, complex]]) -> dict[int, complex]:
    """Apply one gate to (label, amplitude) terms; terms whose controls are
    not all set pass through unchanged."""
    *controls, target = gate.qubits
    cmask = sum(1 << q for q in controls)
    tmask = 1 << target

    if gate.kind in _PERMUTE:
        return {(lbl ^ tmask if lbl & cmask == cmask else lbl): a for lbl, a in terms}

    if gate.kind in _PHASE:
        cmask |= tmask
        return {lbl: (-a if lbl & cmask == cmask else a) for lbl, a in terms}

    if gate.kind not in _SPLIT:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    m00, m01, m10, m11 = _split_matrix(gate)
    out: dict[int, complex] = {}
    get = out.get
    for lbl, a in terms:
        if lbl & cmask != cmask:
            out[lbl] = get(lbl, 0.0) + a
            continue
        if lbl & tmask:
            lo, hi, a_lo, a_hi = lbl ^ tmask, lbl, m01 * a, m11 * a
        else:
            lo, hi, a_lo, a_hi = lbl, lbl | tmask, m00 * a, m10 * a
        out[lo] = get(lo, 0.0) + a_lo
        out[hi] = get(hi, 0.0) + a_hi
    return {lbl: a for lbl, a in out.items() if abs(a) >= PRUNE_THRESHOLD}


def apply_gate(state: SparseState, gate: Gate) -> SparseState:
    """Exact action of the gate's unitary; returns a new state whose amplitudes
    do not depend on the order of the input terms."""
    if any(q >= state.layout.q_total for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.layout.q_total} qubits")
    return SparseState(layout=state.layout, terms=_apply_terms(gate, state.terms.items()))


def run(circuit: Circuit) -> SparseState:
    """Fold apply_gate over the circuit starting from the all-zeros state."""
    state = init_state(circuit.layout)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def readout(state: SparseState) -> list[tuple[int, complex]]:
    """All terms sorted lexicographically by qubit-0-first bitstring."""
    width = state.layout.q_total
    rows = [(lbl, a) for lbl, a in state.terms.items() if abs(a) >= PRUNE_THRESHOLD]
    rows.sort(key=lambda row: bitstring(row[0], width))
    return rows


def dump_readout(state: SparseState) -> str:
    """`<bitstring> <re> <im>` per line, in canonical readout order."""
    width = state.layout.q_total
    return "\n".join(
        f"{bitstring(lbl, width)} {a.real!r} {a.imag!r}" for lbl, a in readout(state)
    )


def sample(state: SparseState, shots: int, seed: int) -> list[int]:
    """Draw basis labels i.i.d. with probability |amp|^2.

    Inverse-CDF over the canonical readout order, so a seed fully determines
    the shot sequence.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    norm = state.norm_squared()
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise StateNormError(f"state norm^2 = {norm!r}, expected 1")

    rows = readout(state)
    labels = [lbl for lbl, _ in rows]
    cdf = np.cumsum([abs(a) ** 2 for _, a in rows])
    cdf[-1] = 1.0  # guard the top bin against rounding
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    indices = np.searchsorted(cdf, draws, side="right")
    return [labels[i] for i in indices]
