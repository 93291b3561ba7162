"""Exact sparse statevector engine.

A state is a mapping from basis labels to complex amplitudes. Labels are
Python ints (qubit q is bit q), so widths beyond 64 qubits cost nothing.
X/CX/CCX move amplitudes between labels and CZ negates them, all without
floating-point arithmetic; H/RY/CRY split terms in two and merge collisions
by complex addition, pruning anything below 1e-12 magnitude.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


def _apply_terms(gate: Gate, terms: list[tuple[int, complex]]) -> dict[int, complex]:
    """Apply one gate to a batch of terms; pure function of the batch."""
    kind = gate.kind
    out: dict[int, complex] = {}

    if kind == "X":
        mask = 1 << gate.qubits[0]
        return {lbl ^ mask: a for lbl, a in terms}

    if kind == "CX":
        cmask = 1 << gate.qubits[0]
        tmask = 1 << gate.qubits[1]
        return {(lbl ^ tmask if lbl & cmask else lbl): a for lbl, a in terms}

    if kind == "CCX":
        cmask = (1 << gate.qubits[0]) | (1 << gate.qubits[1])
        tmask = 1 << gate.qubits[2]
        return {(lbl ^ tmask if lbl & cmask == cmask else lbl): a for lbl, a in terms}

    if kind == "CZ":
        cmask = (1 << gate.qubits[0]) | (1 << gate.qubits[1])
        return {lbl: (-a if lbl & cmask == cmask else a) for lbl, a in terms}

    if kind == "H":
        mask = 1 << gate.qubits[0]
        for lbl, a in terms:
            half = a * _SQRT1_2
            if lbl & mask:
                lo = lbl ^ mask
                out[lo] = out.get(lo, 0.0) + half
                out[lbl] = out.get(lbl, 0.0) - half
            else:
                out[lbl] = out.get(lbl, 0.0) + half
                hi = lbl | mask
                out[hi] = out.get(hi, 0.0) + half
        return out

    if kind in ("RY", "CRY"):
        if kind == "RY":
            cmask = 0
            tmask = 1 << gate.qubits[0]
        else:
            cmask = 1 << gate.qubits[0]
            tmask = 1 << gate.qubits[1]
        c = math.cos(gate.theta / 2.0)
        s = math.sin(gate.theta / 2.0)
        for lbl, a in terms:
            if cmask and not lbl & cmask:
                out[lbl] = out.get(lbl, 0.0) + a
                continue
            if lbl & tmask:
                lo = lbl ^ tmask
                out[lo] = out.get(lo, 0.0) - a * s
                out[lbl] = out.get(lbl, 0.0) + a * c
            else:
                out[lbl] = out.get(lbl, 0.0) + a * c
                hi = lbl | tmask
                out[hi] = out.get(hi, 0.0) + a * s
        return out

    raise ValueError(f"unknown gate kind {kind!r}")


def apply_gate(state: SparseState, gate: Gate, workers: int = 1) -> SparseState:
    """Exact action of the gate's unitary; returns a new state.

    With workers > 1 the terms are partitioned, each chunk processed
    independently, and the partial results merged by amplitude addition; the
    merged result is independent of the partitioning.
    """
    if any(q >= state.layout.q_total for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.layout.q_total} qubits")

    items = list(state.terms.items())
    if workers <= 1 or len(items) < 2 * workers:
        merged = _apply_terms(gate, items)
    else:
        chunk = (len(items) + workers - 1) // workers
        batches = [items[i : i + chunk] for i in range(0, len(items), chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda b: _apply_terms(gate, b), batches))
        merged = partials[0]
        for partial in partials[1:]:
            for lbl, a in partial.items():
                merged[lbl] = merged.get(lbl, 0.0) + a

    if gate.kind in ("H", "RY", "CRY"):
        merged = {lbl: a for lbl, a in merged.items() if abs(a) >= PRUNE_THRESHOLD}
    return SparseState(layout=state.layout, terms=merged)


def run(circuit: Circuit, workers: int = 1) -> SparseState:
    """Fold apply_gate over the circuit starting from the all-zeros state."""
    state = init_state(circuit.layout)
    for gate in circuit.gates:
        state = apply_gate(state, gate, workers=workers)
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
