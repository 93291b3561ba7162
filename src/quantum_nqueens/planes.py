"""Plane compiler: the solver circuit's final state as row amplitudes and
ancilla bit planes, never as its n^n terms.

W-prep, every gate before the first H as `circuit.gate_census` reads it, acts
on each row block alone, so each row is simulated by itself with
`sim.apply_gate` and must end in n one-hot terms: the term of column c holds
the row's amplitude w_r(c). Every later gate permutes basis states and never
targets a system qubit, so a board, one queen column c_r per row, keeps the
amplitude prod_r w_r(c_r), and its ancilla bits are a function of the board.

The ancilla bits are held as bit planes over all n^n boards in readout order:
mixed radix, row 0 most significant, row r's digit n-1-c_r. Ancilla j is bit
j % 8 of byte plane j // 8, and the gates after W-prep act on the planes:

- X on an ancilla flips its plane, a = ~a;
- H, CZ^k, H on an ancilla, each CZ against a system qubit s, is exactly k
  CX gates from those s onto the ancilla (H.CZ.H = CX), so a ^= s for each;
- CCX from system qubits s, t onto an ancilla is a ^= s & t.

Viewed as an n-dimensional array with one axis per row, a plane's boards
with system qubit (r, c) set are the slice at index n-1-c on axis r, so
a ^= s flips that slice alone and a ^= s & t a slice of two axes. A gate of
any other shape raises ValueError naming its index: nothing falls back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit as circuit_mod
from . import sim
from .circuit import Circuit, Gate, RegisterLayout

PLANE_BITS = 8


@dataclass(frozen=True, eq=False)
class Planes:
    """The final state of a solver circuit, read-only: `rows[r][c]` is the
    amplitude of row r's queen in column c, and `ancillas` the (planes,
    n**n) uint8 ancilla bit planes over the boards in readout order."""

    layout: RegisterLayout
    rows: tuple[np.ndarray, ...]
    ancillas: np.ndarray

    def probabilities(self) -> np.ndarray:
        """|amp|^2 of every board in readout order: prod_r |w_r(c_r)|^2."""
        probs = np.ones(1)
        for amps in self.rows:
            # Digit d of a row is column n-1-d.
            probs = np.multiply.outer(probs, np.abs(amps[::-1]) ** 2).ravel()
        return probs

    def selected(self) -> np.ndarray:
        """The boards whose ancillas are all 1: the AND of the ancilla planes."""
        count = self.layout.q_total - self.layout.n_system
        selected = np.ones(self.ancillas.shape[1], dtype=bool)
        for k, plane in enumerate(self.ancillas):
            selected &= plane == (1 << min(PLANE_BITS, count - PLANE_BITS * k)) - 1
        return selected


def _row_amplitudes(lay: RegisterLayout, w_prep: tuple[Gate, ...]) -> tuple[np.ndarray, ...]:
    """Each row's W-prep gates, moved onto qubits 0..n-1 and simulated alone;
    rows with the same moved gates are simulated once."""
    n = lay.n
    gates: list[list[tuple]] = [[] for _ in range(n)]  # (kind, qubits, theta) per row
    last = [len(w_prep)] * n  # the gate after which each row's state is read
    for i, gate in enumerate(w_prep):
        r = gate.qubits[0] // n
        if max(gate.qubits) >= lay.n_system or any(q // n != r for q in gate.qubits):
            raise ValueError(f"gate {i}: W-prep {gate} has an operand outside its row block")
        gates[r].append((gate.kind, tuple(q - r * n for q in gate.qubits), gate.theta))
        last[r] = i
    one_hot = [1 << c for c in range(n)]
    simulated: dict[tuple, np.ndarray] = {}
    for r in range(n):
        key = tuple(gates[r])
        if key in simulated:
            continue
        state = sim.init_state(lay)
        for fields in key:
            state = sim.apply_gate(state, Gate(*fields))
        if sorted(state.terms) != one_hot:
            raise ValueError(
                f"gate {last[r]}: row {r} ends W-prep in {len(state)} terms, "
                f"not the {n} one-hot terms of its columns"
            )
        amps = np.array([state.terms[label] for label in one_hot], dtype=np.complex128)
        amps.flags.writeable = False
        simulated[key] = amps
    return tuple(simulated[tuple(row)] for row in gates)


def compile_circuit(circuit: Circuit) -> Planes:
    """Read the gate list once: W-prep into row amplitudes, every later gate
    into ancilla plane flips. Raises ValueError naming the index of the first
    gate that breaks the pattern."""
    lay, gates = circuit.layout, circuit.gates
    n, n_system = lay.n, lay.n_system
    w_end = circuit_mod.gate_census(circuit).w_prep_gates
    rows = _row_amplitudes(lay, gates[:w_end])

    count = lay.q_total - n_system
    planes = np.zeros((-(-count // PLANE_BITS), n**n), dtype=np.uint8)
    boards = planes.reshape((len(planes),) + (n,) * n)

    def flip(target: int, controls) -> None:
        j = target - n_system
        index: list = [j // PLANE_BITS] + [slice(None)] * n
        for q in controls:
            r, c = divmod(q, n)
            if isinstance(index[1 + r], int):
                return  # two queens in one row: no board has both
            index[1 + r] = n - 1 - c
        boards[tuple(index)] ^= np.uint8(1 << j % PLANE_BITS)

    i = w_end
    while i < len(gates):
        gate = gates[i]
        *controls, target = gate.qubits
        if target < n_system:
            raise ValueError(f"gate {i}: {gate} targets system qubit {target} after W-prep")
        if gate.kind == "X":
            flip(target, ())
        elif gate.kind == "CCX":
            if max(controls) >= n_system:
                raise ValueError(f"gate {i}: {gate} has a control outside the system qubits")
            flip(target, controls)
        elif gate.kind == "H":
            # H, then CZs between the target and system qubits, then the same H.
            j = i + 1
            while j < len(gates) and gates[j].kind == "CZ" and target in gates[j].qubits:
                partner = sum(gates[j].qubits) - target
                if partner >= n_system:
                    break
                flip(target, (partner,))
                j += 1
            if j == len(gates) or gates[j] != gate:
                raise ValueError(
                    f"gate {i}: {gate} is not closed by the same H with only CZs "
                    f"to system qubits between (gate {j} breaks it)"
                )
            i = j
        else:
            raise ValueError(f"gate {i}: {gate} after W-prep is not a plane op")
        i += 1
    planes.flags.writeable = False
    return Planes(lay, rows, planes)
