"""The plane compiler against the sparse engine it replaces for `sample`."""

import numpy as np
import pytest

from quantum_nqueens import planes, sim
from quantum_nqueens.board import solve_classical
from quantum_nqueens.circuit import Circuit, Gate, build_full_circuit


def board_columns(n):
    """(n**n, n) queen columns of every board in readout order: mixed radix
    over the rows, row 0 most significant, row r's digit n-1-c_r."""
    index = np.arange(n**n)
    digits = [index // n ** (n - 1 - r) % n for r in range(n)]
    return np.stack([n - 1 - d for d in digits], axis=1)


def ancilla_bits(compiled):
    """(n**n, ancillas) bits of every board: ancilla j is bit j % 8 of plane j // 8."""
    lay = compiled.layout
    bits = np.zeros((lay.n**lay.n, lay.q_total - lay.n_system), dtype=np.uint8)
    for j in range(bits.shape[1]):
        bits[:, j] = compiled.ancillas[j // 8] >> j % 8 & 1
    return bits


def rebuilt_labels(compiled):
    """(n**n, W) uint64 label words of every board, from its digits and the planes."""
    lay = compiled.layout
    n, cols = lay.n, board_columns(lay.n)
    words = np.zeros((n**n, -(-lay.q_total // 64)), dtype=np.uint64)

    def set_bits(qubits, bits):
        for w in range(words.shape[1]):
            in_word = qubits // 64 == w
            shifted = bits.astype(np.uint64) << (qubits % 64).astype(np.uint64)
            words[:, w] |= np.bitwise_or.reduce(np.where(in_word, shifted, 0), axis=1)

    set_bits(np.arange(n) * n + cols, np.ones_like(cols))
    anc = ancilla_bits(compiled)
    set_bits(np.broadcast_to(lay.n_system + np.arange(anc.shape[1]), anc.shape), anc)
    return words


def amplitudes(compiled):
    """prod_r w_r(c_r) of every board in readout order."""
    cols = board_columns(compiled.layout.n)
    amps = np.ones(len(cols), dtype=np.complex128)
    for r, row in enumerate(compiled.rows):
        amps = amps * row[cols[:, r]]
    return amps


@pytest.mark.parametrize("n", range(1, 8))
def test_labels_equal_the_engine_state(n):
    circuit = build_full_circuit(n)
    compiled = planes.compile_circuit(circuit)
    state = sim.run(circuit)
    order = sim._readout_order(state)
    assert len(order) == len(state) == n**n
    np.testing.assert_array_equal(rebuilt_labels(compiled), state.labels[order])
    assert np.abs(amplitudes(compiled) - state.amps[order]).max() <= 1e-12
    probs = compiled.probabilities()
    assert np.abs(probs - np.abs(state.amps[order]) ** 2).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_selected_boards_are_the_classical_solutions(n):
    compiled = planes.compile_circuit(build_full_circuit(n))
    selected = board_columns(n)[compiled.selected()]
    assert sorted(map(tuple, selected.tolist())) == solve_classical(n)


def test_a_ccx_on_two_cells_of_one_row_flips_no_board():
    built = build_full_circuit(3)
    anc = built.layout.diag_anc_qubit(1)
    circuit = Circuit(built.layout, built.gates + (Gate("CCX", (0, 2, anc)),))
    compiled = planes.compile_circuit(circuit)
    np.testing.assert_array_equal(compiled.ancillas, planes.compile_circuit(built).ancillas)
    state = sim.run(circuit)
    np.testing.assert_array_equal(rebuilt_labels(compiled), state.labels[sim._readout_order(state)])


def test_rows_with_the_same_gates_are_simulated_once(monkeypatch):
    calls = []
    real = sim.apply_gate

    def counted(state, gate):
        calls.append(gate)
        return real(state, gate)

    monkeypatch.setattr(sim, "apply_gate", counted)
    compiled = planes.compile_circuit(build_full_circuit(5))
    assert len(calls) == 2 * 5 - 1  # one row's X, CRY and CX gates
    assert all(row is compiled.rows[0] for row in compiled.rows)


def test_planes_are_read_only():
    compiled = planes.compile_circuit(build_full_circuit(4))
    with pytest.raises(ValueError):
        compiled.ancillas[0, 0] = 1
    with pytest.raises(ValueError):
        compiled.rows[0][0] = 1


def index_of(gates, pick):
    return next(i for i, gate in enumerate(gates) if pick(gate))


# Each edit changes the n=5 gate list in place and returns the index of the
# gate that the compiler must name.
def retarget_last_ccx(gates):
    *controls, _ = gates[-1].qubits
    gates[-1] = Gate("CCX", (*controls, 0 if 0 not in controls else 1))
    return len(gates) - 1


def ccx_controlled_by_an_ancilla(gates):
    control, _, target = gates[-1].qubits
    gates[-1] = Gate("CCX", (control, 25, target))
    return len(gates) - 1


def cross_rows_in_w_prep(gates):
    i = index_of(gates, lambda g: g.kind == "CX")  # row 0: qubit 1 onto qubit 0
    gates[i] = Gate("CX", (gates[i].qubits[0], 5))  # qubit 5 is in row 1
    return i


def cz_misses_its_ancilla(gates):
    i = index_of(gates, lambda g: g.kind == "CZ")
    anc, system = gates[i].qubits
    gates[i] = Gate("CZ", (anc + 1, system))
    return i - 1  # the H that opens the sandwich


def cz_between_ancillas(gates):
    i = index_of(gates, lambda g: g.kind == "CZ")
    anc, _ = gates[i].qubits
    gates[i] = Gate("CZ", (anc, anc + 1))
    return i - 1


def ry_after_w_prep(gates):
    i = index_of(gates, lambda g: g.kind == "CCX")
    gates.insert(i, Gate("RY", (25,), 0.5))
    return i


def row_with_two_set_bits(gates):
    # Without its last CX, row 0 keeps qubit 3 set beside qubit 4.
    del gates[max(i for i, g in enumerate(gates) if g.kind == "CX" and g.qubits[0] < 5)]
    return index_of(gates, lambda g: g.qubits[0] >= 5) - 1  # row 0's last gate


def drop_the_closing_h(gates):
    i = index_of(gates, lambda g: g.kind == "H")
    del gates[index_of(gates[i + 1 :], lambda g: g.kind == "H") + i + 1 :]
    return i


@pytest.mark.parametrize(
    "edit, message",
    [
        (retarget_last_ccx, "targets system qubit 0 after W-prep"),
        (ccx_controlled_by_an_ancilla, "has a control outside the system qubits"),
        (cross_rows_in_w_prep, "has an operand outside its row block"),
        (cz_misses_its_ancilla, "is not closed by the same H with only CZs"),
        (cz_between_ancillas, "is not closed by the same H with only CZs"),
        (ry_after_w_prep, "after W-prep is not a plane op"),
        (row_with_two_set_bits, "row 0 ends W-prep in 5 terms, not the 5 one-hot terms"),
        (drop_the_closing_h, "is not closed by the same H"),
    ],
    ids=["ccx-onto-system", "ccx-ancilla-control", "w-prep-crosses-rows", "cz-misses-ancilla", "cz-between-ancillas",
         "ry-after-w-prep", "row-with-two-bits", "h-never-closed"],
)
def test_refuses_a_circuit_outside_the_pattern(edit, message):
    built = build_full_circuit(5)
    gates = list(built.gates)
    index = edit(gates)
    with pytest.raises(ValueError, match=rf"^gate {index}: .*{message}"):
        planes.compile_circuit(Circuit(built.layout, gates))
