"""Gate-by-gate differential test of the sparse engine against the dense
numpy reference in `dense_reference.py`."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import dense_reference
from quantum_nqueens.circuit import Gate, layout
from quantum_nqueens.sim import SparseState, apply_gate

LAYOUT = layout(2)  # 5 qubits
NUM_QUBITS = LAYOUT.q_total
ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}
TOLERANCE = 1e-12


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(sorted(ARITY)))
    qubits = draw(st.permutations(range(NUM_QUBITS)))[: ARITY[kind]]
    theta = draw(st.floats(-math.pi, math.pi)) if kind in ("RY", "CRY") else None
    return Gate(kind, tuple(qubits), theta)


@st.composite
def sparse_states(draw):
    labels = draw(st.sets(st.integers(0, 2**NUM_QUBITS - 1), min_size=1, max_size=12))
    amps = {
        lbl: complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for lbl in sorted(labels)
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm < 1e-3:
        return {0: 1.0 + 0j}
    return {lbl: a / norm for lbl, a in amps.items() if a}


def test_reference_prepares_a_bell_pair():
    vec = dense_reference.to_vector({0: 1.0}, 2)
    vec = dense_reference.apply(vec, Gate("H", (0,)), 2)
    vec = dense_reference.apply(vec, Gate("CX", (0, 1)), 2)
    assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


@settings(max_examples=200, deadline=None)
@given(terms=sparse_states(), circuit=st.lists(gates(), min_size=1, max_size=8))
def test_sparse_engine_matches_dense_reference(terms, circuit):
    state = SparseState(LAYOUT, terms)
    vec = dense_reference.to_vector(terms, NUM_QUBITS)
    for gate in circuit:
        state = apply_gate(state, gate)
        vec = dense_reference.apply(vec, gate, NUM_QUBITS)
        diff = np.abs(dense_reference.to_vector(state.terms, NUM_QUBITS) - vec).max()
        assert diff <= TOLERANCE, f"{gate}: max amplitude difference {diff}"
