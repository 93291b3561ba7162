"""Gate-by-gate differential test of the sparse engine against the dense
numpy reference in `dense_reference.py`.

The reference simulates a window of at most 10 qubits. Dense qubit k is
mapped onto qubit `window[k]` of the sparse register; every other qubit of the
sparse register holds a fixed background bit that no gate touches.

The engine drops every amplitude below 1e-12 after a split gate (H/RY/CRY), so
the reference vector is pruned the same way after those gates. Without that,
pruned residues of up to 1e-12 each can be rotated into one amplitude by later
gates and exceed the 1e-12 tolerance on a correct engine.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dense_reference
from quantum_nqueens.circuit import Gate, layout
from quantum_nqueens.sim import SparseState, apply_gate

ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}
TOLERANCE = 1e-12
SPLIT_PRUNE_THRESHOLD = 1e-12

# Layout 2 is 5 qubits, all in one word. Layout 7 is 76 qubits over two words,
# and qubits 58..67 straddle the boundary between them at qubit 64.
SMALL = (layout(2), tuple(range(5)))
WIDE = (layout(7), tuple(range(58, 68)))


@st.composite
def gates(draw, num_qubits):
    kind = draw(st.sampled_from(sorted(ARITY)))
    qubits = draw(st.permutations(range(num_qubits)))[: ARITY[kind]]
    theta = draw(st.floats(-math.pi, math.pi)) if kind in ("RY", "CRY") else None
    return Gate(kind, tuple(qubits), theta)


@st.composite
def dense_states(draw, num_qubits):
    labels = draw(st.sets(st.integers(0, 2**num_qubits - 1), min_size=1, max_size=12))
    amps = {
        lbl: complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for lbl in sorted(labels)
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm < 1e-3:
        return {0: 1.0 + 0j}
    return {lbl: a / norm for lbl, a in amps.items() if a}


def _spread(label, window):
    """Sparse-register bits of a dense label."""
    return sum(1 << q for k, q in enumerate(window) if label >> k & 1)


def _gather(label, window):
    """Dense label of a sparse-register label."""
    return sum(1 << k for k, q in enumerate(window) if label >> q & 1)


def check_against_dense(lay, window, background, terms, circuit):
    """Run `circuit` (on dense qubits) through both engines, comparing the
    states after every gate."""
    num_qubits = len(window)
    state = SparseState(lay, {background | _spread(lbl, window): a for lbl, a in terms.items()})
    vec = dense_reference.to_vector(terms, num_qubits)
    window_mask = _spread(2**num_qubits - 1, window)
    for gate in circuit:
        wide_gate = Gate(gate.kind, tuple(window[q] for q in gate.qubits), gate.theta)
        state = apply_gate(state, wide_gate)
        vec = dense_reference.apply(vec, gate, num_qubits)
        if gate.kind in ("H", "RY", "CRY"):
            vec[np.abs(vec) < SPLIT_PRUNE_THRESHOLD] = 0
        assert {lbl & ~window_mask for lbl in state.terms} <= {background}, gate
        sparse = {_gather(lbl, window): a for lbl, a in state.terms.items()}
        diff = np.abs(dense_reference.to_vector(sparse, num_qubits) - vec).max()
        assert diff <= TOLERANCE, f"{gate}: max amplitude difference {diff}"


def test_reference_prepares_a_bell_pair():
    vec = dense_reference.to_vector({0: 1.0}, 2)
    vec = dense_reference.apply(vec, Gate("H", (0,)), 2)
    vec = dense_reference.apply(vec, Gate("CX", (0, 1)), 2)
    assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


@settings(max_examples=200, deadline=None)
@given(terms=dense_states(5), circuit=st.lists(gates(5), min_size=1, max_size=8))
@example(
    terms={0: 1j, 1: 4e-12j},
    circuit=[Gate("CCX", (0, 1, 2))] * 4
    + [Gate("H", (4,)), Gate("CRY", (0, 1), 2.5), Gate("H", (4,))],
)
def test_sparse_engine_matches_dense_reference(terms, circuit):
    check_against_dense(*SMALL, 0, terms, circuit)


@settings(max_examples=200, deadline=None)
@given(
    terms=dense_states(10),
    circuit=st.lists(gates(10), min_size=1, max_size=8),
    background=st.integers(0, 2**76 - 1),
)
@example(
    terms={0: 1j, 1: 2.6666666666666667e-12},
    circuit=[Gate("CRY", (0, 1), 2.25), Gate("H", (4,)), Gate("CRY", (0, 4), 1.0)],
    background=0,
)
def test_sparse_engine_matches_dense_reference_across_a_word_boundary(
    terms, circuit, background
):
    lay, window = WIDE
    check_against_dense(lay, window, background & ~_spread(2**10 - 1, window), terms, circuit)


@pytest.mark.parametrize("operands", [(5, 6, 7), (7, 6, 5)])
@pytest.mark.parametrize("kind", sorted(ARITY))
def test_each_gate_kind_across_the_word_boundary(kind, operands):
    # Dense qubits 5, 6, 7 are sparse qubits 63, 64, 65; the gate takes the
    # last ARITY[kind] of them, so controls and target sit in different words.
    lay, window = WIDE
    terms = {0b11100000: 0.6, 0b01100000: 0.8j}
    theta = 0.9 if kind in ("RY", "CRY") else None
    gate = Gate(kind, operands[-ARITY[kind] :], theta)
    check_against_dense(lay, window, 1 << 75 | 1, terms, [gate])
