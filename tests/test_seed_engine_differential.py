"""Differential test of the array engine against the dict-of-Python-ints
engine it replaced.

The dict engine survives as the benchmark's frozen seed copy of the package
(`perfbench/seed/quantum_nqueens_seed`); it is read from there, never changed.
Unlike the dense reference, it has no 10-qubit ceiling, so it checks the whole
N-Queens circuit and the benchmark's 16-qubit dense circuits.

Each output label of a gate receives at most two contributions, and two floats
add to the same bits in either order, so the engines agree exactly, not just
to a tolerance: the `*_exactly` tests compare every amplitude's `repr`.
"""

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantum_nqueens import circuit, sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH / "seed"), str(PERFBENCH)]

import quantum_nqueens_seed  # noqa: E402
import quantum_nqueens_seed.sim as dict_engine  # noqa: E402
from workloads import dense_circuit  # noqa: E402

TOLERANCE = 1e-12


def assert_same_state(dict_state, state):
    assert dict_state.terms.keys() == state.terms.keys()
    diff = max(abs(a - state.terms[lbl]) for lbl, a in dict_state.terms.items())
    assert diff <= TOLERANCE


def assert_identical_state(dict_state, state):
    """Same labels, and the same `repr` of every amplitude.

    Amplitudes with equal bits have equal reprs, so only the terms whose bits
    differ are rendered.
    """
    assert dict_state.terms.keys() == state.terms.keys()
    expected = np.array([dict_state.terms[lbl] for lbl in state.terms], dtype=np.complex128)
    same = (expected.view(np.uint64) == state.amps.view(np.uint64)).reshape(-1, 2).all(axis=1)
    assert [repr(a) for a in expected[~same].tolist()] == [
        repr(a) for a in state.amps[~same].tolist()
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_full_circuit_matches_the_dict_engine(n):
    expected = dict_engine.run(quantum_nqueens_seed.circuit.build_full_circuit(n))
    assert_same_state(expected, sim.run(circuit.build_full_circuit(n)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_circuit_matches_the_dict_engine_gate_by_gate(seed):
    dict_circuit, circ = dense_circuit(seed, pkg=quantum_nqueens_seed), dense_circuit(seed)
    expected = dict_engine.init_state(dict_circuit.layout)
    state = sim.init_state(circ.layout)
    for dict_gate, gate in zip(dict_circuit.gates, circ.gates, strict=True):
        expected = dict_engine.apply_gate(expected, dict_gate)
        state = sim.apply_gate(state, gate)
        assert_same_state(expected, state)


@pytest.mark.parametrize("n", range(1, 6))
def test_full_circuit_matches_the_dict_engine_exactly(n):
    expected = dict_engine.run(quantum_nqueens_seed.circuit.build_full_circuit(n))
    assert_identical_state(expected, sim.run(circuit.build_full_circuit(n)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_circuit_matches_the_dict_engine_exactly_gate_by_gate(seed):
    dict_circuit, circ = dense_circuit(seed, pkg=quantum_nqueens_seed), dense_circuit(seed)
    expected = dict_engine.init_state(dict_circuit.layout)
    state = sim.init_state(circ.layout)
    for dict_gate, gate in zip(dict_circuit.gates, circ.gates, strict=True):
        expected = dict_engine.apply_gate(expected, dict_gate)
        state = sim.apply_gate(state, gate)
        assert_identical_state(expected, state)


# layout(7) has 76 qubits; qubits 60..67 straddle the boundary of words 0 and 1.
WIDE_N = 7
WINDOW = tuple(range(60, 68))
ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}


@st.composite
def window_terms(draw, target):
    """A sparse state over WINDOW on a random background of the other qubits.

    Some terms get their partner (the label with the target bit flipped), some
    of them with the same amplitude so that a split can cancel and prune.
    """
    window_mask = sum(1 << q for q in WINDOW)
    background = draw(st.integers(0, 2**76 - 1)) & ~window_mask
    amp = st.builds(
        cmath.rect, st.floats(1e-6, 1), st.floats(-math.pi, math.pi)
    )
    terms = {}
    for value in draw(st.lists(st.integers(0, 2 ** len(WINDOW) - 1), max_size=24)):
        label = background | value << WINDOW[0]
        terms[label] = draw(amp)
        partner = draw(st.sampled_from(["none", "random", "same"]))
        if partner != "none":
            terms.setdefault(label ^ 1 << target, terms[label] if partner == "same" else draw(amp))
    return terms


@pytest.mark.parametrize("kind", sorted(ARITY))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_gate_on_a_two_word_window_matches_the_dict_engine_exactly(kind, data):
    qubits = tuple(data.draw(st.permutations(WINDOW))[: ARITY[kind]])
    theta = data.draw(st.floats(-math.pi, math.pi)) if kind in ("RY", "CRY") else None
    terms = data.draw(window_terms(qubits[-1]))
    dict_lay = quantum_nqueens_seed.circuit.layout(WIDE_N)
    expected = dict_engine.apply_gate(
        dict_engine.SparseState(dict_lay, dict(terms)),
        quantum_nqueens_seed.circuit.Gate(kind, qubits, theta),
    )
    state = sim.apply_gate(
        sim.SparseState(circuit.layout(WIDE_N), terms), circuit.Gate(kind, qubits, theta)
    )
    assert_identical_state(expected, state)
