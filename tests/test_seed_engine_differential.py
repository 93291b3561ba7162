"""Differential test of the array engine against the dict-of-Python-ints
engine it replaced.

The dict engine survives as the benchmark's frozen seed copy of the package
(`perfbench/seed/quantum_nqueens_seed`); it is read from there, never changed.
Unlike the dense reference, it has no 10-qubit ceiling, so it checks the whole
N-Queens circuit and the benchmark's 16-qubit dense circuits.
"""

import sys
from pathlib import Path

import pytest

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
