"""Dense statevector reference for differential tests of the sparse engine.

The state is a numpy vector of 2^q amplitudes indexed by basis label (qubit k
is bit k of the index). Each gate is applied as its full 2^m x 2^m unitary on
its m operands, written out here from the textbook definitions. Nothing is
shared with `quantum_nqueens.sim`; only the `Gate` IR is read.
"""

import math

import numpy as np

MAX_QUBITS = 10

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CONTROLS = {"X": 0, "H": 0, "RY": 0, "CX": 1, "CRY": 1, "CZ": 1, "CCX": 2}


def _ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def gate_unitary(gate):
    """Unitary on the gate's operands in `gate.qubits` order, first operand
    the most significant bit: identity except on the all-controls-set block."""
    base = {"X": _X, "CX": _X, "CCX": _X, "H": _H, "CZ": np.diag([1, -1]).astype(complex)}
    target = _ry(gate.theta) if gate.kind in ("RY", "CRY") else base[gate.kind]
    dim = 2 ** (_CONTROLS[gate.kind] + 1)
    unitary = np.eye(dim, dtype=complex)
    unitary[dim - 2 :, dim - 2 :] = target
    return unitary


def to_vector(terms, num_qubits):
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"dense reference handles at most {MAX_QUBITS} qubits")
    vec = np.zeros(2**num_qubits, dtype=complex)
    for label, amp in terms.items():
        vec[label] = amp
    return vec


def apply(vec, gate, num_qubits):
    """New vector after `gate`; operand k sits on tensor axis num_qubits-1-k."""
    axes = [num_qubits - 1 - q for q in gate.qubits]
    tensor = np.moveaxis(vec.reshape((2,) * num_qubits), axes, range(len(axes)))
    shape = tensor.shape
    tensor = (gate_unitary(gate) @ tensor.reshape(2 ** len(axes), -1)).reshape(shape)
    return np.moveaxis(tensor, range(len(axes)), axes).reshape(-1)
