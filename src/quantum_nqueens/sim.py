"""Exact sparse statevector engine.

A state is two parallel numpy arrays with one row per nonzero basis term:
`labels`, an (N, W) uint64 array, and `amps`, an (N,) complex128 array. A
label spans W = ceil(q_total / 64) words, qubit q being bit q % 64 of word
q // 64, so every register width runs the same code. No label repeats.

Every gate lists its controls before its target and acts only on the terms
whose controls are all set:

- X/CX/CCX XOR the target bit and CZ negates the amplitude, both without
  floating-point arithmetic, so they are bit-exact;
- H/RY/CRY act by the gate's real 2x2 matrix on each pair of active terms
  whose labels differ only in the target bit. One lexsort of the active
  labels with that bit cleared puts each term next to its partner, if it has
  one, so every output label gets at most two contributions and no sum
  depends on term order. The terms whose controls are unset pass through
  unchanged, and every result below 1e-12 magnitude is pruned.

Readout order is the qubit-0-first bitstring order, which is the numeric order
of the bit-reversed label: a lexsort over the bit-reversed words, with no
string built per term.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .circuit import Circuit, Gate, RegisterLayout

PRUNE_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-6

#: Algorithm behind the sampling RNG, recorded in report metadata.
RNG_ALGORITHM = "PCG64"

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1
_SQRT1_2 = 1.0 / math.sqrt(2.0)


class StateNormError(ValueError):
    """Raised when an operation requires a normalized state and the norm is off."""


def _to_ints(labels: np.ndarray) -> list[int]:
    """Python-int labels of an (N, W) word array."""
    ints = labels[:, -1].tolist()
    for w in range(labels.shape[1] - 2, -1, -1):
        ints = [hi << WORD_BITS | lo for hi, lo in zip(ints, labels[:, w].tolist())]
    return ints


class SparseState:
    """A state's terms as parallel `labels` and `amps` arrays (read-only).

    Built from a mapping of integer labels (Python or numpy ints) to
    amplitudes; `terms` reads the state back as a mapping with Python-int
    labels, built on first use and cached.
    """

    def __init__(self, layout: RegisterLayout, terms: Mapping[int, complex] | None = None):
        terms = {} if terms is None else terms
        try:
            ints = list(map(operator.index, terms))
        except TypeError:
            raise ValueError("state labels must be integers") from None
        if any(lbl < 0 or lbl >> layout.q_total for lbl in ints):
            raise ValueError(f"label out of range for {layout.q_total} qubits")
        width = -(-layout.q_total // WORD_BITS)
        labels = np.array(
            [[lbl >> (WORD_BITS * w) & _WORD_MASK for w in range(width)] for lbl in ints],
            dtype=np.uint64,
        ).reshape(len(terms), width)
        self._init(layout, labels, np.array(list(terms.values()), dtype=np.complex128))

    @classmethod
    def _from_arrays(cls, layout: RegisterLayout, labels: np.ndarray, amps: np.ndarray):
        state = cls.__new__(cls)
        state._init(layout, labels, amps)
        return state

    def _init(self, layout: RegisterLayout, labels: np.ndarray, amps: np.ndarray) -> None:
        labels.flags.writeable = False
        amps.flags.writeable = False
        self.layout, self.labels, self.amps = layout, labels, amps
        self._terms: Mapping[int, complex] | None = None

    @property
    def terms(self) -> Mapping[int, complex]:
        if self._terms is None:
            self._terms = MappingProxyType(dict(zip(_to_ints(self.labels), self.amps.tolist())))
        return self._terms

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def __len__(self) -> int:
        return len(self.amps)


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


def _all_set(labels: np.ndarray, qubits) -> np.ndarray:
    """Rows of `labels` in which every one of `qubits` is set."""
    masks: dict[int, int] = {}
    for q in qubits:
        masks[q // WORD_BITS] = masks.get(q // WORD_BITS, 0) | 1 << q % WORD_BITS
    rows = np.ones(len(labels), dtype=bool)
    for word, mask in masks.items():
        rows &= labels[:, word] & np.uint64(mask) == np.uint64(mask)
    return rows


def _pair_partners(
    labels: np.ndarray, amps: np.ndarray, active: np.ndarray, word: int, bit: np.uint64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair up the active terms whose labels differ only in the target bit.

    Returns each distinct active label with the target bit cleared, once, and
    the amplitudes of its bit-clear and bit-set terms (0 where absent).
    """
    keys, amps = labels.compress(active, axis=0), amps.compress(active)
    one = keys[:, word] & bit != 0
    keys[:, word] &= ~bit
    order = np.lexsort(keys.T)
    keys, amps, one = keys[order], amps[order], one[order]
    # Labels are unique, so a run of equal keys is one term or a term and its
    # partner: the first and last row of a run hold both members.
    edges = np.ones(len(amps) + 1, dtype=bool)
    edges[1:-1] = (keys[1:] != keys[:-1]).any(axis=1)
    first, last = edges[:-1].nonzero()[0], edges[1:].nonzero()[0]
    partner = np.where(last != first, amps[last], 0)
    swap, amps = one[first], amps[first]
    return keys[first], np.where(swap, partner, amps), np.where(swap, amps, partner)


def apply_gate(state: SparseState, gate: Gate) -> SparseState:
    """Exact action of the gate's unitary; returns a new state whose amplitudes
    do not depend on the order of the input terms."""
    if any(q >= state.layout.q_total for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.layout.q_total} qubits")
    *controls, target = gate.qubits
    word, shift = target // WORD_BITS, np.uint64(target % WORD_BITS)
    bit = np.uint64(1) << shift
    labels, amps = state.labels, state.amps

    if gate.kind in _PERMUTE:
        flip = _all_set(labels, controls).astype(np.uint64)
        labels = labels.copy()
        labels[:, word] ^= flip << shift
    elif gate.kind in _PHASE:
        amps = np.where(_all_set(labels, gate.qubits), -amps, amps)
    elif gate.kind in _SPLIT:
        m00, m01, m10, m11 = _split_matrix(gate)
        active = _all_set(labels, controls)
        passed = ~active
        lo, a0, a1 = _pair_partners(labels, amps, active, word, bit)
        hi = lo.copy()
        hi[:, word] |= bit
        # Pass-through terms collide with no output, so they are only pruned.
        labels = np.concatenate((labels.compress(passed, axis=0), lo, hi))
        amps = np.concatenate((amps.compress(passed), m00 * a0 + m01 * a1, m10 * a0 + m11 * a1))
        amps += 0.0  # turns -0.0 parts into 0.0, so readouts never print "-0.0"
        kept = np.abs(amps) >= PRUNE_THRESHOLD
        if not kept.all():
            kept = kept.nonzero()[0]
            labels, amps = labels[kept], amps[kept]
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return SparseState._from_arrays(state.layout, labels, amps)


def run(circuit: Circuit) -> SparseState:
    """Fold apply_gate over the circuit starting from the all-zeros state."""
    state = init_state(circuit.layout)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def _readout_order(state: SparseState) -> np.ndarray:
    """Indices of the terms at or above the prune threshold, sorted by their
    qubit-0-first bitstrings."""
    kept = np.flatnonzero(np.abs(state.amps) >= PRUNE_THRESHOLD)
    # Unpacking qubit-0-first and repacking MSB-first puts qubit 0 at the top
    # of big-endian word 0, qubit 64 at the top of word 1, and so on.
    octets = np.ascontiguousarray(state.labels[kept], dtype="<u8").view(np.uint8)
    rev = np.packbits(np.unpackbits(octets, axis=1, bitorder="little"), axis=1).view(">u8")
    # lexsort's primary key is its last: reversed word 0, then word 1, ...
    return kept[np.lexsort(rev.T[::-1])]


def readout(state: SparseState) -> list[tuple[int, complex]]:
    """All terms sorted lexicographically by qubit-0-first bitstring."""
    order = _readout_order(state)
    return list(zip(_to_ints(state.labels[order]), state.amps[order].tolist()))


def _inverse_cdf(
    probabilities: np.ndarray, norm: float, shots: int, seed: int
) -> tuple[np.ndarray, ...]:
    """The cumulative probabilities and the seeded uniform draws, once the
    shot count and the state's norm^2 `norm` are checked."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not abs(norm - 1.0) <= NORM_TOLERANCE:  # also refuses a NaN norm
        raise StateNormError(f"state norm^2 = {norm!r}, expected 1")
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0  # guard the top bin against rounding
    return cdf, np.random.default_rng(seed).random(shots)


def sample(state: SparseState, shots: int, seed: int) -> list[int]:
    """Draw basis labels i.i.d. with probability |amp|^2.

    Inverse-CDF over the canonical readout order, so a seed fully determines
    the shot sequence: the term at readout position i takes the draws in
    [cdf[i-1], cdf[i]).
    """
    order = _readout_order(state)
    probabilities = np.abs(state.amps[order]) ** 2
    cdf, draws = _inverse_cdf(probabilities, state.norm_squared(), shots, seed)
    return _to_ints(state.labels[order[np.searchsorted(cdf, draws, side="right")]])


def sample_counts(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The shots of `sample` counted per outcome, given the outcomes'
    probabilities in readout order, read off the sorted draws by one search
    per outcome."""
    cdf, draws = _inverse_cdf(probabilities, float(probabilities.sum()), shots, seed)
    draws.sort()
    return np.diff(np.searchsorted(draws, cdf, side="left"), prepend=0)
