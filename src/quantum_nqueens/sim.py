"""Exact sparse statevector engine.

A state is two parallel numpy arrays with one row per nonzero basis term:
`labels`, an (N, W) uint64 array, and `amps`, an (N,) complex128 array. A
label spans W = ceil(q_total / 64) words, qubit q being bit q % 64 of word
q // 64, so every register width runs the same code. No label repeats.

Every gate lists its controls before its target and acts only on the terms
whose controls are all set:

- X/CX/CCX XOR the target bit and CZ negates the amplitude, both without
  floating-point arithmetic, so they are bit-exact; each copies one array
  and flips it in place under the control mask;
- H/RY/CRY act by the gate's real 2x2 matrix on each pair of active terms
  whose labels differ only in the target bit. One lexsort of the active
  labels with that bit cleared puts each term next to its partner, if it has
  one, so every output label gets at most two contributions and no sum
  depends on term order. The terms whose controls are unset pass through
  unchanged, and every result below 1e-12 magnitude is pruned.

A split gate passes over its N active terms to copy the keys, sort them and
find, word by word, where each run of equal keys starts; then over its G runs
to gather each run's first and last amplitude and combine them; then over
its output to test magnitudes and write the labels. Its temporaries live in
a per-thread workspace of named byte slots, each viewed as whatever dtype and
length a request asks for; a slot grows to the largest request seen and
serves the next gate, so that a gate allocates little more than the sort's
index and the arrays it returns, none of which views the workspace. `run`
releases its thread's workspace when it returns; a thread that calls
`apply_gate` directly keeps its buffers until it calls `run` or ends.

Readout order is the qubit-0-first bitstring order, which is the numeric order
of the bit-reversed label: a lexsort over the bit-reversed words, with no
string built per term.
"""

from __future__ import annotations

import math
import operator
import threading
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


class _Workspace(threading.local):
    """Scratch buffers reused from gate to gate, one set per thread.

    Each named slot is a buffer of bytes. `array(slot, count, dtype)` grows
    the slot's buffer when it is shorter than `count` items of `dtype`, then
    returns its leading bytes viewed as an uninitialised 1-D array of that
    dtype. A slot holds one array at a time: asking for it again hands its
    bytes on.

    A slot of MAPPED_BYTES or more is an anonymous memory map, so dropping it
    returns its pages to the system at once. Freed heap blocks would stay
    resident under what `verify` allocates after `run`: with heap slots only,
    verify 7 peaked at 264 MB, against 244 MB with the large ones mapped.
    Mapping every slot instead made engine-dense a quarter slower, with a
    map, an unmap and fresh pages for every growth of a small slot.
    """

    MAPPED_BYTES = 1 << 20

    def __init__(self) -> None:
        self.slots: dict[str, np.ndarray] = {}

    def array(self, slot: str, count: int, dtype: np.dtype) -> np.ndarray:
        nbytes = count * dtype.itemsize
        buf = self.slots.get(slot)
        if buf is None or len(buf) < nbytes:
            if nbytes < self.MAPPED_BYTES:
                buf = np.empty(nbytes, np.uint8)
            else:
                import mmap  # only large slots need it, so importing sim does not

                buf = np.frombuffer(mmap.mmap(-1, nbytes), np.uint8)
            self.slots[slot] = buf
        return np.ndarray(count, dtype, buf)

    def clear(self) -> None:
        self.slots.clear()


_thread = _Workspace()
_BOOL, _U64, _INTP, _F64, _C128 = map(
    np.dtype, (bool, np.uint64, np.intp, np.float64, np.complex128)
)


def _all_set(labels: np.ndarray, qubits, ws: _Workspace) -> np.ndarray | bool:
    """Rows of `labels` in which every one of `qubits` is set, as a mask in
    slot "rows"; True when `qubits` is empty."""
    masks: dict[int, int] = {}
    for q in qubits:
        masks[q // WORD_BITS] = masks.get(q // WORD_BITS, 0) | 1 << q % WORD_BITS
    rows = True
    for word, mask in masks.items():
        mask = np.uint64(mask)
        words = np.bitwise_and(labels[:, word], mask, out=ws.array("a", len(labels), _U64))
        if rows is True:
            rows = np.equal(words, mask, out=ws.array("rows", len(labels), _BOOL))
        else:
            rows &= np.equal(words, mask, out=ws.array("bits", len(labels), _BOOL))
    return rows


def _pair_runs(
    labels: np.ndarray, active: np.ndarray | bool, word: int, bit: np.uint64, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `labels` that start and end each run of partners: active terms
    whose labels differ at most in the target bit (`word`, `bit`).

    `active` masks the rows that take part, True for all. One lexsort of their
    labels with the target bit cleared puts each term next to its partner, if
    it has one. The results are in slots "first" and "last"; the sort's index
    and the run starts are the only new arrays, and they die on return.
    """
    taking = None if active is True else active.nonzero()[0]
    count = len(labels) if taking is None else len(taking)
    width = labels.shape[1]
    keys = ws.array("a", width * count, _U64).reshape(width, count)
    for w in range(width):
        column = labels[:, w]
        if taking is not None:
            column = column.take(taking, out=keys[w], mode="clip")
        if w == word:
            np.bitwise_and(column, ~bit, out=keys[w])
        elif taking is None:
            np.copyto(keys[w], column)
    order = np.lexsort(keys)  # the last word is the primary key
    # Labels are unique, so a run of equal keys is one term or a term and its
    # partner: the first and last row of a run hold both members.
    edges = ws.array("edges", count + 1, _BOOL)
    edges[0] = edges[count] = True
    inner = edges[1:count]
    for w in range(width):
        column = keys[w].take(order, out=ws.array("b", count, _U64), mode="clip")
        if w == 0:
            np.not_equal(column[1:], column[:-1], out=inner)
        else:
            inner |= np.not_equal(column[1:], column[:-1], out=ws.array("bits", len(inner), _BOOL))
    if taking is not None:
        order = taking.take(order, out=ws.array("b", count, _INTP), mode="clip")
    starts = edges.nonzero()[0]  # where each run starts, then `count`
    runs = len(starts) - 1
    first = order.take(starts[:-1], out=ws.array("first", runs, _INTP), mode="clip")
    ends = np.subtract(starts[1:], 1, out=ws.array("a", runs, _INTP))
    return first, order.take(ends, out=ws.array("last", runs, _INTP), mode="clip")


def _split(
    labels: np.ndarray, amps: np.ndarray, controls, word: int, bit: np.uint64, matrix, ws
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and amplitudes once the real 2x2 `matrix` has acted on the target
    bit (`word`, `bit`) of every term whose `controls` are all set.

    The large temporaries take turns in slots "a" and "b" of `ws`, so only the
    pass-through rows and the returned arrays are new here.
    """
    m00, m01, m10, m11 = matrix
    width = labels.shape[1]
    active = _all_set(labels, controls, ws)
    first, last = _pair_runs(labels, active, word, bit, ws)
    runs = len(first)
    passed = None if active is True else np.logical_not(active, out=active).nonzero()[0]
    npass = 0 if passed is None else len(passed)

    # a0 and a1 are each run's bit-clear and bit-set amplitudes, 0 where absent:
    # a run of one term has no partner, and the bit-set term may sort first.
    single = np.equal(first, last, out=ws.array("single", runs, _BOOL))
    swap = labels[:, word].take(first, out=ws.array("b", runs, _U64), mode="clip")
    swap = np.not_equal(np.bitwise_and(swap, bit, out=swap), 0, out=ws.array("swap", runs, _BOOL))
    a0 = amps.take(first, out=ws.array("a", runs, _C128), mode="clip")
    a1 = amps.take(last, out=ws.array("b", runs, _C128), mode="clip")
    np.copyto(a1, 0, where=single)
    out = ws.array("amps", npass + 2 * runs, _C128)
    lo, hi = out[npass : npass + runs], out[npass + runs :]
    np.copyto(lo, a0)  # lo is free until the products below
    np.copyto(a0, a1, where=swap)
    np.copyto(a1, lo, where=swap)
    np.add(np.multiply(m00, a0, out=lo), np.multiply(m01, a1, out=hi), out=lo)
    np.add(np.multiply(m10, a0, out=hi), np.multiply(m11, a1, out=a1), out=hi)
    if passed is not None:  # pass-through terms collide with no output, so they are only pruned
        amps.take(passed, out=out[:npass], mode="clip")
    out += 0.0  # turns -0.0 parts into 0.0, so readouts never print "-0.0"
    magnitude = np.abs(out, out=ws.array("a", len(out), _F64))
    kept = np.greater_equal(magnitude, PRUNE_THRESHOLD, out=ws.array("kept", len(out), _BOOL))
    pruned = np.count_nonzero(kept) < len(out)

    # The labels go straight into the returned array unless some are pruned.
    size = len(out) * width
    new = ws.array("b", size, _U64) if pruned else np.empty(size, np.uint64)
    new = new.reshape(len(out), width)
    if passed is not None:
        labels.take(passed, axis=0, out=new[:npass], mode="clip")
    lo, hi = new[npass : npass + runs], new[npass + runs :]
    labels.take(first, axis=0, out=lo, mode="clip")
    lo[:, word] &= ~bit
    np.copyto(hi, lo)
    hi[:, word] |= bit
    if not pruned:
        return new, out.copy()
    kept = kept.nonzero()[0]
    return new.take(kept, axis=0), out.take(kept)


def apply_gate(state: SparseState, gate: Gate) -> SparseState:
    """Exact action of the gate's unitary; returns a new state whose amplitudes
    do not depend on the order of the input terms."""
    if any(q >= state.layout.q_total for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.layout.q_total} qubits")
    *controls, target = gate.qubits
    word, bit = target // WORD_BITS, np.uint64(1 << target % WORD_BITS)
    labels, amps = state.labels, state.amps
    ws = _thread

    if gate.kind in _PERMUTE:
        flip = _all_set(labels, controls, ws)
        labels = labels.copy()
        np.bitwise_xor(labels[:, word], bit, out=labels[:, word], where=flip)
    elif gate.kind in _PHASE:
        flip = _all_set(labels, gate.qubits, ws)
        amps = amps.copy()
        np.negative(amps, out=amps, where=flip)
    elif gate.kind in _SPLIT:
        labels, amps = _split(labels, amps, controls, word, bit, _split_matrix(gate), ws)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return SparseState._from_arrays(state.layout, labels, amps)


def run(circuit: Circuit) -> SparseState:
    """Fold apply_gate over the circuit starting from the all-zeros state, then
    release this thread's workspace."""
    state = init_state(circuit.layout)
    try:
        for gate in circuit.gates:
            state = apply_gate(state, gate)
    finally:
        _thread.clear()
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
