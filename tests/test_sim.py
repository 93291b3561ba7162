import math
import mmap
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantum_nqueens import sim
from quantum_nqueens.circuit import (
    Gate,
    build_full_circuit,
    layout,
)
from quantum_nqueens.sim import (
    RNG_ALGORITHM,
    SparseState,
    StateNormError,
    apply_gate,
    bitstring,
    init_state,
    readout,
    run,
    sample,
    sample_counts,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import dense_circuit  # noqa: E402


def single_qubit_state(amps):
    lay = layout(1)
    return SparseState(lay, {lbl: amp for lbl, amp in amps.items() if amp})


class TestInitState:
    def test_single_zero_term(self):
        state = init_state(layout(4))
        assert state.terms == {0: 1.0 + 0.0j}

    def test_norm_exact(self):
        assert init_state(layout(1)).norm_squared() == 1.0


class TestSingleGates:
    def test_x_flips(self):
        state = apply_gate(init_state(layout(1)), Gate("X", (0,)))
        assert state.terms == {1: 1.0 + 0.0j}

    def test_h_splits(self):
        state = apply_gate(init_state(layout(1)), Gate("H", (0,)))
        assert set(state.terms) == {0, 1}
        for a in state.terms.values():
            assert abs(a - 1 / math.sqrt(2)) < 1e-15

    def test_h_on_one_has_sign(self):
        state = single_qubit_state({1: 1.0})
        state = apply_gate(state, Gate("H", (0,)))
        assert abs(state.terms[0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(state.terms[1] + 1 / math.sqrt(2)) < 1e-15

    def test_cz_phase_on_11(self):
        lay = layout(2)  # 5 qubits; use 0, 1
        state = SparseState(lay, {0b11: 1.0 + 0j})
        state = apply_gate(state, Gate("CZ", (0, 1)))
        assert state.terms == {0b11: -1.0 + 0j}

    def test_cz_identity_elsewhere(self):
        lay = layout(2)
        for lbl in (0b00, 0b01, 0b10):
            state = apply_gate(SparseState(lay, {lbl: 1.0 + 0j}), Gate("CZ", (0, 1)))
            assert state.terms == {lbl: 1.0 + 0j}

    def test_cx(self):
        lay = layout(2)
        state = apply_gate(SparseState(lay, {0b01: 1.0 + 0j}), Gate("CX", (0, 1)))
        assert state.terms == {0b11: 1.0 + 0j}

    def test_ccx_truth_table(self):
        lay = layout(2)
        for lbl in range(8):
            state = apply_gate(SparseState(lay, {lbl: 1.0 + 0j}), Gate("CCX", (0, 1, 2)))
            expected = lbl ^ 0b100 if lbl & 0b11 == 0b11 else lbl
            assert state.terms == {expected: 1.0 + 0j}

    def test_ry_rotation(self):
        theta = 0.8
        state = apply_gate(init_state(layout(1)), Gate("RY", (0,), theta))
        assert abs(state.terms[0] - math.cos(theta / 2)) < 1e-15
        assert abs(state.terms[1] - math.sin(theta / 2)) < 1e-15

    def test_cry_inactive_control(self):
        lay = layout(2)
        state = apply_gate(SparseState(lay, {0: 1.0 + 0j}), Gate("CRY", (0, 1), 1.1))
        assert state.terms == {0: 1.0 + 0j}

    def test_cry_pass_through_leaves_no_negative_zero(self):
        lay = layout(2)
        state = SparseState(lay, {0b10: complex(-0.0, -1.0)})
        (amp,) = apply_gate(state, Gate("CRY", (0, 1), 1.1)).terms.values()
        assert repr(amp) == "-1j"

    def test_cry_prunes_a_pass_through_term_below_threshold(self):
        lay = layout(2)
        state = SparseState(lay, {0b01: 1.0 + 0j, 0b10: 1e-13 + 0j})
        state = apply_gate(state, Gate("CRY", (0, 1), 1.1))
        assert set(state.terms) == {0b01, 0b11}

    def test_cry_active_control(self):
        lay = layout(2)
        theta = 1.1
        state = apply_gate(SparseState(lay, {0b01: 1.0 + 0j}), Gate("CRY", (0, 1), theta))
        assert abs(state.terms[0b01] - math.cos(theta / 2)) < 1e-15
        assert abs(state.terms[0b11] - math.sin(theta / 2)) < 1e-15

    def test_operand_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(init_state(layout(1)), Gate("X", (5,)))


class TestParitySandwich:
    @pytest.mark.parametrize("column_sum", range(5))
    def test_ancilla_reads_parity(self, column_sum):
        # H-CZ^s-H on an ancilla against s set system qubits flips it to |s mod 2>
        lay = layout(4)
        anc = lay.col_anc_qubit(0)
        label = 0
        for r in range(column_sum):
            label |= 1 << lay.system_qubit(r, 0)
        state = SparseState(lay, {label: 1.0 + 0j})
        state = apply_gate(state, Gate("H", (anc,)))
        for r in range(column_sum):
            state = apply_gate(state, Gate("CZ", (anc, lay.system_qubit(r, 0))))
        state = apply_gate(state, Gate("H", (anc,)))
        expected = label | (1 << anc) if column_sum % 2 else label
        assert set(state.terms) == {expected}
        assert abs(state.terms[expected] - 1.0) < 1e-12


class TestRun:
    def test_n1_full_circuit(self):
        state = run(build_full_circuit(1))
        assert state.terms == {1: 1.0 + 0.0j}

    def test_n2_full_circuit(self):
        state = run(build_full_circuit(2))
        assert len(state.terms) == 4
        for a in state.terms.values():
            assert abs(a - 0.5) < 1e-12

    def test_n4_full_circuit(self):
        state = run(build_full_circuit(4))
        assert len(state.terms) == 256
        for a in state.terms.values():
            assert abs(abs(a) - 1 / 16) < 1e-10

    @pytest.mark.parametrize("n", range(2, 6))
    def test_final_state_classicality(self, n):
        # no residual phases: every amplitude is +n^(-n/2) exactly (to tolerance)
        state = run(build_full_circuit(n))
        assert len(state.terms) == n**n
        target = n ** (-n / 2)
        for a in state.terms.values():
            assert complex(a).imag == 0.0
            assert abs(a - target) < 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sparsity_bound_during_column_checks(self, n):
        # The CLI's memory bound assumes this peak: each column check's first H
        # doubles the n**n boards, and its second H halves them again.
        circ = build_full_circuit(n)
        state = init_state(circ.layout)
        peak = 1
        for g in circ.gates:
            state = apply_gate(state, g)
            peak = max(peak, len(state))
        assert peak == (2 * n**n if n >= 2 else 1)
        assert len(state) == n**n

    def test_norm_preserved_throughout(self):
        state = init_state(layout(3))
        for g in build_full_circuit(3).gates:
            state = apply_gate(state, g)
            assert abs(state.norm_squared() - 1.0) < 1e-10


class TestReversibility:
    def test_gate_then_inverse_restores(self):
        state = run(build_full_circuit(3))
        for g in [
            Gate("X", (2,)),
            Gate("H", (5,)),
            Gate("RY", (1,), 0.9),
            Gate("CX", (0, 7)),
            Gate("CRY", (3, 4), 1.7),
            Gate("CZ", (2, 9)),
            Gate("CCX", (1, 2, 10)),
        ]:
            forth = apply_gate(state, g)
            back = apply_gate(forth, g.inverse())
            assert set(back.terms) == set(state.terms)
            for lbl, a in state.terms.items():
                assert abs(a - back.terms[lbl]) < 1e-12


def assert_same_bits(state, expected):
    """Same labels in the same order, and every amplitude with the same bits."""
    assert state.labels.tobytes() == expected.labels.tobytes()
    assert state.amps.tobytes() == expected.amps.tobytes()


class TestWorkspace:
    """Split gates keep their temporaries in a per-thread workspace that the
    next gate reuses; no state may see those buffers."""

    def test_earlier_states_survive_later_gates(self):
        circ = dense_circuit(1)
        state = init_state(circ.layout)
        kept = []
        for gate in circ.gates[:20]:  # the RY layer to full support, then four more
            state = apply_gate(state, gate)
            kept.append((state, state.labels.tobytes(), state.amps.tobytes()))
        for gate in circ.gates[20:]:
            state = apply_gate(state, gate)
        for state, labels, amps in kept:
            assert (state.labels.tobytes(), state.amps.tobytes()) == (labels, amps)

    def test_threads_match_sequential_runs(self):
        circuits = [dense_circuit(seed) for seed in range(1, 5)]  # one thread each
        expected = [run(circ) for circ in circuits]
        results = [[] for _ in circuits]

        def work(i):
            for _ in range(3):
                results[i].append(run(circuits[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(circuits))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for states, want in zip(results, expected):
            assert len(states) == 3
            for state in states:
                assert_same_bits(state, want)

    def test_run_releases_its_workspace(self):
        apply_gate(init_state(layout(4)), Gate("H", (0,)))
        assert sim._thread.slots
        run(dense_circuit(1))
        assert sim._thread.slots == {}

    def test_slot_is_viewed_as_each_requested_dtype(self):
        ws = sim._Workspace()
        words = ws.array("s", 3, np.dtype(np.uint64))
        assert (words.dtype, len(words), ws.slots["s"].nbytes) == (np.uint64, 3, 24)
        amps = ws.array("s", 5, np.dtype(np.complex128))  # longer: the slot grows
        assert (amps.dtype, len(amps), ws.slots["s"].nbytes) == (np.complex128, 5, 80)
        assert np.shares_memory(amps, ws.slots["s"])
        again = ws.array("s", 2, np.dtype(np.uint64))  # shorter: the same bytes
        assert (again.dtype, len(again)) == (np.uint64, 2)
        assert np.shares_memory(again, amps)

    def test_large_slots_are_memory_maps(self):
        ws = sim._Workspace()
        count = sim._Workspace.MAPPED_BYTES // 8
        ws.array("large", count, np.dtype(np.float64))
        ws.array("small", count - 1, np.dtype(np.float64))
        backing = {}
        for slot, buf in ws.slots.items():
            base = buf.base  # numpy wraps the buffer in a memoryview on some versions
            backing[slot] = type(base.obj if isinstance(base, memoryview) else base)
        assert backing == {"large": mmap.mmap, "small": type(None)}

    @pytest.mark.parametrize("n, qubits", [(2, (0, 3, 4)), (7, (63, 64, 75))], ids=["W1", "W2"])
    @pytest.mark.parametrize("kind", ["X", "H", "RY", "CX", "CRY", "CZ", "CCX"])
    def test_empty_state_stays_empty(self, n, qubits, kind):
        arity = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}[kind]
        empty = SparseState(layout(n))
        after = apply_gate(empty, Gate(kind, qubits[-arity:], 0.7 if "RY" in kind else None))
        assert len(after) == 0
        assert after.labels.shape == (0, empty.labels.shape[1])
        assert after.terms == {}


class TestPermutationExactness:
    def test_no_float_error_from_permutation_gates(self):
        # X/CX/CCX/CZ must move or negate amplitudes bit-exactly
        lay = layout(2)
        amp = 0.12345678901234567 + 0.7654321j
        state = SparseState(lay, {0b011: amp})
        for g in [Gate("X", (3,)), Gate("CX", (0, 4)), Gate("CCX", (0, 1, 2)), Gate("CZ", (0, 1))]:
            state = apply_gate(state, g)
        (final_amp,) = state.terms.values()
        assert final_amp == -amp


class TestReadout:
    def test_sorted_lexicographically(self):
        state = run(build_full_circuit(2))
        rows = readout(state)
        width = state.layout.q_total
        strings = [bitstring(lbl, width) for lbl, _ in rows]
        assert strings == sorted(strings)

    def test_row_count_n4(self):
        assert len(readout(run(build_full_circuit(4)))) == 256

    def test_total_probability(self):
        rows = readout(run(build_full_circuit(4)))
        assert abs(sum(abs(a) ** 2 for _, a in rows) - 1.0) < 1e-10

    def test_bitstring_qubit0_first(self):
        assert bitstring(0b001, 3) == "100"


class TestMultiwordLabels:
    # layout(7) has 76 qubits: labels span two 64-bit words.
    LAYOUT = layout(7)

    def test_labels_above_one_word_round_trip(self):
        terms = {2**64: 0.5 + 0j, 2**75 + 2**63 + 1: 0.5j, 2**64 - 1: -0.5 + 0j, 3: 0.5 + 0j}
        state = SparseState(self.LAYOUT, terms)
        assert state.labels.shape == (4, 2)
        assert state.terms == terms

    @settings(max_examples=100, deadline=None)
    @given(
        terms=st.dictionaries(
            st.integers(0, 2**76 - 1),
            st.complex_numbers(max_magnitude=1, allow_nan=False),
            max_size=20,
        )
    )
    def test_terms_round_trip(self, terms):
        assert SparseState(self.LAYOUT, terms).terms == terms

    @pytest.mark.parametrize("label", [-1, 2**76])
    def test_label_out_of_range(self, label):
        with pytest.raises(ValueError):
            SparseState(self.LAYOUT, {label: 1.0 + 0j})

    @pytest.mark.parametrize("lay", [layout(4), LAYOUT], ids=["1-word", "2-words"])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_numpy_integer_labels(self, lay, dtype):
        terms = {5: 0.6 + 0j, 2 ** min(lay.q_total - 1, 62): 0.8 + 0j}  # int64 holds 2**62
        state = SparseState(lay, {dtype(lbl): amp for lbl, amp in terms.items()})
        assert state.terms == terms
        assert all(type(lbl) is int for lbl in state.terms)

    def test_label_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="state labels must be integers"):
            SparseState(layout(4), {5.0: 1.0 + 0j})

    # layout(10) has 154 qubits: three words, so two word boundaries.
    @pytest.mark.parametrize("lay", [LAYOUT, layout(10)], ids=["2-words", "3-words"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_readout_sorts_by_bitstring(self, lay, data):
        width = lay.q_total
        labels = data.draw(st.sets(st.integers(0, 2**width - 1), min_size=1, max_size=30))
        rows = readout(SparseState(lay, dict.fromkeys(labels, 0.5 + 0j)))
        strings = [bitstring(lbl, width) for lbl, _ in rows]
        assert strings == sorted(bitstring(lbl, width) for lbl in labels)

    def test_sample_returns_wide_labels(self):
        terms = {2**75: 0.6 + 0j, 2**64 + 5: 0.8 + 0j}
        shots = sample(SparseState(self.LAYOUT, terms), 200, seed=1)
        assert set(shots) == set(terms)


class TestSample:
    def test_single_term_state(self):
        state = run(build_full_circuit(1))
        shots = sample(state, 10, seed=7)
        assert shots == [1] * 10

    def test_deterministic_given_seed(self):
        state = run(build_full_circuit(4))
        assert sample(state, 310, seed=3) == sample(state, 310, seed=3)

    def test_different_seeds_differ(self):
        state = run(build_full_circuit(4))
        assert sample(state, 310, seed=1) != sample(state, 310, seed=2)

    def test_distinct_count_range(self):
        state = run(build_full_circuit(4))
        distinct = len(set(sample(state, 310, seed=0)))
        assert 150 <= distinct <= 205

    def test_shots_in_support(self):
        state = run(build_full_circuit(4))
        support = set(state.terms)
        assert all(lbl in support for lbl in sample(state, 100, seed=5))

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(run(build_full_circuit(2)), 0, seed=0)

    def test_rejects_unnormalized(self):
        state = SparseState(layout(1), {0: 0.5 + 0j})
        with pytest.raises(StateNormError):
            sample(state, 1, seed=0)

    def test_rejects_nan_norm(self):
        state = SparseState(layout(2), {0: complex("nan"), 1: 0.5 + 0j})
        with pytest.raises(StateNormError):
            sample(state, 5, seed=1)

    def test_rows_index_the_readout_order(self):
        state = run(build_full_circuit(4))
        rows = readout(state)
        counts = sample_counts(np.abs([amp for _, amp in rows]) ** 2, 310, seed=3)
        labels = [lbl for lbl, _ in rows]
        assert [bitstring(lbl, 25) for lbl in labels] == sorted(
            bitstring(lbl, 25) for lbl in state.terms
        )
        assert len(counts) == len(state)
        assert counts.sum() == 310

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("name", ["n4", "one-term", "norm-over-1"])
    def test_counts_equal_the_counted_rows(self, name, seed):
        states = {
            "n4": lambda: run(build_full_circuit(4)),
            "one-term": lambda: init_state(layout(2)),
            # Readout order 0, 2, 1: the running sum passes 1.0 before the forced last bin.
            "norm-over-1": lambda: SparseState(
                layout(2), {0: math.sqrt(0.6), 2: math.sqrt(0.4 + 4e-7), 1: math.sqrt(1e-7)}
            ),
        }
        state = states[name]()
        rows = readout(state)
        probabilities = np.abs([amp for _, amp in rows]) ** 2
        counts = sample_counts(probabilities, 2000, seed)
        if name == "norm-over-1":
            assert np.cumsum(probabilities)[-2] > 1.0
        shots = Counter(sample(state, 2000, seed))
        assert counts.tolist() == [shots[lbl] for lbl, _ in rows]

    def test_counts_refuse_what_sample_refuses(self):
        with pytest.raises(ValueError):
            sample_counts(np.ones(1), 0, seed=0)
        with pytest.raises(StateNormError):
            sample_counts(np.full(4, 0.3), 5, seed=0)
        with pytest.raises(StateNormError):
            sample_counts(np.array([np.nan, 1.0]), 5, seed=0)

    def test_rng_algorithm_documented(self):
        assert RNG_ALGORITHM == "PCG64"


@st.composite
def random_two_qubit_states(draw):
    amps = [
        complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in range(4)
    ]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < 1e-6:
        amps[0] = 1.0 + 0j
        norm = 1.0
    return [a / norm for a in amps]


@settings(max_examples=50, deadline=None)
@given(
    amps=random_two_qubit_states(),
    gate=st.sampled_from(["X", "H", "RY", "CX", "CRY", "CZ"]),
    theta=st.floats(-math.pi, math.pi),
)
def test_norm_preserved_on_arbitrary_states(amps, gate, theta):
    lay = layout(2)
    terms = {lbl: a for lbl, a in enumerate(amps) if abs(a) > 0}
    state = SparseState(lay, terms)
    qubits = (0,) if gate in ("X", "H", "RY") else (0, 1)
    g = Gate(gate, qubits, theta if gate in ("RY", "CRY") else None)
    after = apply_gate(state, g)
    assert abs(after.norm_squared() - state.norm_squared()) < 1e-10
