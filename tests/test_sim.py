import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantum_nqueens.circuit import (
    Gate,
    build_column_checks,
    build_full_circuit,
    build_w_prep,
    layout,
)
from quantum_nqueens.sim import (
    RNG_ALGORITHM,
    SparseState,
    StateNormError,
    apply_gate,
    bitstring,
    dump_readout,
    init_state,
    readout,
    run,
    sample,
)


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

    def test_sparsity_bound_during_column_checks(self):
        n = 4
        lay = layout(4)
        gates = []
        for row in range(n):
            gates.extend(build_w_prep(n, row))
        gates.extend(build_column_checks(n))
        state = init_state(lay)
        peak = 1
        for g in gates:
            state = apply_gate(state, g)
            peak = max(peak, len(state.terms))
        assert peak <= 2 * n**n
        assert len(state.terms) == n**n

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

    def test_dump_format(self):
        state = run(build_full_circuit(1))
        assert dump_readout(state) == "1 1.0 0.0"

    def test_bitstring_qubit0_first(self):
        assert bitstring(0b001, 3) == "100"


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
