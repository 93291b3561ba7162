"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import math
import random
import time

import pytest

from quantum_nqueens import analysis, board, circuit, qasm, sim
from quantum_nqueens.circuit import Gate, build_full_circuit, build_w_prep, layout
from quantum_nqueens.sim import SparseState, apply_gate, init_state, readout, run


def report(criterion, detail):
    print(f"PASS  {criterion}: {detail}")


@pytest.fixture(scope="module")
def n4_state():
    return run(build_full_circuit(4))


def test_criterion_1_n4_exhaustive_reproduction(n4_state):
    start = time.perf_counter()
    circ = build_full_circuit(4)
    state = run(circ)
    elapsed = time.perf_counter() - start

    assert circ.layout.q_total == 25
    assert circ.layout.n_system == 16
    assert circ.layout.n_col_anc + circ.layout.n_diag_anc == 9

    assert len(state.terms) == 256
    for amp in state.terms.values():
        assert abs(abs(amp) - 1 / 16) <= 1e-10

    boards = analysis.postselect_solutions(state)
    quantum = sorted(board.PermutationVector.from_board(b).cols for b in boards)
    classical = sorted(s.cols for s in board.solve_classical(4))
    assert len(quantum) == 2
    assert quantum == classical

    assert elapsed < 5.0
    report(
        "criterion 1 (N=4 exhaustive)",
        f"25 qubits, 256 terms at 1/16, 2 post-selected boards = oracle, {elapsed:.2f}s",
    )


def test_criterion_2_n4_sampling(n4_state):
    in_range = 0
    for seed in range(100):
        shots = sim.sample(n4_state, shots=310, seed=seed)
        distinct = len(set(shots))
        if 150 <= distinct <= 205:
            in_range += 1
        for lbl in set(shots):
            record = analysis.decode(lbl, n4_state.layout)
            assert (record.col_anc, record.diag_anc) == analysis.ancilla_truth(
                record.board
            )
    assert in_range >= 99
    report(
        "criterion 2 (N=4 sampling)",
        f"{in_range}/100 seeds with distinct outcomes in [150, 205]; "
        "all shot ancillas match classical truth",
    )


def test_criterion_3_oracle_equivalence_sweep():
    expected_counts = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4}
    timings = {}
    for n in range(1, 7):
        start = time.perf_counter()
        vr = analysis.verify_against_oracle(n)
        timings[n] = time.perf_counter() - start
        assert vr.equal
        assert vr.ancilla_mismatches == 0
        assert len(vr.classical_solutions) == expected_counts[n]
    assert timings[6] < 60.0
    report(
        "criterion 3 (oracle sweep n=1..6)",
        f"counts 1,0,0,2,10,4 all equal; n=6 in {timings[6]:.1f}s",
    )


def test_criterion_4_resource_count_theorems():
    for n in range(1, 13):
        census = circuit.gate_census(build_full_circuit(n))
        assert census.column_check_gates == (n - 1) * (n + 2)
        assert (
            census.diagonal_ccx
            == n * n * (n - 1) - n * (n - 1) - n * (n - 1) * (n - 2) // 3
        )
        assert layout(n).q_total == (3 * n * n + n - 2) // 2
    for n in range(1, 1001):
        assert (
            circuit.diagonal_pair_count_simplified(n)
            == circuit.diagonal_pair_count(n)
            == circuit.diagonal_pair_count_sum(n)
        )
    report(
        "criterion 4 (resource counts)",
        "built census = closed forms for n=1..12; "
        "simplified diagonal form agrees for n=1..1000",
    )


def test_criterion_5_even_parity_proposition():
    for n in range(1, 11):
        assert board.verify_even_parity_proposition(n) is True
    report(
        "criterion 5 (parity proposition)",
        "every composition of n into n parts has an even count of evens, n=1..10",
    )


def test_criterion_6_w_state_fidelity():
    for n in range(2, 7):
        for row in range(n):
            state = init_state(layout(n))
            for g in build_w_prep(n, row):
                state = apply_gate(state, g)
            assert len(state.terms) == n
            for lbl, amp in state.terms.items():
                assert bin(lbl).count("1") == 1
                assert abs(amp - 1 / math.sqrt(n)) <= 1e-12
    report(
        "criterion 6 (W-state fidelity)",
        "each row block has n one-hot amplitudes equal to 1/sqrt(n), n=2..6",
    )


_ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}


def _random_gate(rng, active):
    kind = rng.choice(sorted(_ARITY))
    qubits = tuple(rng.sample(active, _ARITY[kind]))
    theta = rng.uniform(-math.pi, math.pi) if kind in ("RY", "CRY") else None
    return Gate(kind, qubits, theta)


def test_criterion_7_engine_properties():
    lay = layout(4)
    rng = random.Random(2024)
    # active window of 12 qubits spanning all three register ranges, capping
    # the sparse support at 4096 terms over the 25-qubit layout
    active = [0, 1, 5, 6, 10, 11, 15, 16, 17, 19, 20, 24]

    state = init_state(lay)
    worst = 0.0
    for _ in range(10_000):
        state = apply_gate(state, _random_gate(rng, active))
        worst = max(worst, abs(state.norm_squared() - 1.0))
    assert worst <= 1e-10

    for g in [
        Gate("X", (3,)),
        Gate("H", (1,)),
        Gate("RY", (2,), 0.77),
        Gate("CX", (4, 6)),
        Gate("CRY", (5, 7), -1.3),
        Gate("CZ", (0, 8)),
        Gate("CCX", (1, 2, 9)),
    ]:
        back = apply_gate(apply_gate(state, g), g.inverse())
        for lbl, amp in state.terms.items():
            assert abs(amp - back.terms.get(lbl, 0.0)) <= 1e-12

    # The result must not depend on the order in which terms are visited:
    # reversing the term order after every gate leaves the terms bit-identical.
    circ = build_full_circuit(4)
    reordered = init_state(circ.layout)
    for g in circ.gates:
        reordered = apply_gate(reordered, g)
        reordered = SparseState(circ.layout, dict(reversed(reordered.terms.items())))
    assert reordered.terms == run(circ).terms

    report(
        "criterion 7 (engine properties)",
        f"10^4-gate fuzz max norm drift {worst:.2e}; inverses restore state; "
        "term-order independence",
    )


def test_criterion_8_qasm_round_trip(tmp_path):
    from pathlib import Path

    golden_dir = Path(__file__).parent / "golden"
    for n in (1, 2, 4):
        circ = build_full_circuit(n)
        doc = qasm.export_qasm(circ)
        original = run(circ)
        reparsed = run(qasm.parse_qasm_subset(doc.text))
        labels = set(original.terms) | set(reparsed.terms)
        for lbl in labels:
            a = original.terms.get(lbl, 0.0)
            b = reparsed.terms.get(lbl, 0.0)
            assert abs(a - b) <= 1e-10
        golden = (golden_dir / f"nqueens_n{n}.qasm").read_bytes()
        assert doc.text.encode("utf-8") == golden
    report(
        "criterion 8 (QASM round-trip)",
        "parse(export) reproduces final states for n=1,2,4; golden files byte-stable",
    )
