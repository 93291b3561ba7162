import itertools
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from quantum_nqueens import analysis, planes, sim
from quantum_nqueens import circuit as circuit_mod
from quantum_nqueens.analysis import (
    PROBABILITY_TOLERANCE,
    EncodingError,
    OutcomeRecord,
    SamplingReport,
    VerificationReport,
    ancilla_truth,
    decode,
    encode,
    postselect_solutions,
    sampling_report,
    verify_against_oracle,
)
from quantum_nqueens.board import is_valid_solution, solve_classical
from quantum_nqueens.circuit import build_full_circuit, layout


def per_qubit_read(lbl, lay):
    """Reference decode: one layout lookup per qubit, no block arithmetic."""
    n = lay.n
    rows = [[c for c in range(n) if lbl >> lay.system_qubit(r, c) & 1] for r in range(n)]
    assert all(len(row) == 1 for row in rows)
    return (
        tuple(row[0] for row in rows),
        tuple(lbl >> lay.col_anc_qubit(c) & 1 for c in range(n - 1)),
        tuple(lbl >> lay.diag_anc_qubit(k) & 1 for k in range(1, lay.n_diag_anc + 1)),
    )


def per_qubit_ancillas(lbl, lay):
    """Ancilla bits of any label, read one qubit at a time, with no columns."""
    return OutcomeRecord(
        (),
        tuple(lbl >> lay.col_anc_qubit(c) & 1 for c in range(lay.n_col_anc)),
        tuple(lbl >> lay.diag_anc_qubit(k) & 1 for k in range(1, lay.n_diag_anc + 1)),
    )


@st.composite
def outcome_records(draw):
    """Any record at n = 1..8: columns may repeat, ancilla bits are free."""
    n = draw(st.integers(min_value=1, max_value=8))

    def bits(k, high):
        return tuple(draw(st.lists(st.integers(0, high), min_size=k, max_size=k)))

    return n, OutcomeRecord(bits(n, n - 1), bits(n - 1, 1), bits(n * (n - 1) // 2, 1))


class TestDecode:
    def test_n1(self):
        record = decode(1, layout(1))
        assert record.cols == (0,)
        assert record.col_anc == ()
        assert record.diag_anc == ()

    def test_rejects_bad_row_sum(self):
        with pytest.raises(EncodingError) as err:
            decode(0, layout(1))
        assert str(err.value) == "row 0 holds 0 queens, expected 1"

    def test_rejects_multi_queen_row(self):
        lay = layout(3)
        label = encode(OutcomeRecord((0, 2, 1), (1, 1), (1, 1, 1)), lay)
        with pytest.raises(EncodingError) as err:
            decode(label | 1 << lay.system_qubit(2, 0), lay)
        assert str(err.value) == "row 2 holds 2 queens, expected 1"
        with pytest.raises(EncodingError) as err:
            decode(label | 1 << lay.system_qubit(1, 0) | 1 << lay.system_qubit(1, 1), lay)
        assert str(err.value) == "row 1 holds 3 queens, expected 1"

    def test_register_split(self):
        lay = layout(4)
        label = encode(OutcomeRecord((0, 1, 2, 3), (1, 0, 1), (0, 1, 1, 0, 1, 0)), lay)
        record = decode(label, lay)
        assert record.cols == (0, 1, 2, 3)
        assert record.col_anc == (1, 0, 1)
        assert record.diag_anc == (0, 1, 1, 0, 1, 0)

    @pytest.mark.parametrize("cols", [(0, 1, 2, 3), (1, 3, 0, 2), (3, 3, 3, 3)])
    def test_encode_decode_round_trip(self, cols):
        lay = layout(4)
        for col_anc in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
            rec = OutcomeRecord(cols, col_anc, (1, 0, 1, 0, 1, 0))
            assert decode(encode(rec, lay), lay) == rec

    @given(outcome_records())
    @example((8, OutcomeRecord((7,) * 8, (1,) * 7, (1,) * 28)))
    def test_round_trip_any_record_up_to_n8(self, case):
        # n = 7 and 8 labels run past 2**64 (76 and 99 qubits).
        n, rec = case
        lay = layout(n)
        assert decode(encode(rec, lay), lay) == rec

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_ignores_bits_above_the_register(self, n):
        lay = layout(n)
        diag_anc = tuple(k % 2 for k in range(lay.n_diag_anc))
        rec = OutcomeRecord(tuple(range(n))[::-1], (1,) * (n - 1), diag_anc)
        label = encode(rec, lay)
        assert decode(label | 1 << lay.q_total + 3, lay) == decode(label, lay) == rec
        assert decode(label | (2**70 - 1) << lay.q_total, lay) == rec

    def test_two_bad_rows_raise_for_the_first(self):
        lay = layout(4)
        label = encode(OutcomeRecord((1, 3, 0, 2), (1, 1, 1), (1,) * 6), lay)
        label &= ~(1 << lay.system_qubit(1, 3))  # row 1 empty
        label |= 1 << lay.system_qubit(3, 0)  # row 3 holds two queens
        with pytest.raises(EncodingError) as err:
            decode(label, lay)
        assert str(err.value) == "row 1 holds 0 queens, expected 1"

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fields_are_tuples_of_int(self, n):
        state = sim.run(build_full_circuit(n))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            assert type(record) is OutcomeRecord
            assert len(record.cols) == n
            for field in record:
                assert type(field) is tuple
                assert all(type(v) is int for v in field)
        if n == 1:
            assert record == ((0,), (), ())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_qubit_reads_on_every_term(self, n):
        state = sim.run(build_full_circuit(n))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            assert (record.cols, record.col_anc, record.diag_anc) == per_qubit_read(
                lbl, state.layout
            )


@st.composite
def row_labels(draw):
    """Labels at one n in 1..8, drawn row by row: each row holds 0 to 3
    queens, mostly 1, and the ancilla bits are free. Each label comes with
    the columns of its queens, row by row."""
    n = draw(st.integers(min_value=1, max_value=8))
    lay = layout(n)
    cases = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        rows = []
        for _ in range(n):
            k = min(n, draw(st.sampled_from([0, 1, 1, 1, 1, 2, 3])))
            rows.append(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
        label = sum(1 << lay.system_qubit(r, c) for r, row in enumerate(rows) for c in row)
        anc = draw(st.integers(0, 2 ** (lay.n_col_anc + lay.n_diag_anc) - 1))
        cases.append((label | anc << lay.n_system, rows))
    return n, cases


class TestDecodeRows:
    """The plane path's board rows, queen columns from each board's readout
    position and ancilla bits from the planes, against `decode` of the
    engine's term at that position; and `decode` on rows without one queen."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_decode_on_every_term(self, n):
        circuit = build_full_circuit(n)
        compiled = planes.compile_circuit(circuit)
        count = circuit.layout.q_total - circuit.layout.n_system
        bits = [[plane >> j % 8 & 1 for plane in compiled.ancillas[j // 8].tolist()]
                for j in range(count)]
        ancillas = list(zip(*bits)) if count else [()] * n**n
        selected = compiled.selected().tolist()
        # Readout order counts in mixed radix, row 0 first, columns descending.
        boards = itertools.product(range(n - 1, -1, -1), repeat=n)
        terms = sim.readout(sim.run(circuit))
        assert len(terms) == n**n
        for (label, _), cols, anc, chosen in zip(terms, boards, ancillas, selected):
            record = decode(label, circuit.layout)
            assert record == (cols, anc[: n - 1], anc[n - 1 :])
            assert chosen == (all(record.col_anc) and all(record.diag_anc))

    @settings(max_examples=300, deadline=None)
    @given(row_labels())
    # n = 7 and 8 labels run past 2**64 (76 and 99 qubits).
    @example((8, [(2**99 - 1, [set(range(8))] * 8)]))
    @example((7, [(encode(OutcomeRecord((6,) * 7, (1,) * 6, (1,) * 21), layout(7)), [{6}] * 7)]))
    def test_flags_exactly_the_rows_decode_rejects(self, case):
        n, cases = case
        lay = layout(n)
        for label, rows in cases:
            bad = [r for r, row in enumerate(rows) if len(row) != 1]
            if bad:
                with pytest.raises(EncodingError) as err:
                    decode(label, lay)
                assert str(err.value) == (
                    f"row {bad[0]} holds {len(rows[bad[0]])} queens, expected 1"
                )
            else:
                record = decode(label, lay)
                assert record.cols == tuple(min(row) for row in rows)
                assert record[1:] == per_qubit_ancillas(label, lay)[1:]


class TestAncillaTruth:
    def test_known_solution_all_ones(self):
        col, diag = ancilla_truth((1, 3, 0, 2))
        assert col == (1, 1, 1)
        assert diag == (1, 1, 1, 1, 1, 1)

    def test_identity_board(self):
        # all queens on the main diagonal: every pair conflicts
        col, diag = ancilla_truth((0, 1, 2, 3))
        assert col == (1, 1, 1)
        assert diag == (0, 0, 0, 0, 0, 0)

    def test_even_column_sum(self):
        col, _ = ancilla_truth((0, 0))
        assert col[0] == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_a_per_pair_reference_on_every_board(self, n):
        for cols in itertools.product(range(n), repeat=n):
            col_ref = [sum(1 for r in range(n) if cols[r] == c) % 2 for c in range(n - 1)]
            diag_ref = []
            for i in range(n):
                for j in range(i + 1, n):
                    diag_ref.append(0 if abs(cols[i] - cols[j]) == j - i else 1)
            col, diag = ancilla_truth(cols)
            assert (list(col), list(diag)) == (col_ref, diag_ref)
            assert all(type(bit) is int for bit in col + diag)


class TestPostselect:
    def test_n4_two_solutions(self):
        state = sim.run(build_full_circuit(4))
        assert postselect_solutions(state) == [
            (1, 3, 0, 2),
            (2, 0, 3, 1),
        ]

    def test_n2_empty(self):
        assert postselect_solutions(sim.run(build_full_circuit(2))) == []

    def test_n1_single(self):
        solutions = postselect_solutions(sim.run(build_full_circuit(1)))
        assert solutions == [(0,)]

    def test_skips_a_term_below_the_prune_threshold(self):
        lay = layout(4)
        kept = encode(OutcomeRecord((2, 0, 3, 1), (1,) * 3, (1,) * 6), lay)
        faint = encode(OutcomeRecord((1, 3, 0, 2), (1,) * 3, (1,) * 6), lay)
        state = sim.SparseState(lay, {faint: 1e-13, kept: 1.0})
        assert postselect_solutions(state) == [(2, 0, 3, 1)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_a_decode_of_the_readout(self, n):
        state = sim.run(build_full_circuit(n))
        records = [decode(lbl, state.layout) for lbl, _ in sim.readout(state)]
        expected = sorted(r.cols for r in records if all(r.col_anc) and all(r.diag_anc))
        assert postselect_solutions(state) == expected


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 0), (3, 0), (4, 2), (5, 10)])
    def test_equivalence(self, n, count):
        report = verify_against_oracle(n)
        assert report.equal
        assert report.census_ok
        assert report.ancilla_mismatches == 0
        assert len(report.classical_solutions) == count
        assert abs(report.success_probability - count / n**n) <= PROBABILITY_TOLERANCE
        assert report.probability_ok
        assert report.ok

    def test_n4_probability(self):
        assert verify_against_oracle(4).success_probability == pytest.approx(2 / 256, abs=1e-15)

    def test_probability_is_measured_from_the_state(self, monkeypatch):
        # Doubling one solution amplitude leaves the solution set intact but
        # adds 3/256 to the post-selected probability.
        real_run = sim.run

        def run_with_boost(circuit):
            state = real_run(circuit)
            record = OutcomeRecord((1, 3, 0, 2), (1,) * 3, (1,) * 6)
            terms = dict(state.terms)
            terms[encode(record, state.layout)] *= 2
            return sim.SparseState(state.layout, terms)

        monkeypatch.setattr(sim, "run", run_with_boost)
        report = verify_against_oracle(4)
        assert report.equal and report.census_ok and report.ancilla_mismatches == 0
        assert report.success_probability == pytest.approx(5 / 256, abs=1e-15)
        assert not report.probability_ok
        assert not report.ok

    def test_census_counts_every_gate_kind(self, monkeypatch):
        # An X; X pair leaves the state and both stage totals unchanged, so
        # only the per-kind counts can tell this circuit from the closed forms.
        real_build = circuit_mod.build_full_circuit

        def build_with_x_pair(n):
            built = real_build(n)
            pair = (circuit_mod.Gate("X", (0,)),) * 2
            return circuit_mod.Circuit(built.layout, built.gates + pair)

        monkeypatch.setattr(circuit_mod, "build_full_circuit", build_with_x_pair)
        report = verify_against_oracle(4)
        assert report.equal and report.ancilla_mismatches == 0 and report.probability_ok
        assert report.census_ok is False
        assert not report.ok

    def test_json_fields(self):
        obj = json.loads(verify_against_oracle(4).to_json())
        assert set(obj) == {
            "n",
            "quantum_solutions",
            "classical_solutions",
            "equal",
            "success_probability",
            "census_ok",
            "ancilla_mismatches",
            "seed",
            "rng_algorithm",
        }
        assert obj["equal"] is True
        assert obj["quantum_solutions"] == [[1, 3, 0, 2], [2, 0, 3, 1]]

    def test_equal_is_derived_from_the_solution_lists(self):
        report = VerificationReport(
            n=4,
            quantum_solutions=[(1, 3, 0, 2)],
            classical_solutions=[(1, 3, 0, 2), (2, 0, 3, 1)],
            success_probability=2 / 256,
            census_ok=True,
            ancilla_mismatches=0,
        )
        assert report.equal is False
        assert report.ok is False
        assert (report.seed, report.rng_algorithm) == (None, None)

    @pytest.mark.parametrize(
        "report, name",
        [
            (VerificationReport, "equal"),
            (VerificationReport, "seed"),
            (VerificationReport, "rng_algorithm"),
            (SamplingReport, "rng_algorithm"),
        ],
    )
    def test_derived_fields_are_not_arguments(self, report, name):
        arguments = {
            VerificationReport: dict(
                n=1, quantum_solutions=[(0,)], classical_solutions=[(0,)],
                success_probability=1.0, census_ok=True, ancilla_mismatches=0,
            ),
            SamplingReport: dict(
                n=1, shots=1, seed=0, distinct_outcomes=1, solution_hits=1,
                chi_square=None, p_value=None,
            ),
        }[report]
        assert getattr(report(**arguments), name) in (True, None, "PCG64")
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            report(**arguments, **{name: None})

    def test_all_ones_col_anc_implies_permutation(self):
        # operational form of the parity proposition
        state = sim.run(build_full_circuit(4))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            if all(record.col_anc):
                assert sorted(record.cols) == list(range(4))


@pytest.fixture(scope="module")
def states():
    return {n: sim.run(build_full_circuit(n)) for n in (2, 3, 4, 5)}


def shot_by_shot_report(state, shots, seed):
    """Reference report built from the sampled labels: a scalar decode per
    distinct label, a Counter of the shots, and chi-square over a list of
    counts in readout order."""
    labels = sim.sample(state, shots, seed)
    records = {lbl: decode(lbl, state.layout) for lbl in labels}
    observed = Counter(labels)
    support = [lbl for lbl, _ in sim.readout(state)]
    chi_square = p_value = None
    if len(support) > 1:
        result = stats.chisquare([observed[lbl] for lbl in support])
        chi_square, p_value = float(result.statistic), float(result.pvalue)
    return SamplingReport(
        n=state.layout.n,
        shots=shots,
        seed=seed,
        distinct_outcomes=len(observed),
        solution_hits=sum(
            observed[lbl] for lbl, r in records.items() if all(r.col_anc) and all(r.diag_anc)
        ),
        chi_square=chi_square,
        p_value=p_value,
    )


class TestSamplingReport:
    def test_reproducible(self):
        a = sampling_report(4, shots=310, seed=1)
        b = sampling_report(4, shots=310, seed=1)
        assert a == b

    def test_distinct_range(self):
        report = sampling_report(4, shots=310, seed=1)
        assert 150 <= report.distinct_outcomes <= 205

    def test_seed_variation_consistent(self):
        counts = [
            sampling_report(4, shots=310, seed=s).distinct_outcomes
            for s in range(5)
        ]
        assert len(set(counts)) > 1
        assert all(150 <= c <= 205 for c in counts)

    def test_single_term_degenerate_chi_square(self):
        report = sampling_report(1, shots=10, seed=0)
        assert report.distinct_outcomes == 1
        assert report.solution_hits == 10
        assert report.chi_square is None
        assert report.p_value is None

    def test_chi_square_reported(self):
        report = sampling_report(4, shots=310, seed=1)
        assert report.chi_square is not None
        assert 0.0 <= report.p_value <= 1.0

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sampling_report(4, shots=0, seed=0)

    def test_json_round_trip(self):
        report = sampling_report(4, shots=50, seed=2)
        obj = json.loads(report.to_json())
        assert obj["rng_algorithm"] == "PCG64"
        assert obj["shots"] == 50

    @pytest.mark.parametrize("shots", [1, 310, 20_000])
    @pytest.mark.parametrize("seed", range(5))
    # The p-values of n = 2 and 3 take the series and the continued fraction, n = 4 and 5
    # the asymptotic series.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_shot_by_shot_reference(self, states, n, seed, shots):
        report = sampling_report(n, shots=shots, seed=seed)
        assert report == shot_by_shot_report(states[n], shots, seed)
        assert type(report.distinct_outcomes) is type(report.solution_hits) is int

    def test_decodes_no_label_of_a_valid_state(self, monkeypatch):
        def refuse(label, layout):
            raise AssertionError("scalar decode called")

        monkeypatch.setattr(analysis, "decode", refuse)
        assert sampling_report(4, shots=310, seed=1).solution_hits > 0


class TestAncillaTruthMatchesCircuit:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_term_matches_prediction(self, n):
        state = sim.run(build_full_circuit(n))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            assert (record.col_anc, record.diag_anc) == ancilla_truth(record.cols)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_postselection_equals_validity_predicate(self, n):
        state = sim.run(build_full_circuit(n))
        selected = set(postselect_solutions(state))
        records = [decode(lbl, state.layout) for lbl, _ in sim.readout(state)]
        valid = {r.cols for r in records if is_valid_solution(r.cols)}
        assert selected == valid
        assert selected == set(solve_classical(n))
