import json

import pytest

from quantum_nqueens import sim
from quantum_nqueens.analysis import (
    PROBABILITY_TOLERANCE,
    EncodingError,
    OutcomeRecord,
    ancilla_truth,
    decode,
    encode,
    postselect_solutions,
    sampling_report,
    verify_against_oracle,
)
from quantum_nqueens.board import BoardConfig, PermutationVector, solve_classical
from quantum_nqueens.circuit import build_full_circuit, layout


def perm_board(n, cols):
    return PermutationVector(n, tuple(cols)).to_board()


class TestDecode:
    def test_n1(self):
        record = decode(1, layout(1))
        assert record.board == BoardConfig(1, ((1,),))
        assert record.col_anc == ()
        assert record.diag_anc == ()

    def test_rejects_bad_row_sum(self):
        with pytest.raises(EncodingError):
            decode(0, layout(1))

    def test_rejects_multi_queen_row(self):
        two_in_row_0 = BoardConfig(2, ((1, 1), (0, 1)))
        label = encode(OutcomeRecord(two_in_row_0, (1,), (1,)), layout(2))
        with pytest.raises(EncodingError) as err:
            decode(label, layout(2))
        assert str(err.value) == "row 0 holds 2 queens, expected 1"

    def test_register_split(self):
        lay = layout(4)
        board = perm_board(4, (0, 1, 2, 3))
        label = encode(OutcomeRecord(board, (1, 0, 1), (0, 1, 1, 0, 1, 0)), lay)
        record = decode(label, lay)
        assert record.board == board
        assert record.col_anc == (1, 0, 1)
        assert record.diag_anc == (0, 1, 1, 0, 1, 0)

    @pytest.mark.parametrize("cols", [(0, 1, 2, 3), (1, 3, 0, 2), (3, 3, 3, 3)])
    def test_encode_decode_round_trip(self, cols):
        lay = layout(4)
        for col_anc in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
            rec = OutcomeRecord(perm_board(4, cols), col_anc, (1, 0, 1, 0, 1, 0))
            assert decode(encode(rec, lay), lay) == rec


class TestAncillaTruth:
    def test_known_solution_all_ones(self):
        col, diag = ancilla_truth(perm_board(4, (1, 3, 0, 2)))
        assert col == (1, 1, 1)
        assert diag == (1, 1, 1, 1, 1, 1)

    def test_identity_board(self):
        # all queens on the main diagonal: every pair conflicts
        col, diag = ancilla_truth(perm_board(4, (0, 1, 2, 3)))
        assert col == (1, 1, 1)
        assert diag == (0, 0, 0, 0, 0, 0)

    def test_even_column_sum(self):
        col, _ = ancilla_truth(perm_board(2, (0, 0)))
        assert col[0] == 0

    def test_rejects_multi_queen_row(self):
        with pytest.raises(EncodingError) as err:
            ancilla_truth(BoardConfig(2, ((1, 1), (0, 0))))
        assert str(err.value) == "row 0 holds 2 queens, expected 1"


class TestPostselect:
    def test_n4_two_solutions(self):
        state = sim.run(build_full_circuit(4))
        boards = postselect_solutions(state)
        assert [PermutationVector.from_board(b).cols for b in boards] == [
            (1, 3, 0, 2),
            (2, 0, 3, 1),
        ]

    def test_n2_empty(self):
        assert postselect_solutions(sim.run(build_full_circuit(2))) == []

    def test_n1_single(self):
        boards = postselect_solutions(sim.run(build_full_circuit(1)))
        assert boards == [BoardConfig(1, ((1,),))]


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

    def test_n4_probability(self):
        assert verify_against_oracle(4).success_probability == pytest.approx(2 / 256, abs=1e-15)

    def test_probability_is_measured_from_the_state(self, monkeypatch):
        # Doubling one solution amplitude leaves the solution set intact but
        # adds 3/256 to the post-selected probability.
        real_run = sim.run

        def run_with_boost(circuit):
            state = real_run(circuit)
            record = OutcomeRecord(perm_board(4, [1, 3, 0, 2]), (1,) * 3, (1,) * 6)
            terms = dict(state.terms)
            terms[encode(record, state.layout)] *= 2
            return sim.SparseState(state.layout, terms)

        monkeypatch.setattr(sim, "run", run_with_boost)
        report = verify_against_oracle(4)
        assert report.equal and report.census_ok and report.ancilla_mismatches == 0
        assert report.success_probability == pytest.approx(5 / 256, abs=1e-15)
        assert not report.probability_ok

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

    def test_all_ones_col_anc_implies_permutation(self):
        # operational form of the parity proposition
        state = sim.run(build_full_circuit(4))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            if all(record.col_anc):
                cols = PermutationVector.from_board(record.board).cols
                assert sorted(cols) == list(range(4))


@pytest.fixture(scope="module")
def n4_state():
    return sim.run(build_full_circuit(4))


class TestSamplingReport:
    def test_reproducible(self, n4_state):
        a = sampling_report(n4_state, shots=310, seed=1)
        b = sampling_report(n4_state, shots=310, seed=1)
        assert a == b

    def test_distinct_range(self, n4_state):
        report = sampling_report(n4_state, shots=310, seed=1)
        assert 150 <= report.distinct_outcomes <= 205

    def test_seed_variation_consistent(self, n4_state):
        counts = [
            sampling_report(n4_state, shots=310, seed=s).distinct_outcomes
            for s in range(5)
        ]
        assert len(set(counts)) > 1
        assert all(150 <= c <= 205 for c in counts)

    def test_single_term_degenerate_chi_square(self):
        state = sim.run(build_full_circuit(1))
        report = sampling_report(state, shots=10, seed=0)
        assert report.distinct_outcomes == 1
        assert report.solution_hits == 10
        assert report.chi_square is None
        assert report.p_value is None

    def test_chi_square_reported(self, n4_state):
        report = sampling_report(n4_state, shots=310, seed=1)
        assert report.chi_square is not None
        assert 0.0 <= report.p_value <= 1.0

    def test_zero_shots_rejected(self, n4_state):
        with pytest.raises(ValueError):
            sampling_report(n4_state, shots=0, seed=0)

    def test_json_round_trip(self, n4_state):
        report = sampling_report(n4_state, shots=50, seed=2)
        obj = json.loads(report.to_json())
        assert obj["rng_algorithm"] == "PCG64"
        assert obj["shots"] == 50


class TestAncillaTruthMatchesCircuit:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_term_matches_prediction(self, n):
        state = sim.run(build_full_circuit(n))
        for lbl, _ in sim.readout(state):
            record = decode(lbl, state.layout)
            assert (record.col_anc, record.diag_anc) == ancilla_truth(record.board)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_postselection_equals_validity_predicate(self, n):
        from quantum_nqueens.board import is_valid_solution

        state = sim.run(build_full_circuit(n))
        selected = {
            PermutationVector.from_board(b).cols for b in postselect_solutions(state)
        }
        valid = {
            PermutationVector.from_board(decode(lbl, state.layout).board).cols
            for lbl, _ in sim.readout(state)
            if is_valid_solution(decode(lbl, state.layout).board)
        }
        assert selected == valid
        assert selected == {s.cols for s in solve_classical(n)}
