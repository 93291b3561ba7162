import collections
import copy
import gc
import io
import itertools
import math
import operator
import pickle
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quantum_nqueens import circuit, cli, qasm, sim
from quantum_nqueens.board import diagonal_pairs
from quantum_nqueens.circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    ancilla_index,
    build_column_checks,
    build_diagonal_checks,
    build_full_circuit,
    build_w_prep,
    closed_form_census,
    column_check_gate_count,
    diagonal_pair_count,
    diagonal_pair_count_simplified,
    diagonal_pair_count_sum,
    gate_census,
    layout,
    qubit_total,
    w_prep_gate_count,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import dense_circuit  # noqa: E402


class TestLayout:
    def test_n4_paper_counts(self):
        lay = layout(4)
        assert lay.n_system == 16
        assert lay.n_col_anc == 3
        assert lay.n_diag_anc == 6
        assert lay.q_total == 25

    def test_n1_single_qubit(self):
        lay = layout(1)
        assert lay.q_total == 1
        assert lay.n_col_anc == 0
        assert lay.n_diag_anc == 0

    def test_n5(self):
        assert layout(5).q_total == 39
        assert (3 * 25 + 5 - 2) // 2 == 39

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ranges_disjoint_and_covering(self, n):
        lay = layout(n)
        seen = [lay.system_qubit(r, c) for r in range(n) for c in range(n)]
        seen += [lay.col_anc_qubit(c) for c in range(n - 1)]
        seen += [lay.diag_anc_qubit(k) for k in range(1, lay.n_diag_anc + 1)]
        assert sorted(seen) == list(range(lay.q_total))
        assert lay.q_total == qubit_total(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            layout(0)

    def test_width_is_derived_from_n(self):
        with pytest.raises(TypeError):
            RegisterLayout(n=4, q_total=5)
        assert RegisterLayout(4) == layout(4)
        assert hash(RegisterLayout(4)) == hash(layout(4))

    @pytest.mark.parametrize("n", [0, -2, 2.5, "4"])
    def test_type_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError) as err:
            RegisterLayout(n)
        assert str(err.value) == f"board size must be >= 1, got {n}"

    @pytest.mark.parametrize(
        "closed_form", [qubit_total, closed_form_census, diagonal_pairs], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("n", [0, -2, 2.5, "4"])
    def test_closed_forms_reject_what_the_layout_rejects(self, closed_form, n):
        with pytest.raises(ValueError) as err:
            closed_form(n)
        assert str(err.value) == f"board size must be >= 1, got {n}"

    def test_a_numpy_integer_is_a_board_size(self):
        n = np.int64(4)
        assert RegisterLayout(n) == layout(4) and type(RegisterLayout(n).n) is int
        assert qubit_total(n) == 25
        assert closed_form_census(n) == closed_form_census(4)
        assert diagonal_pairs(n) == diagonal_pairs(4)


class TestGate:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1))

    def test_duplicate_operands(self):
        with pytest.raises(ValueError):
            Gate("CX", (2, 2))

    def test_missing_angle(self):
        with pytest.raises(ValueError):
            Gate("RY", (0,))

    def test_spurious_angle(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), 1.0)

    @pytest.mark.parametrize(
        "kind, qubits, theta, message",
        [
            ("SWAP", (0, 1), None, "unknown gate kind 'SWAP'"),
            ("X", (0, 1), None, "X takes 1 qubits"),
            ("CCX", (0, 1), None, "CCX takes 3 qubits"),
            ("CX", (2, 2), None, "gate operands must be distinct"),
            ("CCX", (0, 1, 0), None, "gate operands must be distinct"),
            ("CCX", (4, 1, 1), None, "gate operands must be distinct"),
            ("CRY", (0, 1), None, "CRY requires a finite angle"),
            ("RY", (0,), math.inf, "RY requires a finite angle"),
            ("RY", (0,), math.nan, "RY requires a finite angle"),
            ("H", (0,), 0.5, "H takes no angle"),
            ("X", (-1,), None, "gate operands must be non-negative"),
            ("X", (1.0,), None, "gate operands must be integers"),
            ("CX", (0, "1"), None, "gate operands must be integers"),
            ("SWAP", (0.5,), None, "unknown gate kind 'SWAP'"),
            ("X", (0.5, 1), None, "gate operands must be integers"),
            ("RY", (0,), "1.0", "RY requires a finite angle"),
            ("CRY", (0, 1), 1j, "CRY requires a finite angle"),
            ("RY", (0,), 10**400, "RY requires a finite angle"),
            ("CRY", (0, 1), -(10**400), "CRY requires a finite angle"),
            ("RY", (0,), np.float32(math.inf), "RY requires a finite angle"),
        ],
    )
    def test_every_check_raises(self, kind, qubits, theta, message):
        with pytest.raises(ValueError) as err:
            Gate(kind, qubits, theta)
        assert str(err.value) == message

    def test_operands_become_a_tuple_of_ints(self):
        gate = Gate("CX", [np.int64(2), 0])
        assert gate.qubits == (2, 0)
        assert all(type(q) is int for q in gate.qubits)
        assert hash(gate) == hash(Gate("CX", (2, 0)))

    def test_keyword_construction_and_repr(self):
        gate = Gate(kind="RY", qubits=(3,), theta=0.5)
        assert gate == Gate("RY", (3,), 0.5)
        assert repr(gate) == "Gate(kind='RY', qubits=(3,), theta=0.5)"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Gate._make(("X", (1.0,), None)), "gate operands must be integers"),
            (lambda: Gate("X", (0,))._replace(qubits=(-1,)), "gate operands must be non-negative"),
            (lambda: Gate("CX", (0, 1))._replace(theta=1.0), "CX takes no angle"),
            (lambda: Gate("H", (0,))._replace(kind="SWAP"), "unknown gate kind 'SWAP'"),
        ],
    )
    def test_no_construction_path_skips_the_checks(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_copies_and_pickles_are_gates(self):
        gate = Gate("CRY", (0, 1), 0.7)
        for twin in (copy.copy(gate), copy.deepcopy(gate), pickle.loads(pickle.dumps(gate))):
            assert type(twin) is Gate and twin == gate

    def test_inverse(self):
        g = Gate("CRY", (0, 1), 0.7)
        assert g.inverse().theta == -0.7
        assert Gate("H", (0,)).inverse() == Gate("H", (0,))

    @pytest.mark.parametrize("theta", [np.float64(0.5), np.float32(0.1), 2])
    def test_angle_becomes_a_float_that_round_trips(self, theta):
        gate = Gate("RY", (0,), theta)
        assert type(gate.theta) is float and gate.theta == theta
        assert type(gate.inverse().theta) is float
        exported = qasm.export_qasm(Circuit(layout(1), (gate,))).text
        assert qasm.parse_qasm_subset(exported).gates == (gate,)


def _outcome(build, *args):
    """What building from `args` gives: the gates, or the error's type and message."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _columns(*gates, q_total=32):
    """Gates transposed into the kinds, qubits and thetas columns of
    `_checked_gates`, followed by its q_total."""
    return (*(tuple(map(list, zip(*gates))) or ([], [], [])), q_total)


def _checked_by_gate(kinds, qubits, thetas, q_total):
    """What `_checked_gates` returns, spelled out: `Gate` applied gate by gate
    to the strictly zipped columns, then every operand checked against the
    register as `Circuit` checks it, and the gates' columns."""
    gates = [Gate(*g) for g in zip(kinds, qubits, thetas, strict=True)]
    for gate in gates:
        if max(gate.qubits) >= q_total:
            raise ValueError(f"gate {gate} exceeds layout of {q_total} qubits")
    return tuple(map(list, zip(*gates))) or ([], [], [])


_ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}
_Pair = collections.namedtuple("_Pair", "control target")


@st.composite
def _gate_fields(draw):
    """A (kind, qubits, theta) entry, mostly one that Gate accepts as it stands;
    otherwise one with an operand, operand container, arity or angle that
    Gate converts or rejects."""
    kind = draw(st.sampled_from(list(_ARITY)))
    qubits = draw(
        st.lists(st.integers(0, 30), min_size=_ARITY[kind], max_size=_ARITY[kind], unique=True)
    )
    theta = draw(st.floats(-10, 10)) if kind in ("RY", "CRY") else None
    fault = draw(st.sampled_from([None] * 8 + [
        "bool", "np-int", "list", "negative", "repeated", "arity", "kind", "np-float",
        "int-angle", "nan", "inf", "huge", "no-angle", "angle-on-plain", "float-operand",
    ]))
    if fault == "bool":
        qubits[0] = draw(st.booleans())
    elif fault == "np-int":
        qubits[-1] = draw(st.sampled_from([np.int64, np.int32, np.uint8]))(qubits[-1])
    elif fault == "negative":
        qubits[-1] = -1 - qubits[-1]
    elif fault == "repeated":  # any operand repeated at any other place
        kind = draw(st.sampled_from(["CX", "CRY", "CZ", "CCX"]))
        theta = 0.5 if kind == "CRY" else None
        qubits = draw(st.lists(st.integers(0, 30), min_size=_ARITY[kind], max_size=_ARITY[kind]))
        i, j = draw(st.permutations(range(_ARITY[kind])))[:2]
        qubits[j] = qubits[i]
    elif fault == "arity":
        qubits.append(31)
    elif fault == "kind":
        kind = draw(st.sampled_from(["SWAP", "x", "cx", ""]))
    elif fault == "float-operand":
        qubits[0] = float(qubits[0])
    elif kind in ("RY", "CRY"):
        theta = {
            "np-float": np.float64(theta), "int-angle": 2, "nan": math.nan, "inf": -math.inf,
            "huge": 10**400, "no-angle": None,
        }.get(fault, theta)
    elif fault == "angle-on-plain":
        theta = draw(st.sampled_from([0.5, 0.0, math.nan]))
    return kind, (qubits if fault == "list" else tuple(qubits)), theta


class TestCheckedGates:
    """`circuit._checked_gates(kinds, qubits, thetas, q_total)` gives the
    columns of `Gate` applied gate by gate to the strictly zipped columns, each
    operand then below q_total: the same columns, or the same error for the
    same first bad gate."""

    @given(
        st.tuples(st.lists(_gate_fields(), max_size=12), st.sampled_from([32, 32, 32, 1, 4, 17]))
        .map(lambda drawn: _columns(*drawn[0], q_total=drawn[1]))
    )
    @example(_columns(("RY", (0,), 10**400)))
    @example(_columns(("X", (0,), None), ("CX", [True, np.int64(3)], None), ("RY", (1,), np.float64(1))))
    @example(_columns(("X", (0,), None), ("H", (1,), 0.5), ("SWAP", (0, 1), None)))
    @example(_columns((["X"], (0,), None)))  # an unhashable kind: Gate's TypeError
    @example(_columns(("X", (0,), None), ("CX", (True, 3), None)))
    @example(_columns(("X", (np.int64(2),), None)))
    @example(_columns(("CX", _Pair(0, 1), None)))  # a tuple subclass becomes a plain tuple
    @example((["X", "H"], [(0,), (1,)], [None], 32))  # columns of unequal length: zip's ValueError
    @example(_columns(("CCX", (0, 1, 2), None), ("CCX", (3, 4, 4), None)))
    @example(_columns(("CCX", (0, 1, 2), None), ("CCX", (3, 4, 3), None)))
    @example(_columns(("CCX", (0, 1, 2), None), ("CCX", (3, 3, 4), None)))
    @example(_columns(("X", (0,), None), ("CX", (1, 5), None), ("X", (9,), None), q_total=5))
    @example(_columns(("X", (7,), None), ("H", (1,), 0.5), q_total=5))  # Gate's error comes first
    @example(_columns(("X", (np.int64(5),), None), q_total=5))  # converted, then out of range
    def test_matches_gate_by_gate(self, case):
        got = _outcome(circuit._checked_gates, *case)
        expected = _outcome(_checked_by_gate, *case)
        assert got == expected
        if isinstance(expected, tuple) and not isinstance(expected[0], type):
            kinds, qubits, thetas = got
            assert type(kinds) is type(qubits) is type(thetas) is list
            assert all(type(q) is tuple for q in qubits)
            assert all(type(q) is int for q in itertools.chain.from_iterable(qubits))
            angle_types = [float if kind in ("RY", "CRY") else type(None) for kind in kinds]
            assert list(map(type, thetas)) == angle_types

    def test_no_kind_has_more_than_three_operands(self):
        # the distinctness pass counts only a gate's first and last operand
        assert max(circuit._ARITY.values()) <= 3

    def test_checked_gates_share_their_operand_tuples(self):
        # gates in the form Gate gives them come back as the very lists given
        columns = ["CCX", "RY", "X"], [(0, 1, 2), (3,), (4,)], [None, 0.5, None]
        qubits = list(columns[1])
        checked = circuit._checked_gates(*columns, 5)
        assert all(map(operator.is_, checked, columns))
        assert all(map(operator.is_, checked[1], qubits))

    @pytest.mark.parametrize("theta", [10**400, -(10**400), math.inf, math.nan])
    def test_angle_past_the_float_range_is_a_value_error(self, theta):
        with pytest.raises(ValueError) as err:
            circuit._checked_gates(["X", "CRY"], [(0,), (0, 1)], [None, theta], 2)
        assert str(err.value) == "CRY requires a finite angle"

    @pytest.mark.parametrize(
        "builder",
        [lambda: build_w_prep(5, 2), lambda: build_column_checks(5), lambda: build_diagonal_checks(5)],
    )
    def test_builders_make_checked_gates(self, builder):
        gates = builder()
        assert gates == [Gate(*g) for g in gates]
        assert all(type(g) is Gate and type(g.qubits) is tuple for g in gates)


class TestCircuit:
    def test_operand_beyond_the_layout_raises(self):
        lay = layout(2)
        assert lay.q_total == 6
        Circuit(lay, (Gate("CCX", (0, 1, 5)),))
        with pytest.raises(ValueError) as err:
            Circuit(lay, (Gate("X", (0,)), Gate("CCX", (0, 6, 1))))
        assert "exceeds layout of 6 qubits" in str(err.value)

    @pytest.mark.parametrize("entry", [("X", (0,), None), ["X", (0,), None], "X"])
    def test_entry_that_is_not_a_gate_raises(self, entry):
        with pytest.raises(ValueError) as err:
            Circuit(layout(2), (Gate("X", (0,)), entry))
        assert str(err.value) == f"circuit entry {entry!r} is not a Gate"

    def test_stores_a_tuple_that_the_caller_cannot_change(self):
        gates = [Gate("X", (0,))]
        c = Circuit(layout(1), gates)
        gates.append(Gate("X", (7,)))
        assert c.gates == (Gate("X", (0,)),)
        assert qasm.parse_qasm_subset(qasm.export_qasm(c).text) == c

    def test_is_hashable(self):
        c = Circuit(layout(2), [Gate("X", (0,)), Gate("RY", (1,), 0.5)])
        assert hash(c) == hash(Circuit(layout(2), (Gate("X", (0,)), Gate("RY", (1,), 0.5))))

    def test_is_frozen(self):
        c = Circuit(layout(1), [Gate("X", (0,))])
        with pytest.raises(AttributeError):
            c.layout = layout(2)
        with pytest.raises(AttributeError):
            del c.layout
        assert c.layout == layout(1)


def _parsed_n6():
    """The n=6 export parsed back, and the gates it was written from, each CRY
    as the ry, cx, ry, cx it is written as."""
    built = build_full_circuit(6)
    written = []
    for kind, qubits, theta in built.gates:
        if kind == "CRY":
            tgt = (qubits[1],)
            written += [("RY", tgt, theta / 2.0), ("CX", qubits, None),
                        ("RY", tgt, -theta / 2.0), ("CX", qubits, None)]
        else:
            written.append((kind, qubits, theta))
    return qasm.parse_qasm_subset(qasm.export_qasm(built).text), built.layout, written


def _dense():
    """The benchmark's seeded dense circuit, which it makes gate by gate, made
    from its checked columns instead, and its gates."""
    dense = dense_circuit(1)
    lay = dense.layout
    checked = circuit._checked_gates(*circuit._columns(dense.gates), lay.q_total)
    return Circuit._from_columns(lay, *checked), lay, dense.gates


class TestColumns:
    """A circuit made from checked columns (the builders, the parser) equals,
    hashes like and gives the same gates as `Circuit(layout, gates)`."""

    @pytest.mark.parametrize(
        "made",
        [
            *(pytest.param(
                lambda n=n: (
                    build_full_circuit(n),
                    layout(n),
                    [g for row in range(n) for g in build_w_prep(n, row)]
                    + build_column_checks(n) + build_diagonal_checks(n),
                ),
                id=f"built-{n}") for n in range(1, 9)),
            pytest.param(_parsed_n6, id="parsed-6"),
            pytest.param(_dense, id="dense"),
        ],
    )
    def test_columns_and_gates_make_the_same_circuit(self, made):
        columns_made, lay, gates = made()
        given = [Gate(*g) for g in gates]
        gates_made = Circuit(lay, given)
        assert columns_made == gates_made and gates_made == columns_made
        assert hash(columns_made) == hash(gates_made)
        for read in (columns_made.gates, columns_made.gates, gates_made.gates, gates_made.gates):
            assert type(read) is tuple and read == tuple(given)
            assert all(type(g) is Gate for g in read)
        assert len(columns_made) == len(gates_made) == len(gates)
        assert repr(columns_made) == repr(gates_made)
        assert pickle.loads(pickle.dumps(columns_made)) == columns_made
        assert copy.deepcopy(columns_made) == columns_made

    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize(
        "change",
        [lambda g: Gate("X", (g.qubits[0] + 1,)), lambda g: Gate("RY", g.qubits[-1:], 0.25)],
        ids=["operand", "kind-and-angle"],
    )
    def test_a_changed_gate_makes_an_unequal_circuit(self, at, change):
        built = build_full_circuit(4)
        gates = list(built.gates)
        gates[at] = change(gates[at])
        assert built != Circuit(built.layout, gates)
        assert built != Circuit(built.layout, built.gates[:-1])
        assert built != build_full_circuit(5) and built != built.gates

    def test_counts_export_and_parse_build_no_gate(self):
        def refused(*args, **kwargs):
            raise AssertionError("a Gate was built")

        with mock.patch.object(Gate, "__new__", refused), \
                mock.patch.object(circuit, "_gate_rows", refused):
            built = build_full_circuit(32)
            assert gate_census(built) == closed_form_census(32)
            doc = qasm.export_qasm(built)
            parsed = qasm.parse_qasm_subset(doc.text)
            for argv in (["counts", "32"], ["export-qasm", "32"]):
                assert cli.main(argv, out=io.StringIO()) == 0
        assert len(parsed) == doc.gate_line_count
        assert len(built.gates) == len(built)


def block_state(n, row):
    """Simulate just one row's W-prep over the full layout."""
    state = sim.init_state(layout(n))
    for g in build_w_prep(n, row):
        state = sim.apply_gate(state, g)
    return state


class TestWPrep:
    def test_n1_single_x(self):
        gates = build_w_prep(1, 0)
        assert gates == [Gate("X", (0,))]

    def test_n2_structure(self):
        gates = build_w_prep(2, 0)
        assert [g.kind for g in gates] == ["X", "CRY", "CX"]
        assert gates[1].theta == pytest.approx(math.pi / 2)

    def test_n2_state(self):
        state = block_state(2, 0)
        # (|10> + |01>)/sqrt(2) in qubit-0-first labels: {1, 2}
        assert set(state.terms) == {0b01, 0b10}
        for a in state.terms.values():
            assert abs(a - 1 / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equal_one_hot_amplitudes(self, n):
        state = block_state(n, 0)
        assert len(state.terms) == n
        for lbl, a in state.terms.items():
            assert bin(lbl).count("1") == 1
            assert abs(a - 1 / math.sqrt(n)) < 1e-12

    def test_acts_only_on_own_block(self):
        n = 4
        for row in range(n):
            lo, hi = row * n, row * n + n
            for g in build_w_prep(n, row):
                assert all(lo <= q < hi for q in g.qubits)

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            build_w_prep(3, 3)


class TestColumnChecks:
    def test_n4_gate_count(self):
        assert len(build_column_checks(4)) == 18  # (N-1)(N+2) at N=4

    def test_n2_gate_count(self):
        assert len(build_column_checks(2)) == 4

    def test_n1_empty(self):
        assert build_column_checks(1) == []

    def test_sandwich_structure(self):
        n = 3
        lay = layout(n)
        gates = build_column_checks(n)
        per_anc = 2 + n
        for c in range(n - 1):
            chunk = gates[c * per_anc : (c + 1) * per_anc]
            anc = lay.col_anc_qubit(c)
            assert chunk[0] == Gate("H", (anc,))
            assert chunk[-1] == Gate("H", (anc,))
            for r, g in enumerate(chunk[1:-1]):
                assert g == Gate("CZ", (anc, lay.system_qubit(r, c)))


class TestAncillaIndex:
    def test_first_pair(self):
        assert ancilla_index(1, 2, 4) == 1

    def test_last_pair(self):
        assert ancilla_index(3, 4, 4) == 6

    def test_middle_pair(self):
        assert ancilla_index(2, 4, 4) == 5

    @pytest.mark.parametrize("n", range(2, 51))
    def test_bijection(self, n):
        # Lexicographic (i, j) order is the diagonal ancillas' own order, which
        # analysis.ancilla_truth assumes without calling ancilla_index.
        ks = [ancilla_index(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert ks == list(range(1, n * (n - 1) // 2 + 1))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ancilla_index(2, 2, 4)
        with pytest.raises(ValueError):
            ancilla_index(3, 2, 4)
        with pytest.raises(ValueError):
            ancilla_index(1, 5, 4)


class TestDiagonalChecks:
    def test_n4_counts(self):
        gates = build_diagonal_checks(4)
        assert sum(1 for g in gates if g.kind == "X") == 6
        assert sum(1 for g in gates if g.kind == "CCX") == 28

    def test_n1_empty(self):
        assert build_diagonal_checks(1) == []

    def test_n6_ccx_count(self):
        gates = build_diagonal_checks(6)
        assert sum(1 for g in gates if g.kind == "CCX") == 110

    def test_x_init_precedes_toffolis(self):
        gates = build_diagonal_checks(3)
        kinds = [g.kind for g in gates]
        assert kinds == ["X"] * 3 + ["CCX"] * (len(kinds) - 3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_controls_in_distinct_blocks_targeting_their_pair_ancilla(self, n):
        lay = layout(n)
        for g in build_diagonal_checks(n):
            if g.kind != "CCX":
                continue
            q1, q2, target = g.qubits
            i, j = q1 // n, q2 // n
            assert i < j < n
            assert target == lay.diag_anc_qubit(ancilla_index(i + 1, j + 1, n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_toffoli_operands_from_the_layout(self, n):
        lay = layout(n)
        expected = [
            (
                lay.system_qubit(i, x),
                lay.system_qubit(j, y),
                lay.diag_anc_qubit(ancilla_index(i + 1, j + 1, n)),
            )
            for i in range(n)
            for j in range(i + 1, n)
            for x in range(n)
            for y in range(n)
            if abs(x - y) == j - i
        ]
        ccx = [g.qubits for g in build_diagonal_checks(n) if g.kind == "CCX"]
        assert ccx == expected

    def test_matches_diagonal_pair_enumeration(self):
        n = 5
        lay = layout(n)
        ccx = [g for g in build_diagonal_checks(n) if g.kind == "CCX"]
        expected = [
            (lay.system_qubit(i, x), lay.system_qubit(j, y))
            for (i, x), (j, y) in diagonal_pairs(n)
        ]
        assert [(g.qubits[0], g.qubits[1]) for g in ccx] == expected

    def test_toffolis_share_their_operand_ints(self):
        # one int object per cell and per row pair, not one per operand
        n = 40
        ints = {id(q) for g in build_diagonal_checks(n) if g.kind == "CCX" for q in g.qubits}
        assert len(ints) <= n * n + n * (n - 1) // 2


class TestFullCircuit:
    def test_n1_single_gate(self):
        c = build_full_circuit(1)
        assert c.gates == (Gate("X", (0,)),)

    def test_n4_gate_total(self):
        c = build_full_circuit(4)
        assert len(c.gates) == 4 * 7 + 18 + 6 + 28

    def test_n4_qubits(self):
        assert build_full_circuit(4).layout.q_total == 25


class TestCollectorPause:
    """Nothing pauses the cyclic collector any more: building, parsing, `counts`
    and `export-qasm` leave it as they find it, on or off, whether they return
    or raise, and it stays that way while they run."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_build_restores_the_collector(self, collector, monkeypatch):
        seen = []
        add = circuit._add_diagonal_checks
        monkeypatch.setattr(
            circuit, "_add_diagonal_checks",
            lambda columns, n: seen.append(gc.isenabled()) or add(columns, n),
        )
        assert len(build_full_circuit(5)) == sum(closed_form_census(5).counts.values())
        assert seen == [collector]
        assert gc.isenabled() == collector

    def test_build_restores_the_collector_when_it_raises(self, collector):
        with pytest.raises(ValueError, match="board size must be >= 1"):
            build_full_circuit(0)
        assert gc.isenabled() == collector

    def test_parse_restores_the_collector(self, collector, monkeypatch):
        seen = []  # (collector on, batch size) at each list-wide check of a gate batch

        def checked_gates(kinds, qubits, thetas, q_total):
            seen.append((gc.isenabled(), len(kinds)))
            return circuit._checked_gates(kinds, qubits, thetas, q_total)

        monkeypatch.setattr(qasm, "_checked_gates", checked_gates)
        text = qasm.export_qasm(build_full_circuit(3)).text
        assert len(qasm.parse_qasm_subset(text)) == sum(size for _, size in seen) > 0
        assert all(enabled == collector for enabled, _ in seen)
        assert gc.isenabled() == collector

    def test_parse_restores_the_collector_when_it_raises(self, collector):
        lines = qasm.export_qasm(build_full_circuit(3)).text.splitlines()
        bad = lines.index("ccx q[0],q[4],q[11];")
        lines[bad] = "ccx q[0],q[4],q[0];"  # one bad line in the gate block
        with pytest.raises(qasm.QasmParseError) as err:
            qasm.parse_qasm_subset("\n".join(lines))
        assert err.value.lineno == bad + 1
        assert str(err.value) == f"line {bad + 1}: gate operands must be distinct"
        assert gc.isenabled() == collector

    def test_no_call_switches_the_collector(self, collector):
        def refused():
            raise AssertionError("the collector was switched")

        with mock.patch.object(gc, "disable", refused), mock.patch.object(gc, "enable", refused):
            built = build_full_circuit(32)
            assert gc.isenabled() == collector
            doc = qasm.export_qasm(built)
            assert len(qasm.parse_qasm_subset(doc.text)) == doc.gate_line_count
            assert gc.isenabled() == collector
            for argv in (["counts", "32"], ["export-qasm", "32"]):
                assert cli.main(argv, out=io.StringIO()) == 0
                assert gc.isenabled() == collector

    @pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's collector")
    def test_operand_tuples_are_untracked_after_a_collection(self):
        """A tuple of ints cannot be in a reference cycle, and CPython stops
        tracking it at its first collection: a circuit's many operand tuples
        add nothing to later collections, so no pause is needed around them."""
        built = build_full_circuit(32)
        parsed = qasm.parse_qasm_subset(qasm.export_qasm(built).text)
        gc.collect()
        for made in (built, parsed):
            assert len(made._qubits) > 24_000
            assert not any(map(gc.is_tracked, made._qubits))


class TestCensus:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_built_matches_closed_form(self, n):
        built = gate_census(build_full_circuit(n))
        predicted = closed_form_census(n)
        assert built == predicted

    def test_n4_totals(self):
        census = gate_census(build_full_circuit(4))
        assert census.qubits == 25
        assert census.column_check_gates == 18
        assert census.diagonal_ccx == 28
        assert census.w_prep_gates == 28

    def test_n2_totals(self):
        predicted = closed_form_census(2)
        assert predicted.column_check_gates == 4
        assert predicted.diagonal_ccx == 2

    def test_n12_simplified_diagonal_form(self):
        assert diagonal_pair_count_simplified(12) == 12 * 11 * 23 // 3 == 1012
        assert diagonal_pair_count(12) == 1012

    @pytest.mark.parametrize("n", range(1, 101))
    def test_three_diagonal_expressions_agree(self, n):
        assert (
            diagonal_pair_count(n)
            == diagonal_pair_count_sum(n)
            == diagonal_pair_count_simplified(n)
        )

    def test_column_gate_count_formula(self):
        for n in range(2, 20):
            assert column_check_gate_count(n) == len(build_column_checks(n))

    def test_w_prep_gate_count_formula(self):
        for n in range(1, 10):
            assert w_prep_gate_count(n) == sum(
                len(build_w_prep(n, r)) for r in range(n)
            )


class TestToffoliOrderIndependence:
    def test_shuffled_ccx_subsequence_gives_identical_state(self):
        n = 4
        base = build_full_circuit(n)
        prefix = [g for g in base.gates if g.kind != "CCX"]
        ccx = [g for g in base.gates if g.kind == "CCX"]
        shuffled = ccx[:]
        random.Random(42).shuffle(shuffled)
        assert shuffled != ccx
        ref = sim.run(base)
        alt = sim.run(Circuit(base.layout, tuple(prefix + shuffled)))
        assert set(ref.terms) == set(alt.terms)
        for lbl, a in ref.terms.items():
            assert abs(a - alt.terms[lbl]) < 1e-12
