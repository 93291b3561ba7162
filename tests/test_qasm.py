import hashlib
import math
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from quantum_nqueens import qasm, sim
from quantum_nqueens.circuit import Gate, build_full_circuit, gate_census, layout
from quantum_nqueens.qasm import QasmParseError, export_qasm, parse_qasm_subset
from quantum_nqueens.sim import SparseState

GOLDEN_DIR = Path(__file__).parent / "golden"


def states_close(a, b, tol):
    labels = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(l, 0.0) - b.terms.get(l, 0.0)) < tol for l in labels)


class TestExport:
    def test_n1_minimal_program(self):
        doc = export_qasm(build_full_circuit(1))
        assert doc.gate_line_count == 1
        lines = doc.text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert 'include "qelib1.inc";' in lines
        assert "qreg q[1];" in lines
        assert "x q[0];" in lines
        assert "measure q[0] -> c[0];" in lines

    def test_n4_register_width(self):
        doc = export_qasm(build_full_circuit(4))
        assert "qreg q[25];" in doc.text

    def test_n4_ccx_statement_count(self):
        doc = export_qasm(build_full_circuit(4))
        assert sum(1 for l in doc.text.splitlines() if l.startswith("ccx ")) == 28

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ccx_count_matches_census(self, n):
        circuit = build_full_circuit(n)
        doc = export_qasm(circuit)
        in_text = sum(1 for l in doc.text.splitlines() if l.startswith("ccx "))
        assert in_text == gate_census(circuit).diagonal_ccx

    def test_deterministic(self):
        assert export_qasm(build_full_circuit(4)).text == export_qasm(build_full_circuit(4)).text

    def test_gate_line_count_accounts_for_cry(self):
        n = 4
        circuit = build_full_circuit(n)
        census = gate_census(circuit)
        plain = sum(v for k, v in census.counts.items() if k != "CRY")
        assert export_qasm(circuit).gate_line_count == plain + 4 * census.counts["CRY"]

    def test_measures_all_qubits(self):
        doc = export_qasm(build_full_circuit(2))
        measures = [l for l in doc.text.splitlines() if l.startswith("measure")]
        assert len(measures) == layout(2).q_total

    def test_lf_endings_only(self):
        assert "\r" not in export_qasm(build_full_circuit(4)).text


class TestParse:
    def test_empty_program(self):
        circuit = parse_qasm_subset(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        )
        assert circuit.gates == ()
        assert circuit.layout.q_total == 1

    def test_unknown_gate_names_line(self):
        text = 'OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n'
        with pytest.raises(QasmParseError) as err:
            parse_qasm_subset(text)
        assert "line 3" in str(err.value)

    def test_garbage_statement(self):
        with pytest.raises(QasmParseError):
            parse_qasm_subset("OPENQASM 2.0;\nqreg q[1];\nif (c==1) x q[0];\n")

    def test_operand_out_of_range_names_line(self):
        with pytest.raises(QasmParseError) as err:
            parse_qasm_subset("OPENQASM 2.0;\nqreg q[1];\nx q[5];\n")
        assert err.value.lineno == 3
        assert "line 3" in str(err.value)

    def test_missing_qreg(self):
        with pytest.raises(QasmParseError):
            parse_qasm_subset("OPENQASM 2.0;\nx q[0];\n")

    # One case per raise site of parse_qasm_subset, plus the Gate checks it
    # reports: (program, line number, full message after "line N: ").
    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nif (c==1) x q[0];\n",
                3,
                "unrecognized statement: 'if (c==1) x q[0];'",
                id="unrecognized-statement",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nbarrier q[0]; // sync\n",
                3,
                "unknown gate 'barrier'",
                id="unknown-gate",
            ),
            pytest.param(
                "OPENQASM 2.0;\nx q[0];\nqreg q[1];\n",
                2,
                "gate statement before qreg declaration",
                id="gate-before-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\n\ncx q[0],q[6];\n",
                4,
                "qubit index out of range for qreg q[6]",
                id="operand-out-of-range",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nry(abc) q[0];\n",
                3,
                "bad angle 'abc'",
                id="bad-angle",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\ncx q[0],q[0];\n",
                3,
                "gate operands must be distinct",
                id="repeated-operand",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\ncx q[1];\n",
                3,
                "CX takes 2 qubits",
                id="wrong-arity",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\nx q[0],q[1];\n",
                3,
                "X takes 1 qubits",
                id="over-arity",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\nccx q[0],q[1],q[2],q[3];\n",
                3,
                "CCX takes 3 qubits",
                id="over-arity-past-three-operands",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[6];\nccx q[0],q[1],q[2] , q[6];\n",
                3,
                "qubit index out of range for qreg q[6]",
                id="fourth-operand-out-of-range",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nry q[0];\n",
                3,
                "RY requires a finite angle",
                id="missing-angle",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nry(inf) q[0];\n",
                3,
                "RY requires a finite angle",
                id="infinite-angle",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nx(0.5) q[0];\n",
                3,
                "X takes no angle",
                id="spurious-angle",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[3];\n",
                2,
                "3 qubits does not match any board size",
                id="bad-qreg-width",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[0];\n",
                2,
                "0 qubits does not match any board size",
                id="empty-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[" + "9" * 5000 + "];\n",
                2,
                "qreg width does not match any board size",
                id="qreg-width-past-int-digit-limit",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[25];\nx q[20];\nqreg q[1];\n",
                4,
                "second qreg declaration",
                id="narrowing-second-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nqreg q[25];\nx q[20];\n",
                3,
                "second qreg declaration",
                id="widening-second-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[25];\nx q[" + "9" * 5000 + "];\n",
                3,
                "qubit index out of range for qreg q[25]",
                id="operand-past-int-digit-limit",
            ),
            pytest.param(
                'OPENQASM 2.0;\ninclude "qelib1.inc";\ncreg c[1];\n',
                1,
                "missing qreg declaration",
                id="missing-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nincludexyz junk\nqreg q[1];\n",
                2,
                "unrecognized statement: 'includexyz junk'",
                id="include-prefix",
            ),
            pytest.param(
                'OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n',
                2,
                "unrecognized statement: 'include \"other.inc\";'",
                id="other-include",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nmeasure q[7] -> c[9];\n",
                3,
                "qubit index out of range for qreg q[1]",
                id="measure-past-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nmeasure q[0] -> c[0];\nqreg q[1];\n",
                2,
                "measure before qreg declaration",
                id="measure-before-qreg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> zz[5];\n",
                3,
                "measure before creg declaration",
                id="measure-before-creg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ncreg c[7];\n",
                4,
                "second creg declaration",
                id="second-creg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[3];\n",
                4,
                "bit index out of range for creg c[1]",
                id="measure-past-creg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[" + "9" * 5000 + "];\n",
                4,
                "bit index out of range for creg c[1]",
                id="bit-index-past-int-digit-limit",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[" + "9" * 5000 + "];\n",
                3,
                "creg width too large",
                id="creg-width-past-int-digit-limit",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> zz[0];\n",
                4,
                "measure into undeclared creg 'zz'",
                id="measure-into-other-creg",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[\u0662\u0665];\n",
                2,
                "unrecognized statement: 'qreg q[\u0662\u0665];'",
                id="non-ascii-qreg-width",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[25];\nx q[\u0663];\n",
                3,
                "unrecognized statement: 'x q[\u0663];'",
                id="non-ascii-operand",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nry(1_0) q[0];\n",
                3,
                "bad angle '1_0'",
                id="angle-with-digit-separator",
            ),
            pytest.param(
                "OPENQASM 2.0;\nqreg q[1];\nry(\u0661) q[0];\n",
                3,
                "bad angle '\u0661'",
                id="non-ascii-angle",
            ),
        ],
    )
    def test_error_names_line_and_message(self, text, lineno, message):
        with pytest.raises(QasmParseError) as err:
            parse_qasm_subset(text)
        assert err.value.lineno == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    @pytest.fixture
    def layout_calls(self, monkeypatch):
        """Record the parser's layout(n) calls; fail fast past a constant bound."""
        calls = []

        def counted(n):
            calls.append(n)
            assert len(calls) <= 2, "board size searched, not computed"
            return layout(n)

        monkeypatch.setattr(qasm, "layout", counted)
        return calls

    @pytest.mark.parametrize("width", [10**18, 10**30])
    def test_huge_qreg_width_is_rejected_in_constant_time(self, width, layout_calls):
        with pytest.raises(QasmParseError) as err:
            parse_qasm_subset(f"OPENQASM 2.0;\nqreg q[{width}];\n")
        assert str(err.value) == f"line 2: {width} qubits does not match any board size"

    def test_huge_board_width_parses_in_constant_time(self, layout_calls):
        width = layout(10**9).q_total
        circuit = parse_qasm_subset(f"OPENQASM 2.0;\nqreg q[{width}];\n")
        assert circuit.layout.n == 10**9
        assert circuit.layout.q_total == width

    @pytest.mark.parametrize("n", range(1, 40))
    def test_every_board_width_and_its_neighbours(self, n):
        width = layout(n).q_total
        assert parse_qasm_subset(f"OPENQASM 2.0;\nqreg q[{width}];\n").layout.n == n
        for other in (width - 1, width + 1):
            with pytest.raises(QasmParseError):
                parse_qasm_subset(f"OPENQASM 2.0;\nqreg q[{other}];\n")

    def test_statements_outside_the_gate_set_are_still_recognized(self):
        circuit = parse_qasm_subset(
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[6];  // a comment\n"
            "creg c[6];\n"
            "measure q[0] -> c[0];\n"
            "x q[1];\n"
            "ccx q[0], q[1] ,q[2] ;\n"
        )
        assert circuit.layout == layout(2)
        assert circuit.gates == (Gate("X", (1,)), Gate("CCX", (0, 1, 2)))

    def test_parses_own_export(self):
        circuit = build_full_circuit(2)
        parsed = parse_qasm_subset(export_qasm(circuit).text)
        assert parsed.layout == circuit.layout
        # CRY stays decomposed: 2 rows x (1 CRY -> 4 gates, keeping X and CX)
        kinds = [g.kind for g in parsed.gates]
        assert "CRY" not in kinds


# Every line break str.splitlines() knows, "\r\n" included.
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def numbered_lines(text):
    """The lines of qasm._line_chunks(text), each with its number."""
    return [pair for first, lines in qasm._line_chunks(text) for pair in enumerate(lines, first)]


class TestChunkedLines:
    """The parser splits its text a chunk at a time; the numbered lines are
    those of the whole text's splitlines()."""

    @given(
        st.lists(st.one_of(st.sampled_from(_BREAKS), st.text("ab ;", max_size=4)), max_size=30),
        st.integers(1, 9),
    )
    @example(["a", "\r", "\n", "b"], 1)  # "\r\n" split across two pieces is still one break
    @example(["\r\n"], 1)
    @example(["", "\n", "\n"], 2)
    def test_same_lines_and_numbers_as_splitlines(self, pieces, chunk):
        text = "".join(pieces)
        with mock.patch.object(qasm, "_CHUNK", chunk):
            assert numbered_lines(text) == list(enumerate(text.splitlines(), 1))

    def test_default_chunk_on_an_export(self):
        text = export_qasm(build_full_circuit(19)).text
        assert len(text) > 2 * qasm._CHUNK
        assert numbered_lines(text) == list(enumerate(text.splitlines(), 1))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_parse_is_the_same_for_any_chunk(self, chunk):
        text = export_qasm(build_full_circuit(4)).text
        expected = parse_qasm_subset(text)
        with mock.patch.object(qasm, "_CHUNK", chunk):
            assert parse_qasm_subset(text.replace("\n", "\r\n")) == expected

    def test_gates_are_checked_at_most_a_chunk_at_a_time(self):
        text = export_qasm(build_full_circuit(19)).text
        sizes, checked_gates = [], qasm._checked_gates

        def recording(kinds, qubits, thetas):
            sizes.append(len(kinds))
            return checked_gates(kinds, qubits, thetas)

        with mock.patch.object(qasm, "_checked_gates", recording):
            parsed = parse_qasm_subset(text)
        assert sum(sizes) == len(parsed.gates)
        assert max(sizes) <= max(len(lines) for _, lines in qasm._line_chunks(text))


class TestBatchedErrors:
    """Gate lines are checked a run at a time, or by the per-line rules, yet
    the first bad line of the text is the one reported, with its own number
    and message."""

    HEADER = ["OPENQASM 2.0;", "qreg q[6];", "creg c[6];", "x q[0];"]
    BAD_GATE = ("cx q[1],q[1];", "gate operands must be distinct")
    OTHER_ERRORS = [
        ("bogus;", "unrecognized statement: 'bogus;'"),
        ("swap q[0],q[1];", "unknown gate 'swap'"),
        ("qreg q[6];", "second qreg declaration"),
        ("measure q[0] -> zz[0];", "measure into undeclared creg 'zz'"),
        ("x q[6];", "qubit index out of range for qreg q[6]"),
        ("ry(1_0) q[0];", "bad angle '1_0'"),
    ]

    @staticmethod
    def parse_error(lines):
        with pytest.raises(QasmParseError) as err:
            parse_qasm_subset("\n".join(lines) + "\n")
        return err.value.lineno, str(err.value)

    @pytest.mark.parametrize("other, other_message", OTHER_ERRORS)
    def test_bad_gate_line_before_another_error_is_reported(self, other, other_message):
        bad, message = self.BAD_GATE
        lines = self.HEADER + [bad, "h q[2];", other]
        assert self.parse_error(lines) == (5, f"line 5: {message}")

    @pytest.mark.parametrize("other, other_message", OTHER_ERRORS)
    def test_another_error_before_a_bad_gate_line_is_reported(self, other, other_message):
        bad, _ = self.BAD_GATE
        lines = self.HEADER + [other, "h q[2];", bad]
        assert self.parse_error(lines) == (5, f"line 5: {other_message}")

    @pytest.mark.parametrize(
        "bad, message",
        [
            BAD_GATE,
            ("ry(inf) q[0];", "RY requires a finite angle"),
            ("h(0.5) q[1];", "H takes no angle"),
            ("ry q[1];", "RY requires a finite angle"),
        ],
    )
    @pytest.mark.parametrize("index", [0, 1, 4094, 4095, 4096, 4097, 8191, 8192, 9999])
    def test_bad_gate_in_any_batch_reports_its_own_line(self, bad, message, index):
        gates = ["h q[2];", "cz q[3],q[4];"] * 5000  # several chunks of gate lines
        gates[index] = bad
        lines = self.HEADER + ["// a comment", ""] + gates + ["measure q[0] -> c[0];"]
        lineno = len(self.HEADER) + 2 + index + 1
        assert self.parse_error(lines) == (lineno, f"line {lineno}: {message}")

    def test_bad_gate_in_the_last_batch_is_reported_at_the_end(self):
        bad, message = self.BAD_GATE
        lines = self.HEADER + ["h q[2];"] * 4100 + [bad] + ["measure q[0] -> c[0];"] * 3
        assert self.parse_error(lines) == (4105, f"line 4105: {message}")

    def test_bad_gate_line_in_an_export_beyond_the_first_batch(self):
        lines = export_qasm(build_full_circuit(19)).text.splitlines()
        ccx = [i for i, line in enumerate(lines) if line.startswith("ccx ")]
        assert len(ccx) > 4096
        bad = ccx[4096 + 17]
        lines[bad] = "ccx q[0],q[4],q[0];"
        message = f"line {bad + 1}: gate operands must be distinct"
        assert self.parse_error(lines) == (bad + 1, message)


def outcome(text):
    """The parsed Circuit, or the (line number, message) of the parse error."""
    try:
        return parse_qasm_subset(text)
    except QasmParseError as err:
        return err.lineno, str(err)


def per_line_outcome(text):
    """outcome(text) with every line taken through the per-line rules."""
    with mock.patch.object(qasm, "_CANONICAL_GATE_RE", re.compile(r"(?!)")):
        return outcome(text)


# Single-line mutations of a gate line, as (line, its operand digits, qreg width) -> line.
_MUTATIONS = {
    "trailing comment": lambda line, ops, q: line + " // c",
    "leading space": lambda line, ops, q: " " + line,
    "trailing space": lambda line, ops, q: line + " ",
    "CRLF": lambda line, ops, q: line + "\r",  # the line then ends in "\r\n"
    "operand past the qreg": lambda line, ops, q: line.replace(f"q[{ops[-1]}]", f"q[{q}]"),
    "repeated operand": lambda line, ops, q: f"cx q[{ops[0]}],q[{ops[0]}];",
    "ry(1e400)": lambda line, ops, q: f"ry(1e400) q[{ops[0]}];",
    "ry(1e+400)": lambda line, ops, q: f"ry(1e+400) q[{ops[0]}];",
    "ry(1_0)": lambda line, ops, q: f"ry(1_0) q[{ops[0]}];",
    "ry(inf)": lambda line, ops, q: f"ry(inf) q[{ops[0]}];",
    "upper-case name": lambda line, ops, q: line[0].upper() + line[1:],
    "unknown name": lambda line, ops, q: "swap" + line[line.index(" "):],
    "second qreg": lambda line, ops, q: f"qreg q[{q}];",
}


_GATE_NAMES = ("x ", "h ", "ry(", "cx ", "cz ", "ccx ")


class TestCanonicalRoute:
    """Gate lines written exactly as export_qasm writes them are converted a
    run at a time; the result, or the first error, is what the per-line rules
    give for every line."""

    N5_LINES = export_qasm(build_full_circuit(5)).text.splitlines()
    N5_QREG = N5_LINES.index(f"qreg q[{layout(5).q_total}];")
    N5_GATES = [i for i, line in enumerate(N5_LINES) if line.startswith(_GATE_NAMES)]

    @pytest.mark.parametrize("n", [*range(1, 9), 32])
    def test_export_parses_to_the_same_circuit_by_either_route(self, n):
        text = export_qasm(build_full_circuit(n)).text
        assert outcome(text) == per_line_outcome(text)

    def test_export_gate_lines_skip_the_per_line_rules(self):
        doc = export_qasm(build_full_circuit(8))
        seen, gate_re = [], qasm._GATE_RE

        class Recording:
            def match(self, line):
                seen.append(line)
                return gate_re.match(line)

        with mock.patch.object(qasm, "_GATE_RE", Recording()):
            circuit = parse_qasm_subset(doc.text)
        assert len(circuit.gates) == doc.gate_line_count
        assert seen and all(line.startswith(("OPENQASM", "include", "qreg", "creg", "measure")) for line in seen)

    @pytest.mark.parametrize("mutation", [*_MUTATIONS, "moved above the qreg"])
    @given(st.data())
    def test_a_mutated_line_gives_the_same_result_by_either_route(self, mutation, data):
        lines = list(self.N5_LINES)
        i = data.draw(st.sampled_from(self.N5_GATES), label="gate line")
        if mutation == "moved above the qreg":
            lines.insert(self.N5_QREG, lines.pop(i))
        else:
            ops = re.findall(r"q\[(\d+)\]", lines[i])
            lines[i] = _MUTATIONS[mutation](lines[i], ops, layout(5).q_total)
        text = "\n".join(lines) + "\n"
        assert outcome(text) == per_line_outcome(text)

    N19_LINES = export_qasm(build_full_circuit(19)).text.splitlines()
    N19_GATES = [i for i, line in enumerate(N19_LINES) if line.startswith(_GATE_NAMES)]

    @staticmethod
    def bad_line(bad, line):
        """A bad line at least as long as line, so that a chunk's last line stays its last."""
        if bad == "operand past the qreg":
            last = re.findall(r"q\[(\d+)\]", line)[-1]
            return line[: line.rindex("q[")] + f"q[{str(layout(19).q_total).rjust(len(last), '0')}];"
        short = f"ry(1{'e+400' if bad == 'ry(1e+400)' else 'e400'}) q[0];"
        return short.replace("(1", "(1" + "0" * max(0, len(line) - len(short)))

    CHUNK_ENDS = ["first line of chunk 2", "last line of chunk 2"]
    # Positions among the gate lines, which an export writes one after another.
    GATE_POSITIONS = {"gate line 0": 0, "gate line 4095": 4095, "gate line 4096": 4096}

    @pytest.mark.parametrize("bad, message", [
        ("operand past the qreg", f"qubit index out of range for qreg q[{layout(19).q_total}]"),
        ("ry(1e400)", "RY requires a finite angle"),
        ("ry(1e+400)", "RY requires a finite angle"),
    ])
    @pytest.mark.parametrize("where", [*CHUNK_ENDS, *GATE_POSITIONS])
    def test_bad_line_at_a_chunk_end_or_gate_position_reports_its_own_line(self, bad, message, where):
        def chunk_ends(text):
            return [(first, first + len(lines) - 1) for first, lines in qasm._line_chunks(text)]

        lines = list(self.N19_LINES)
        if where in self.CHUNK_ENDS:
            index = chunk_ends("\n".join(lines) + "\n")[1][where.startswith("last")] - 1
        else:
            index = self.N19_GATES[self.GATE_POSITIONS[where]]
        lines[index] = self.bad_line(bad, lines[index])
        text = "\n".join(lines) + "\n"
        if where in self.CHUNK_ENDS:  # the bad line is still where its name says
            assert chunk_ends(text)[1][where.startswith("last")] == index + 1
        assert outcome(text) == (index + 1, f"line {index + 1}: {message}")


class TestRoundTrip:
    @pytest.mark.parametrize("n", [*range(1, 13), 32])
    def test_parse_export_gives_the_built_gates(self, n):
        expected = []
        for g in build_full_circuit(n).gates:
            if g.kind == "CRY":
                ctrl, tgt = g.qubits
                # The export prints theta/2 with repr, which float() reads back exactly.
                expected += [
                    ("RY", (tgt,), g.theta / 2.0),
                    ("CX", (ctrl, tgt), None),
                    ("RY", (tgt,), -g.theta / 2.0),
                    ("CX", (ctrl, tgt), None),
                ]
            else:
                expected.append((g.kind, g.qubits, g.theta))
        parsed = parse_qasm_subset(export_qasm(build_full_circuit(n)).text)
        assert parsed.layout == layout(n)
        assert [(g.kind, g.qubits, g.theta) for g in parsed.gates] == expected

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_parse_export_simulates_to_same_state(self, n):
        circuit = build_full_circuit(n)
        original = sim.run(circuit)
        reparsed = sim.run(parse_qasm_subset(export_qasm(circuit).text))
        assert states_close(original, reparsed, 1e-10)


class TestCryDecomposition:
    @pytest.mark.parametrize("theta", [0.3, -1.2, math.pi / 2, 2.9])
    def test_matches_direct_cry_on_random_states(self, theta):
        rng = random.Random(theta)
        lay = layout(2)
        amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        terms = {lbl: a / norm for lbl, a in enumerate(amps)}

        direct = sim.apply_gate(SparseState(lay, dict(terms)), Gate("CRY", (0, 1), theta))
        decomposed = SparseState(lay, dict(terms))
        for g in [
            Gate("RY", (1,), theta / 2),
            Gate("CX", (0, 1)),
            Gate("RY", (1,), -theta / 2),
            Gate("CX", (0, 1)),
        ]:
            decomposed = sim.apply_gate(decomposed, g)
        assert states_close(direct, decomposed, 1e-12)


class TestGoldenFiles:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_byte_stable(self, n):
        golden = (GOLDEN_DIR / f"nqueens_n{n}.qasm").read_bytes()
        assert export_qasm(build_full_circuit(n)).text.encode("utf-8") == golden

    def test_n32_export_digest(self):
        # The benchmark's size: every kind the builder emits, multi-digit indices, repr angles.
        text = export_qasm(build_full_circuit(32)).text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "832203bb61ba400dd3f3d2a9e42eda44d8b219ad1aca9ff47b168be461db80ba"
