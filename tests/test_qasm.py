import math
import random
from pathlib import Path

import pytest

from quantum_nqueens import sim
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

    def test_parses_own_export(self):
        circuit = build_full_circuit(2)
        parsed = parse_qasm_subset(export_qasm(circuit).text)
        assert parsed.layout == circuit.layout
        # CRY stays decomposed: 2 rows x (1 CRY -> 4 gates, keeping X and CX)
        kinds = [g.kind for g in parsed.gates]
        assert "CRY" not in kinds


class TestRoundTrip:
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
