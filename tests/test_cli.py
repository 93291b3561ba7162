import io
import json

import pytest

from quantum_nqueens import cli
from quantum_nqueens.qasm import parse_qasm_subset


def invoke(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestSolve:
    def test_n4_two_solutions(self):
        code, text = invoke(["solve", "4"])
        assert code == 0
        assert text.count("solution ") == 2
        assert "success probability: 0.0078125" in text

    def test_n2_no_solutions(self):
        code, text = invoke(["solve", "2"])
        assert code == 0
        assert "no solutions" in text

    def test_n1(self):
        code, text = invoke(["solve", "1"])
        assert code == 0
        assert text.count("solution ") == 1

    def test_json_format(self):
        code, text = invoke(["solve", "4", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["equal"] is True
        assert obj["quantum_solutions"] == [[1, 3, 0, 2], [2, 0, 3, 1]]

    def test_cap_exceeded(self, capsys):
        code, _ = invoke(["solve", "7"])
        assert code == cli.EXIT_RESOURCE
        assert "--max-n" in capsys.readouterr().err

    def test_lowered_cap_blocks(self, capsys):
        code, _ = invoke(["solve", "5", "--max-n", "4"])
        assert code == cli.EXIT_RESOURCE


class TestVerify:
    def test_n4(self):
        code, text = invoke(["verify", "4"])
        assert code == 0
        assert "equal: True" in text

    def test_json(self):
        code, text = invoke(["verify", "3", "--format", "json"])
        assert code == 0
        assert json.loads(text)["equal"] is True


class TestCounts:
    def test_n4_matches(self):
        code, text = invoke(["counts", "4"])
        assert code == 0
        assert "MISMATCH" not in text
        assert text.count("MATCH") == 4

    def test_n4_values(self):
        _, text = invoke(["counts", "4", "--format", "json"])
        obj = json.loads(text)
        assert obj["qubits"]["closed_form"] == 25
        assert obj["column_check_gates"]["closed_form"] == 18
        assert obj["diagonal_toffolis"]["closed_form"] == 28

    def test_n1(self):
        _, text = invoke(["counts", "1", "--format", "json"])
        obj = json.loads(text)
        assert obj["qubits"]["closed_form"] == 1
        assert obj["column_check_gates"]["closed_form"] == 0
        assert obj["diagonal_toffolis"]["closed_form"] == 0

    def test_n8_diagonal(self):
        _, text = invoke(["counts", "8", "--format", "json"])
        assert json.loads(text)["diagonal_toffolis"]["closed_form"] == 280

    def test_large_n_closed_forms_only(self):
        code, text = invoke(["counts", "5000", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["diagonal_toffolis"]["built"] is None


class TestSample:
    def test_deterministic(self):
        a = invoke(["sample", "4", "--shots", "310", "--seed", "1"])
        b = invoke(["sample", "4", "--shots", "310", "--seed", "1"])
        assert a == b
        assert a[0] == 0

    def test_distinct_range(self):
        _, text = invoke(["sample", "4", "--shots", "310", "--seed", "1"])
        distinct = int(text.split("distinct outcomes: ")[1].splitlines()[0])
        assert 150 <= distinct <= 205

    def test_single_outcome_n1(self):
        _, text = invoke(["sample", "1", "--shots", "10", "--seed", "0"])
        assert "distinct outcomes: 1" in text

    def test_zero_shots_usage_error(self):
        with pytest.raises(SystemExit) as err:
            invoke(["sample", "4", "--shots", "0"])
        assert err.value.code == cli.EXIT_USAGE


class TestOracle:
    def test_n5(self):
        code, text = invoke(["oracle", "5", "--format", "json"])
        assert code == 0
        assert len(json.loads(text)["solutions"]) == 10

    def test_text_lines(self):
        _, text = invoke(["oracle", "4"])
        assert '{"n": 4, "cols": [1, 3, 0, 2]}' in text
        assert "total: 2" in text


class TestExportQasm:
    def test_stdout(self):
        code, text = invoke(["export-qasm", "1"])
        assert code == 0
        assert text.startswith("OPENQASM 2.0;")

    def test_to_file_round_trips(self, tmp_path):
        path = tmp_path / "nq4.qasm"
        code, _ = invoke(["export-qasm", "4", "-o", str(path)])
        assert code == 0
        circuit = parse_qasm_subset(path.read_text())
        assert circuit.layout.q_total == 25

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.qasm"
        code, text = invoke(["export-qasm", "2", "-o", str(path)])
        assert code == cli.EXIT_IO == 4
        assert text == ""
        assert "cannot write" in capsys.readouterr().err


class TestUsage:
    def test_negative_n(self):
        with pytest.raises(SystemExit) as err:
            invoke(["solve", "0"])
        assert err.value.code == cli.EXIT_USAGE

    def test_unknown_mode(self):
        with pytest.raises(SystemExit) as err:
            invoke(["frobnicate", "4"])
        assert err.value.code == cli.EXIT_USAGE

    def test_format_env_var(self, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        code, text = invoke(["oracle", "4"])
        assert code == 0
        assert json.loads(text)["n"] == 4
