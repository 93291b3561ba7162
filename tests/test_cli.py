import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantum_nqueens import circuit, cli, sim
from quantum_nqueens.qasm import parse_qasm_subset


def invoke(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if the command builds a circuit."""

    def refuse(n):
        raise AssertionError(f"built the n={n} circuit")

    monkeypatch.setattr(cli.circuit, "build_full_circuit", refuse)


class TestSolve:
    def test_n4_two_solutions(self):
        code, text = invoke(["solve", "4"])
        assert code == 0
        assert text.count("solution ") == 2
        assert "success probability: 0.007812499999999991" in text

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


class TestSuccessProbability:
    @pytest.fixture
    def scaled_run(self, monkeypatch):
        # Every amplitude 1% too large: the solution set is intact, but the
        # measured success probability is 2% above the classical ratio.
        real_run = sim.run

        def run(circuit):
            state = real_run(circuit)
            terms = {lbl: 1.01 * a for lbl, a in state.terms.items()}
            return sim.SparseState(state.layout, terms)

        monkeypatch.setattr(sim, "run", run)

    @pytest.mark.parametrize("mode", ["verify", "solve"])
    def test_mismatch_exits_1(self, mode, scaled_run):
        code, text = invoke([mode, "4"])
        assert code == 1
        assert "success probability: 0.00796953" in text


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

    def test_over_the_gate_cap_is_not_built(self, no_build):
        # n=1000 predicts 669,166,498 gates.
        code, text = invoke(["counts", "1000"])
        assert code == 0
        rows = text.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split()[-2:] == ["-", "-"] for row in rows)

    @pytest.fixture
    def padded_w_prep(self, monkeypatch):
        """Append one X to every W-prep row, so only the W-prep count disagrees."""
        build = circuit.build_w_prep

        def padded(n, row):
            return build(n, row) + [circuit.Gate("X", (row * n,))]

        monkeypatch.setattr(circuit, "build_w_prep", padded)

    def test_mismatch_exits_1_in_text(self, padded_w_prep):
        code, text = invoke(["counts", "4"])
        assert code == cli.EXIT_MISMATCH
        status = {row[:20].strip(): row.split()[-1] for row in text.splitlines()[1:]}
        assert status == {
            "qubits": "MATCH",
            "column-check gates": "MATCH",
            "diagonal Toffolis": "MATCH",
            "W-prep gates": "MISMATCH",
        }

    def test_mismatch_exits_1_in_json(self, padded_w_prep):
        code, text = invoke(["counts", "4", "--format", "json"])
        assert code == cli.EXIT_MISMATCH
        obj = json.loads(text)
        assert obj["w_prep_gates"] == {"closed_form": 28, "built": 32}
        assert obj["qubits"] == {"closed_form": 25, "built": 25}

    @pytest.mark.parametrize("over", [0, 1])
    def test_cap_is_on_the_predicted_gate_total(self, monkeypatch, over):
        monkeypatch.setattr(cli, "BUILD_GATE_CAP", cli._predicted_gates(4) - over)
        _, text = invoke(["counts", "4", "--format", "json"])
        assert json.loads(text)["qubits"]["built"] == (None if over else 25)


class TestRaisedCap:
    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_warns_on_stderr_only(self, mode, capsys):
        _, plain = invoke([mode, "4"])
        assert capsys.readouterr().err == ""
        code, raised = invoke([mode, "4", "--max-n", "7"])
        assert code == cli.EXIT_OK
        assert raised == plain
        assert capsys.readouterr().err == (
            "warning: n up to 7 may need several GB of memory\n"
        )


class TestHugeBoard:
    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_exits_3_without_printing_n_to_the_n(self, mode, no_build, capsys):
        # 2 * 2000**2000 has 6,603 digits, past Python's int-to-str limit.
        code, text = invoke([mode, "2000"])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "error: n=2000 exceeds the simulation cap 6 "
            "(up to 2*2000**2000 transient state terms); raise with --max-n\n"
        )


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

    def test_negative_seed_usage_error(self, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as err:
            cli.main(["sample", "4", "--seed", "-1"], out=out)
        assert err.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert out.getvalue() == captured.out == ""
        assert "--seed must be >= 0, got -1" in captured.err

    def test_over_the_shots_cap_exits_3(self, no_build, capsys):
        code, text = invoke(["sample", "4", "--shots", str(cli.SHOTS_CAP + 1)])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert f"exceeds the sampling cap {cli.SHOTS_CAP}" in capsys.readouterr().err


class TestOracle:
    def test_n5(self):
        code, text = invoke(["oracle", "5", "--format", "json"])
        assert code == 0
        assert len(json.loads(text)["solutions"]) == 10

    def test_text_lines(self):
        _, text = invoke(["oracle", "4"])
        assert '{"n": 4, "cols": [1, 3, 0, 2]}' in text
        assert "total: 2" in text

    def test_over_the_cap_exits_3_without_searching(self, monkeypatch, capsys):
        def refuse(n):
            raise AssertionError(f"searched n={n}")

        monkeypatch.setattr(cli.board, "solve_classical", refuse)
        code, text = invoke(["oracle", str(cli.ORACLE_CAP + 1)])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert capsys.readouterr().err == "error: n=13 exceeds the oracle cap 12\n"

    def test_at_the_cap_searches(self, monkeypatch):
        monkeypatch.setattr(cli.board, "solve_classical", lambda n: [])
        assert invoke(["oracle", str(cli.ORACLE_CAP)]) == (0, "total: 0\n")


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

    def test_over_the_gate_cap_exits_3(self, no_build, capsys):
        code, text = invoke(["export-qasm", "1000"])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert "669166498 gates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "probe, expected",
    [
        pytest.param(
            "import sys, quantum_nqueens.cli; print('scipy' in sys.modules)",
            "False\n",
            id="import",
        ),
        # sample loads only scipy.special, for the chi-square survival function.
        pytest.param(
            "import io, sys, quantum_nqueens.cli as cli; "
            "cli.main(['sample', '4'], out=io.StringIO()); "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)",
            "False True\n",
            id="sample",
        ),
    ],
)
def test_cli_import_does_not_load_scipy(probe, expected):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == expected


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

    def test_format_env_var_outside_choices(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "xml")
        with pytest.raises(SystemExit) as err:
            invoke(["verify", "2"])
        assert err.value.code == cli.EXIT_USAGE
        message = f"{cli.FORMAT_ENV_VAR} must be one of text, json, got 'xml'"
        assert message in capsys.readouterr().err

    def test_format_option_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "xml")
        code, text = invoke(["oracle", "4", "--format", "json"])
        assert code == 0
        assert json.loads(text)["n"] == 4
