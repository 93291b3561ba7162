import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quantum_nqueens import analysis, circuit, cli, sim
from quantum_nqueens.analysis import OutcomeRecord, encode
from quantum_nqueens.qasm import parse_qasm_subset

GOLDEN = Path(__file__).parent / "golden" / "cli"


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


@pytest.fixture
def budget(monkeypatch):
    """Set the memory the bound compares with, in bytes."""

    def set_budget(available):
        monkeypatch.setattr(cli, "_available_bytes", lambda: available)

    return set_budget


def predicted(mode, n):
    """The bound's prediction for `mode` on board n at the default 310 shots."""
    return cli._predicted_sample_bytes(n, 310) if mode == "sample" else cli._predicted_bytes(n)


def over_budget_message(n, predicted, available):
    return f"error: n={n} predicts {predicted >> 20} MiB at peak; {available >> 20} MiB available\n"


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

    def test_cap_exceeded(self, no_build, capsys):
        # 2 * 17**17 terms are past any memory.
        code, text = invoke(["solve", "17"])
        assert code == cli.EXIT_RESOURCE
        assert text == ""
        assert capsys.readouterr().err.startswith("error: n=17 predicts over 2**64 bytes at peak; ")

    def test_lowered_cap_blocks(self, budget, no_build, capsys):
        budget(2**20)
        code, text = invoke(["solve", "5"])
        assert code == cli.EXIT_RESOURCE
        assert text == ""
        assert capsys.readouterr().err == over_budget_message(5, cli._predicted_bytes(5), 2**20)


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


class TestOneVerdict:
    """`solve` and `verify` exit by the same verdict, so each failed check fails both."""

    @pytest.fixture
    def flipped_ancilla(self, monkeypatch):
        # Board (0, 0, 0, 0) reads column ancillas (0, 0, 0); with the first
        # flipped to 1 it is still no solution, so only the ancilla check fails.
        real_run = sim.run

        def run(circ):
            state = real_run(circ)
            terms = dict(state.terms)
            label = encode(OutcomeRecord((0,) * 4, (0,) * 3, (1,) * 6), state.layout)
            terms[label ^ 1 << state.layout.col_anc_qubit(0)] = terms.pop(label)
            return sim.SparseState(state.layout, terms)

        monkeypatch.setattr(sim, "run", run)

    @pytest.fixture
    def x_pair(self, monkeypatch):
        # An X; X pair leaves the state unchanged, so only the census fails.
        real_build = circuit.build_full_circuit

        def build(n):
            built = real_build(n)
            return circuit.Circuit(built.layout, built.gates + (circuit.Gate("X", (0,)),) * 2)

        monkeypatch.setattr(circuit, "build_full_circuit", build)

    @pytest.mark.parametrize("mode", ["verify", "solve"])
    def test_ancilla_mismatch_exits_1(self, mode, flipped_ancilla):
        code, text = invoke([mode, "4", "--format", "json"])
        assert code == cli.EXIT_MISMATCH
        obj = json.loads(text)
        assert obj["equal"] is True and obj["census_ok"] is True
        assert obj["ancilla_mismatches"] == 1

    @pytest.mark.parametrize("mode", ["verify", "solve"])
    def test_census_mismatch_exits_1(self, mode, x_pair):
        code, text = invoke([mode, "4", "--format", "json"])
        assert code == cli.EXIT_MISMATCH
        obj = json.loads(text)
        assert obj["equal"] is True and obj["ancilla_mismatches"] == 0
        assert obj["census_ok"] is False


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

    def test_exits_3_only_past_the_counts_cap(self, no_build, capsys):
        code, text = invoke(["counts", str(cli.CLOSED_FORM_CAP)])
        assert code == cli.EXIT_OK
        assert all(row.split()[-2:] == ["-", "-"] for row in text.splitlines()[1:])
        code, text = invoke(["counts", str(cli.CLOSED_FORM_CAP + 1)])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert capsys.readouterr().err == f"error: n={cli.CLOSED_FORM_CAP + 1} exceeds the counts cap {cli.CLOSED_FORM_CAP}\n"

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

    def test_qubits_mismatch_is_seen_by_counts_and_verify(self, monkeypatch):
        real_total = circuit.qubit_total
        monkeypatch.setattr(circuit, "qubit_total", lambda n: real_total(n) + 1)
        code, text = invoke(["counts", "4"])
        assert code == cli.EXIT_MISMATCH
        status = {row[:20].strip(): row.split()[-1] for row in text.splitlines()[1:]}
        assert status == {
            "qubits": "MISMATCH",
            "column-check gates": "MATCH",
            "diagonal Toffolis": "MATCH",
            "W-prep gates": "MATCH",
        }
        code, text = invoke(["verify", "4", "--format", "json"])
        assert code == cli.EXIT_MISMATCH
        assert json.loads(text)["census_ok"] is False

    def test_per_kind_mismatch_exits_1_under_four_match_rows(self, monkeypatch, capsys):
        build = circuit.build_full_circuit

        def padded(n):
            built = build(n)
            extra = (circuit.Gate("X", (0,)), circuit.Gate("X", (0,)))
            return circuit.Circuit(built.layout, built.gates + extra)

        monkeypatch.setattr(circuit, "build_full_circuit", padded)
        code, text = invoke(["counts", "4"])
        assert code == cli.EXIT_MISMATCH
        assert text == (GOLDEN / "counts_4.out").read_text()
        assert capsys.readouterr().err == "census mismatch: X built 12, closed form 10\n"

    @pytest.mark.parametrize("over", [0, 1])
    def test_cap_is_on_the_predicted_gate_total(self, monkeypatch, over):
        monkeypatch.setattr(cli, "BUILD_GATE_CAP", cli._predicted_gates(4) - over)
        _, text = invoke(["counts", "4", "--format", "json"])
        assert json.loads(text)["qubits"]["built"] == (None if over else 25)


class TestMemoryBound:
    """solve, verify and sample refuse a predicted peak above the available memory."""

    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_over_budget_exits_3_before_building(self, mode, budget, no_build, capsys):
        peak = predicted(mode, 4)
        budget(peak - 1)
        code, text = invoke([mode, "4"])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert capsys.readouterr().err == over_budget_message(4, peak, peak - 1)

    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_runs_at_the_budget(self, mode, budget, capsys):
        _, plain = invoke([mode, "4"])
        budget(predicted(mode, 4))
        code, text = invoke([mode, "4"])
        assert code == cli.EXIT_OK
        assert text == plain
        assert capsys.readouterr().err == ""

    def test_shots_alone_push_sample_over_budget(self, budget, capsys):
        budget(cli._predicted_sample_bytes(4, 310))
        assert invoke(["sample", "4", "--shots", "310"])[0] == cli.EXIT_OK
        code, text = invoke(["sample", "4", "--shots", "311"])
        assert code == cli.EXIT_RESOURCE
        assert text == ""
        assert capsys.readouterr().err.count("\n") == 1

    def test_sample_prediction_grows_8_bytes_per_shot(self):
        assert cli._predicted_sample_bytes(5, 1000) - cli._predicted_sample_bytes(5, 0) == 8_000

    def test_sample_8_fits_7_gb_and_sample_9_does_not(self, budget, monkeypatch, capsys):
        class Reached(Exception):
            pass

        def reached(n, shots, seed):
            raise Reached(n)

        monkeypatch.setattr(analysis, "sampling_report", reached)
        budget(7 * 10**9)
        with pytest.raises(Reached):
            invoke(["sample", "8", "--shots", "100000"])
        code, text = invoke(["sample", "9"])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        peak = cli._predicted_sample_bytes(9, 310)
        assert capsys.readouterr().err == over_budget_message(9, peak, 7 * 10**9)

    @pytest.mark.parametrize(
        "meminfo, expected",
        [
            (b"MemTotal:  16 kB\nMemFree:  8 kB\nMemAvailable:  7 kB\n", 7 * 1024),
            (b"MemTotal:  16 kB\nMemFree:  8 kB\n", None),
            (FileNotFoundError, None),
        ],
        ids=["mem-available", "no-mem-available-line", "no-meminfo"],
    )
    def test_budget_reads_mem_available_else_physical_memory(self, monkeypatch, meminfo, expected):
        def fake_open(path, *args):
            assert path == "/proc/meminfo"
            if meminfo is FileNotFoundError:
                raise FileNotFoundError(path)
            return io.BytesIO(meminfo)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert cli._available_bytes() == (physical if expected is None else expected)

    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_max_n_is_a_usage_error(self, mode):
        with pytest.raises(SystemExit) as err:
            invoke([mode, "4", "--max-n", "7"])
        assert err.value.code == cli.EXIT_USAGE


class TestHugeBoard:
    @pytest.mark.parametrize("mode", ["solve", "verify", "sample"])
    def test_exits_3_without_printing_n_to_the_n(self, mode, no_build, capsys):
        # 2 * 2000**2000 has 6,603 digits, past Python's int-to-str limit, and
        # 10**9 ** 10**9 could not be computed at all.
        for n in (2000, 10**9):
            start = time.perf_counter()
            code, text = invoke([mode, str(n)])
            assert time.perf_counter() - start < 1.0
            assert code == cli.EXIT_RESOURCE == 3
            assert text == ""
            err = capsys.readouterr().err
            assert err.startswith(f"error: n={n} predicts over 2**64 bytes at peak; ")
            assert err.endswith(" MiB available\n") and err.count("\n") == 1


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

    def test_reads_planes_not_the_engine_state(self, monkeypatch):
        _, plain = invoke(["sample", "5", "--shots", "2000", "--seed", "7"])

        def refuse(circuit):
            raise AssertionError("sim.run called")

        monkeypatch.setattr(sim, "run", refuse)
        assert invoke(["sample", "5", "--shots", "2000", "--seed", "7"]) == (0, plain)

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
        # 10**12 shots would hold 8 TB of draws.
        start = time.perf_counter()
        code, text = invoke(["sample", "4", "--shots", str(10**12)])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert capsys.readouterr().err.startswith(
            f"error: n=4 predicts {cli._predicted_sample_bytes(4, 10**12) >> 20} MiB at peak; "
        )


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

    def test_unwritable_path_leaves_a_redirected_stdout_alone(self, tmp_path, capsys):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["export-qasm", "2", "-o", str(tmp_path / "missing" / "x.qasm")])
            print("after")
        assert code == cli.EXIT_IO
        assert printed.getvalue() == "after\n"
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_path_leaves_stdout_open_for_the_caller(self, tmp_path):
        probe = "import sys, quantum_nqueens.cli as cli\nprint('after', cli.main(sys.argv[1:]))\n"
        path = tmp_path / "missing" / "x.qasm"
        result = subprocess.run(
            [sys.executable, "-c", probe, "export-qasm", "2", "-o", str(path)],
            env=child_env(), capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout) == (0, f"after {cli.EXIT_IO}\n")
        assert "cannot write" in result.stderr

    def test_over_the_gate_cap_exits_3(self, no_build, capsys):
        code, text = invoke(["export-qasm", "1000"])
        assert code == cli.EXIT_RESOURCE == 3
        assert text == ""
        assert "669166498 gates" in capsys.readouterr().err


def child_env():
    """The environment for a child interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


RUN = "import io, quantum_nqueens.cli as cli\nassert cli.main({!r}, out=io.StringIO()) == 0"


@pytest.mark.parametrize(
    "setup, loaded",
    [
        pytest.param("import quantum_nqueens", [], id="package"),
        pytest.param("import quantum_nqueens.cli", [], id="import"),
        pytest.param(RUN.format(["counts", "8"]), [], id="counts"),
        pytest.param(RUN.format(["export-qasm", "5"]), [], id="export-qasm"),
        pytest.param(RUN.format(["oracle", "6"]), [], id="oracle"),
        pytest.param(RUN.format(["verify", "4"]), ["numpy"], id="verify"),
        # sample's p-value comes from the pure-Python chi-square tail, not scipy.
        pytest.param(RUN.format(["sample", "4"]), ["numpy"], id="sample"),
    ],
)
def test_cli_import_does_not_load_scipy(setup, loaded):
    """No command loads scipy, and neither the import nor a command that never
    simulates loads numpy."""
    probe = (
        f"{setup}\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.partition('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == loaded


@pytest.mark.parametrize("n", [4, 7])  # the fixed term dominates at n=4, the boards at n=7
def test_sample_peak_stays_under_the_prediction(n):
    probe = (
        "import io, resource, sys, quantum_nqueens.cli as cli\n"
        "if sys.argv[1:]: cli.main(sys.argv[1:], out=io.StringIO())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    kib = [
        int(
            subprocess.run(
                [sys.executable, "-c", probe, *argv],
                env=child_env(), capture_output=True, text=True, check=True,
            ).stdout
        )
        for argv in ([], ["sample", str(n), "--shots", "100000"])
    ]
    # ru_maxrss is in KiB on Linux; the first child only imports the CLI.
    assert (kib[1] - kib[0]) * 1024 <= cli._predicted_sample_bytes(n, 100_000)


class TestClosedStdout:
    class Unwritable(io.StringIO):
        def __init__(self, error):
            super().__init__()
            self.error = error

        def write(self, text):
            raise self.error

    @pytest.mark.parametrize(
        "error, err",
        [
            pytest.param(BrokenPipeError(errno.EPIPE, "Broken pipe"), "", id="reader-gone"),
            pytest.param(
                OSError(errno.ENOSPC, "disk full"),
                f"error: cannot write output: [Errno {errno.ENOSPC}] disk full\n",
                id="full",
            ),
        ],
    )
    def test_exits_4_without_traceback(self, error, err, capsys):
        assert cli.main(["oracle", "10"], out=self.Unwritable(error)) == cli.EXIT_IO == 4
        assert capsys.readouterr().err == err

    def test_reader_gone_before_the_final_flush(self):
        # oracle 4 fits in the stdout buffer, so nothing is written before the
        # final flush, long after the read end is closed here.
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        child = subprocess.Popen(
            [sys.executable, "-m", "quantum_nqueens.cli", "oracle", "4"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (cli.EXIT_IO, "")

    # oracle 10 (36 kB) fails while the command prints, --help while the
    # arguments are parsed, the others at the final flush.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "4"],
            ["export-qasm", "4"],
            ["verify", "4"],
            ["sample", "4"],
            ["oracle", "10"],
            ["--help"],
            ["verify", "--help"],
        ],
        ids="-".join,
    )
    def test_full_stdout_exits_4(self, argv):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "quantum_nqueens.cli", *argv],
                env=child_env(), stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert result.returncode == cli.EXIT_IO
        no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert result.stderr == f"error: cannot write output: {no_space}\n"

    def test_closed_stdout_exits_4(self):
        result = subprocess.run(
            ["sh", "-c", '"$0" -m quantum_nqueens.cli oracle 4 >&-', sys.executable],
            env=child_env(), capture_output=True, text=True,
        )
        assert result.returncode == cli.EXIT_IO
        closed = f"[Errno {errno.EBADF}] stdout is closed"
        assert result.stderr == f"error: cannot write output: {closed}\n"


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

    def test_format_env_var_is_read_on_every_call(self, monkeypatch):
        cli.build_parser.cache_clear()  # so the parser is built under the first value
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        assert json.loads(invoke(["oracle", "4"])[1])["solutions"] == [[1, 3, 0, 2], [2, 0, 3, 1]]
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "text")
        assert invoke(["oracle", "4"])[1].endswith("total: 2\n")

    def test_one_parser_serves_every_call(self, monkeypatch):
        cli.build_parser.cache_clear()
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        invoke(["oracle", "4"])
        monkeypatch.delenv(cli.FORMAT_ENV_VAR)
        invoke(["counts", "4"])
        assert cli.build_parser.cache_info().misses == 1

    def test_format_option_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "xml")
        code, text = invoke(["oracle", "4", "--format", "json"])
        assert code == 0
        assert json.loads(text)["n"] == 4
