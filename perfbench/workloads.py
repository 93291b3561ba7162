"""The benchmark's workloads and their correctness checks.

A workload is built from the run's seed and a package: the one under test,
or its frozen seed copy that `run.py` times alongside it. `op()` performs one
operation through the package's public functions at their default settings
and returns its raw result; `check(result)` returns the list of failed
checks, judged against references that share no code with what they check
(a hard-coded solution-count table, a queens-placement test written here,
the closed-form census); `work(result)` counts what the operation did for
`work_per_s`.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter

import quantum_nqueens
import quantum_nqueens.cli  # noqa: F401  (the package __init__ does not load cli)
from quantum_nqueens import circuit

# OEIS A000170: number of N-Queens solutions on an n x n board.
A000170 = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92}

# Engine-dense: qubits 0..15 (the system qubits of the n=4 register), an RY
# layer that opens full 2^16 support, then random gates of all seven kinds.
DENSE_N = 4
DENSE_QUBITS = 16
DENSE_RANDOM_GATES = 14
_ARITY = {"X": 1, "H": 1, "RY": 1, "CX": 2, "CRY": 2, "CZ": 2, "CCX": 3}

# verify 6 takes 6 to 11 s on a 2-vCPU Xeon VM, too long to pair often enough
# in one run to be steady; verify 5 runs the same pipeline in about 0.3 s.
VERIFY_N = 5
EXPORT_N = 32
SAMPLE_N = 5
SAMPLE_SHOTS = 20_000
# Solution hits may stray this many binomial standard deviations from the
# mean; a correct engine fails the check about once in 10^9 operations.
HIT_SIGMAS = 6.0
AMP_TOLERANCE = 1e-9


def _run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = pkg.cli.main(argv, out=out)
    return code, out.getvalue()


def is_queens_solution(cols: list[int], n: int) -> bool:
    """One queen per row at column cols[r]; no shared column or diagonal."""
    if sorted(cols) != list(range(n)):
        return False
    return all(
        abs(cols[i] - cols[j]) != j - i for i in range(n) for j in range(i + 1, n)
    )


def check_verify(n: int, code: int, text: str) -> list[str]:
    """`nqsolve verify n --format json` certified the oracle's solution set."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    report = json.loads(text)
    for key in ("equal", "census_ok"):
        if report.get(key) is not True:
            failures.append(f"{key} is {report.get(key)!r}")
    if report.get("ancilla_mismatches") != 0:
        failures.append(f"ancilla mismatches: {report.get('ancilla_mismatches')!r}")
    quantum = report.get("quantum_solutions", [])
    if len(quantum) != A000170[n]:
        failures.append(f"{len(quantum)} quantum solutions, expected {A000170[n]}")
    if len({tuple(s) for s in quantum}) != len(quantum):
        failures.append("repeated quantum solution")
    failures += [f"not a solution: {s}" for s in quantum if not is_queens_solution(s, n)]
    return failures


def check_sample(n: int, shots: int, seed: int, code: int, text: str) -> list[str]:
    """Seeded sampling report: solution hits within a binomial bound of the
    uniform n^n-board distribution."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    report = json.loads(text)
    for key, want in (("n", n), ("shots", shots), ("seed", seed)):
        if report.get(key) != want:
            failures.append(f"{key} is {report.get(key)!r}, expected {want}")
    p = A000170[n] / n**n
    mean = shots * p
    bound = HIT_SIGMAS * math.sqrt(shots * p * (1 - p))
    hits = report.get("solution_hits")
    if not isinstance(hits, int) or abs(hits - mean) > bound:
        failures.append(f"solution hits {hits!r} outside {mean:.1f} +- {bound:.1f}")
    return failures


def check_identity(rows: list[tuple[int, complex]]) -> list[str]:
    """A circuit followed by its inverse leaves exactly |0> with amplitude 1."""
    if len(rows) != 1:
        return [f"{len(rows)} terms remain, expected 1"]
    label, amp = rows[0]
    failures = []
    if label != 0:
        failures.append(f"remaining term is label {label}, expected 0")
    if abs(amp - 1) >= AMP_TOLERANCE:
        failures.append(f"remaining amplitude {amp!r}, expected 1")
    return failures


def expected_qasm_counts(n: int) -> Counter:
    """Gate statements per kind that parsing the export of the n-circuit gives.

    The emitter writes each CRY as ry, cx, ry, cx, and the parser keeps that
    decomposition, so one CRY reads back as two RY and two CX.
    """
    counts = Counter(circuit.closed_form_census(n).counts)
    cry = counts.pop("CRY", 0)
    counts["RY"] += 2 * cry
    counts["CX"] += 2 * cry
    return +counts


def check_export(n: int, result: tuple) -> list[str]:
    """`counts` matched its closed forms, and the exported QASM parses back to
    the closed-form census on a register of the closed-form width."""
    counts_code, counts_text, export_code, text, parsed = result
    failures = []
    if counts_code != 0:
        failures.append(f"counts exit code {counts_code}")
    if export_code != 0:
        failures.append(f"export-qasm exit code {export_code}")
    for row, values in json.loads(counts_text).items():
        if isinstance(values, dict) and values["closed_form"] != values["built"]:
            failures.append(f"counts {row}: built {values['built']} != {values['closed_form']}")
    got = Counter(g.kind for g in parsed.gates)
    want = expected_qasm_counts(n)
    if got != want:
        failures.append(f"parsed gate counts {dict(got)} != {dict(want)}")
    width = circuit.qubit_total(n)
    if parsed.layout.q_total != width:
        failures.append(f"qreg width {parsed.layout.q_total}, expected {width}")
    measures = sum(line.startswith("measure ") for line in text.splitlines())
    if measures != width:
        failures.append(f"{measures} measure statements, expected {width}")
    return failures


def dense_circuit(seed: int, random_gates: int = DENSE_RANDOM_GATES, pkg=quantum_nqueens):
    """Seeded random circuit followed by its inverse, on 16 qubits of layout(4).

    The gate kinds come round-robin and are then shuffled, so every seed
    applies the same number of gates of each kind (2 each at the default
    14) at full support: the seed changes the order, qubits and angles but
    not the amount of work, and runs with different seeds stay comparable.
    """
    Gate = pkg.circuit.Gate
    rng = random.Random(seed)
    gates = [Gate("RY", (q,), rng.uniform(0.3, 2.8)) for q in range(DENSE_QUBITS)]
    kinds = [sorted(_ARITY)[i % len(_ARITY)] for i in range(random_gates)]
    rng.shuffle(kinds)
    for kind in kinds:
        qubits = tuple(rng.sample(range(DENSE_QUBITS), _ARITY[kind]))
        theta = rng.uniform(0.3, 2.8) if kind in ("RY", "CRY") else None
        gates.append(Gate(kind, qubits, theta))
    gates += [g.inverse() for g in reversed(gates)]
    return pkg.circuit.Circuit(layout=pkg.circuit.layout(DENSE_N), gates=tuple(gates))


class Verify:
    """`nqsolve verify 5 --format json`: the input is fixed, the seed unused."""

    def __init__(self, seed: int, n: int = VERIFY_N, pkg=quantum_nqueens) -> None:
        self.n, self.pkg = n, pkg

    def op(self):
        return _run_cli(self.pkg, ["verify", str(self.n), "--format", "json"])

    def check(self, result) -> list[str]:
        return check_verify(self.n, *result)

    def work(self, result) -> int:
        return self.n**self.n  # terms certified


class Sample:
    """`nqsolve sample 5 --shots 20000 --seed <seed>`; every operation of a
    run uses the run's seed, so every output must equal the first."""

    def __init__(
        self, seed: int, n: int = SAMPLE_N, shots: int = SAMPLE_SHOTS, pkg=quantum_nqueens
    ) -> None:
        self.n, self.shots, self.seed, self.pkg = n, shots, seed, pkg
        self.first: str | None = None

    def op(self):
        return _run_cli(
            self.pkg,
            ["sample", str(self.n), "--shots", str(self.shots), "--seed", str(self.seed),
             "--format", "json"],
        )

    def check(self, result) -> list[str]:
        failures = check_sample(self.n, self.shots, self.seed, *result)
        if self.first is None:
            self.first = result[1]
        elif result[1] != self.first:
            failures.append("output differs from the first run with the same seed")
        return failures

    def work(self, result) -> int:
        return self.shots


class EngineDense:
    """`sim.run` on a seeded random circuit and its inverse."""

    def __init__(
        self, seed: int, random_gates: int = DENSE_RANDOM_GATES, pkg=quantum_nqueens
    ) -> None:
        self.circuit = dense_circuit(seed, random_gates, pkg)
        self.pkg = pkg

    def op(self):
        return self.pkg.sim.run(self.circuit)

    def check(self, state) -> list[str]:
        return check_identity(self.pkg.sim.readout(state))

    def work(self, state) -> int:
        return len(self.circuit.gates)  # gate applications


class CircuitExport:
    """`nqsolve counts`, `nqsolve export-qasm` into memory, then parsing it back."""

    def __init__(self, seed: int, n: int = EXPORT_N, pkg=quantum_nqueens) -> None:
        self.n, self.pkg = n, pkg

    def op(self):
        counts_code, counts_text = _run_cli(
            self.pkg, ["counts", str(self.n), "--format", "json"]
        )
        export_code, text = _run_cli(self.pkg, ["export-qasm", str(self.n)])
        return counts_code, counts_text, export_code, text, self.pkg.qasm.parse_qasm_subset(text)

    def check(self, result) -> list[str]:
        return check_export(self.n, result)

    def work(self, result) -> int:
        return 2 * len(result[4].gates)  # gates emitted plus gates parsed


WORKLOADS = {
    "verify-n5": Verify,
    "sample-n5": Sample,
    "engine-dense": EngineDense,
    "circuit-export": CircuitExport,
}
