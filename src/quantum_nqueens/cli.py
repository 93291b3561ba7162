"""Command-line interface for the quantum N-Queens pipeline.

Exit codes: 0 success/verified, 1 verification mismatch (`solve`/`verify`
unless `VerificationReport.ok`, `counts` unless the built `GateCensus`
equals the closed forms', naming on stderr each per-kind count that
differs), 2 usage error, 3 resource bound exceeded (`solve`/`verify`/`sample`
predicting a peak above MemAvailable, a predicted gate total above
BUILD_GATE_CAP = 10**6 for `export-qasm`, a `counts` board above
CLOSED_FORM_CAP = 10**6, or an `oracle` board above ORACLE_CAP = 12; `counts`
above BUILD_GATE_CAP prints the closed forms unbuilt and exits 0), 4 output
cannot be written (a full or closed stdout, --help output included, a reader
that has gone, or a failed `export-qasm -o`).
--format defaults to $NQSOLVE_FORMAT, else text. All randomness flows from
--seed. Only `solve`, `verify` and `sample` import `analysis` and `sim`, and
with them numpy; no command loads scipy.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from collections import Counter

from . import board, circuit, qasm

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

FORMAT_ENV_VAR = "NQSOLVE_FORMAT"
FORMATS = ("text", "json")
CLOSED_FORM_CAP = 10**6
# Circuits whose closed-form gate total exceeds this are never built.
BUILD_GATE_CAP = 10**6
# RSS above the n=1 run over the 2*n**n terms' bytes: up to 12.6x at n=5, 6.7x at n=6, 4.3x at n=7.
TEMPORARIES = 16
# `sample` RSS above an interpreter that has imported this module, fitted from
# child ru_maxrss: fixed costs of 16.6-20.6 MiB at n=4..7 (numpy about 13 MiB
# of them), rounded up to 24 MiB for other numpy builds, then 45 bytes per
# board at n=5..8 (probability, CDF, searches and counts at 8 bytes each, and
# the ancilla bit planes), and each drawn float.
SAMPLE_FIXED_BYTES = 24 << 20
SAMPLE_BOARD_BYTES = 48
SAMPLE_SHOT_BYTES = 8
# Backtracking grows about 5x per board size (0.6 to 0.8 s at n=12), so larger boards are refused.
ORACLE_CAP = 12
# The `counts` rows: each label and the `GateCensus` total it compares.
CENSUS_ROWS = (
    ("qubits", "qubits"),
    ("column-check gates", "column_check_gates"),
    ("diagonal Toffolis", "diagonal_ccx"),
    ("W-prep gates", "w_prep_gates"),
)


class ResourceCapError(RuntimeError):
    pass


def _available_bytes() -> int:
    """MemAvailable from /proc/meminfo, else physical memory."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith(b"MemAvailable:"))
    except (OSError, StopIteration):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _predicted_bytes(n: int) -> int:
    """Peak bytes of `solve`/`verify`: simulating board n, 2*n**n terms at most."""
    from . import sim  # numpy loads only for the commands that simulate

    words = -(-circuit.closed_form_census(n).qubits // sim.WORD_BITS)
    return 2 * n**n * (8 * words + 16) * TEMPORARIES


def _predicted_sample_bytes(n: int, shots: int) -> int:
    """Peak bytes of `sample`: the planes of board n's n**n boards and `shots` draws."""
    return SAMPLE_FIXED_BYTES + SAMPLE_BOARD_BYTES * n**n + SAMPLE_SHOT_BYTES * shots


def _check_memory(n: int, predicted_bytes) -> None:
    """Refuse board n when `predicted_bytes(n)` is above the available memory."""
    available = _available_bytes()
    # n**n is evaluated only up to n=16: from n=17, n*log2(n) > 64 and no memory
    # holds the terms (past 4,300 digits an int cannot even be printed).
    peak = predicted_bytes(n) if n <= 16 else 2**64
    if peak > available:
        need = f"{peak >> 20} MiB" if n <= 16 else "over 2**64 bytes"
        raise ResourceCapError(f"n={n} predicts {need} at peak; {available >> 20} MiB available")


def _predicted_gates(n: int) -> int:
    """Gate count of the n-circuit from the closed forms, without building it."""
    return sum(circuit.closed_form_census(n).counts.values())


def _board_ascii(cols: tuple[int, ...]) -> str:
    return "\n".join(" ".join("Q" if c == col else "." for c in range(len(cols))) for col in cols)


def cmd_verify(args: argparse.Namespace, out) -> int:
    """Certify board n; `solve` draws the boards, `verify` the fields. Exits by `report.ok`."""
    from . import analysis

    _check_memory(args.n, _predicted_bytes)
    report = analysis.verify_against_oracle(args.n)
    if args.format == "json":
        print(report.to_json(), file=out)
    elif args.mode == "solve":
        for idx, sol in enumerate(report.quantum_solutions, start=1):
            print(f"solution {idx}: cols={list(sol)}\n{_board_ascii(sol)}\n", file=out)
        if not report.quantum_solutions:
            print("no solutions", file=out)
        print(f"success probability: {report.success_probability!r}", file=out)
    else:
        print(f"n: {report.n}", file=out)
        print(f"equal: {report.equal}", file=out)
        print(f"quantum solutions: {len(report.quantum_solutions)}", file=out)
        print(f"classical solutions: {len(report.classical_solutions)}", file=out)
        print(f"success probability: {report.success_probability!r}", file=out)
        print(f"census ok: {report.census_ok}", file=out)
        print(f"ancilla mismatches: {report.ancilla_mismatches}", file=out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_counts(args: argparse.Namespace, out) -> int:
    n = args.n
    if n > CLOSED_FORM_CAP:
        raise ResourceCapError(f"n={n} exceeds the counts cap {CLOSED_FORM_CAP}")
    predicted = circuit.closed_form_census(n)
    built = None
    if _predicted_gates(n) <= BUILD_GATE_CAP:
        built = circuit.gate_census(circuit.build_full_circuit(n))
    rows = [
        (name, getattr(predicted, key), None if built is None else getattr(built, key))
        for name, key in CENSUS_ROWS
    ]
    if args.format == "json":
        payload = {"n": n}
        for name, closed, built_val in rows:
            key = name.replace(" ", "_").replace("-", "_").lower()
            payload[key] = {"closed_form": closed, "built": built_val}
        print(json.dumps(payload), file=out)
    else:
        print(f"{'quantity':<20} {'closed form':>12} {'built':>12} {'status':>10}", file=out)
        for name, closed, built_val in rows:
            built_str = "-" if built_val is None else str(built_val)
            status = "-" if built_val is None else "MATCH" if built_val == closed else "MISMATCH"
            print(f"{name:<20} {closed:>12} {built_str:>12} {status:>10}", file=out)
    if built is None or built == predicted:
        return EXIT_OK
    if built.counts != predicted.counts:  # no row shows a per-kind count, so name them here
        got, want = Counter(built.counts), Counter(predicted.counts)
        diffs = [
            f"{kind} built {got[kind]}, closed form {want[kind]}"
            for kind in dict.fromkeys([*want, *got])
            if got[kind] != want[kind]
        ]
        print(f"census mismatch: {'; '.join(diffs)}", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_sample(args: argparse.Namespace, out) -> int:
    from . import analysis

    _check_memory(args.n, lambda n: _predicted_sample_bytes(n, args.shots))
    report = analysis.sampling_report(args.n, shots=args.shots, seed=args.seed)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(f"n: {report.n}", file=out)
        print(f"shots: {report.shots}", file=out)
        print(f"seed: {report.seed} ({report.rng_algorithm})", file=out)
        print(f"distinct outcomes: {report.distinct_outcomes}", file=out)
        print(f"solution hits: {report.solution_hits}", file=out)
        print(f"chi-square: {report.chi_square!r}", file=out)
        print(f"p-value: {report.p_value!r}", file=out)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace, out) -> int:
    if args.n > ORACLE_CAP:
        raise ResourceCapError(f"n={args.n} exceeds the oracle cap {ORACLE_CAP}")
    solutions = board.solve_classical(args.n)
    if args.format == "json":
        print(json.dumps({"n": args.n, "solutions": solutions}), file=out)
    else:
        for sol in solutions:
            print(json.dumps({"n": args.n, "cols": sol}), file=out)
        print(f"total: {len(solutions)}", file=out)
    return EXIT_OK


def cmd_export_qasm(args: argparse.Namespace, out) -> int:
    gates = _predicted_gates(args.n)
    if gates > BUILD_GATE_CAP:
        raise ResourceCapError(
            f"n={args.n} predicts {gates} gates, over the export cap {BUILD_GATE_CAP}"
        )
    built = circuit.build_full_circuit(args.n)
    # writelines writes each chunk as the generator makes it, not the whole text
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(qasm.export_qasm_chunks(built))
        print(f"wrote {args.out} ({qasm.gate_line_count(built)} gate statements)", file=out)
    else:
        out.writelines(qasm.export_qasm_chunks(built))
    return EXIT_OK


def _stdout():
    """sys.stdout, or OSError when fd 1 was closed before the interpreter started."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _quiet_failed_stdout() -> None:
    """Point fd 1 at the null device if sys.stdout still fails to flush, so
    the interpreter's final flush does not fail again; a stdout that flushes
    is left as it is."""
    if sys.stdout is None:
        return
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own writer drops a failed write, so --help would exit 0
        # with nothing shown; this one raises, and `main` exits 4 as for any write.
        file = file or _stdout()
        file.write(self.format_help())
        file.flush()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nqsolve",
        description="Simulate and verify the quantum N-Queens solver circuit.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(name: str, command, summary: str):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(command=command)
        p.add_argument("n", type=int, help="board size (>= 1)")
        p.add_argument("--format", choices=FORMATS)
        return p

    common("solve", cmd_verify, "simulate, post-select, and print solutions")
    common("verify", cmd_verify, "certify against the classical oracle")
    common("counts", cmd_counts, "gate/qubit census vs closed forms")
    p_sample = common("sample", cmd_sample, "seeded measurement sampling")
    p_sample.add_argument("--shots", type=int, default=310)
    p_sample.add_argument("--seed", type=int, default=0)
    common("oracle", cmd_oracle, "classical backtracking solutions")
    p_export = common("export-qasm", cmd_export_qasm, "emit OpenQASM 2.0")
    p_export.add_argument("-o", "--out", help="output path (default stdout)")
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # --help writes to stdout from in here
        args.format = args.format or os.environ.get(FORMAT_ENV_VAR, "text")
        if args.format not in FORMATS:  # argparse never sees the variable
            parser.error(
                f"{FORMAT_ENV_VAR} must be one of {', '.join(FORMATS)}, got {args.format!r}"
            )
        if args.n < 1:
            parser.error(f"n must be >= 1, got {args.n}")
        if args.mode == "sample" and args.shots < 1:
            parser.error(f"--shots must be >= 1, got {args.shots}")
        if args.mode == "sample" and args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
        out = _stdout() if out is None else out
        code = args.command(args, out)
        out.flush()
        return code
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        _quiet_failed_stdout()
        if not isinstance(exc, BrokenPipeError):  # a reader that left is no error (SIGPIPE)
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
