"""Command-line interface for the quantum N-Queens pipeline.

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error,
3 simulation size cap exceeded, 4 output file cannot be written. All
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, board, circuit, qasm, sim

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

DEFAULT_MAX_N = 6
FORMAT_ENV_VAR = "NQSOLVE_FORMAT"
CLOSED_FORM_CAP = 10**6
BUILT_CENSUS_CAP = 10**3


class ResourceCapError(RuntimeError):
    pass


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        transient = 2 * n**n
        raise ResourceCapError(
            f"n={n} exceeds the simulation cap {max_n} "
            f"(up to {transient} transient state terms); raise with --max-n"
        )


def _board_ascii(b: board.BoardConfig) -> str:
    return "\n".join(
        " ".join("Q" if cell else "." for cell in row) for row in b.cells
    )


def cmd_solve(args: argparse.Namespace, out) -> int:
    _check_cap(args.n, args.max_n)
    if args.max_n > DEFAULT_MAX_N:
        print(
            f"warning: n up to {args.max_n} may need several GB of memory",
            file=sys.stderr,
        )
    report = analysis.verify_against_oracle(args.n)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        if report.quantum_solutions:
            for idx, sol in enumerate(report.quantum_solutions, start=1):
                print(f"solution {idx}: cols={list(sol.cols)}", file=out)
                print(_board_ascii(sol.to_board()), file=out)
                print(file=out)
        else:
            print("no solutions", file=out)
        print(f"success probability: {report.success_probability!r}", file=out)
    return EXIT_OK if report.equal else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace, out) -> int:
    _check_cap(args.n, args.max_n)
    report = analysis.verify_against_oracle(args.n)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(f"n: {report.n}", file=out)
        print(f"equal: {report.equal}", file=out)
        print(f"quantum solutions: {len(report.quantum_solutions)}", file=out)
        print(f"classical solutions: {len(report.classical_solutions)}", file=out)
        print(f"success probability: {report.success_probability!r}", file=out)
        print(f"census ok: {report.census_ok}", file=out)
        print(f"ancilla mismatches: {report.ancilla_mismatches}", file=out)
    ok = report.equal and report.census_ok and report.ancilla_mismatches == 0
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_counts(args: argparse.Namespace, out) -> int:
    n = args.n
    if n > CLOSED_FORM_CAP:
        raise ResourceCapError(f"n={n} exceeds the counts cap {CLOSED_FORM_CAP}")
    predicted = circuit.closed_form_census(n)
    built = [None] * 4
    if n <= BUILT_CENSUS_CAP:
        built_circuit = circuit.build_full_circuit(n)
        census = circuit.gate_census(built_circuit)
        built = [
            built_circuit.layout.q_total,
            census.column_check_gates,
            census.diagonal_ccx,
            sum(len(circuit.build_w_prep(n, r)) for r in range(n)),
        ]
    closed_forms = [
        circuit.qubit_total(n),
        predicted.column_check_gates,
        predicted.diagonal_ccx,
        circuit.w_prep_gate_count(n),
    ]
    names = ["qubits", "column-check gates", "diagonal Toffolis", "W-prep gates"]
    rows = list(zip(names, closed_forms, built))
    mismatch = False
    if args.format == "json":
        payload = {"n": n}
        for name, closed, built_val in rows:
            key = name.replace(" ", "_").replace("-", "_").lower()
            payload[key] = {"closed_form": closed, "built": built_val}
            if built_val is not None and built_val != closed:
                mismatch = True
        print(json.dumps(payload), file=out)
    else:
        print(f"{'quantity':<20} {'closed form':>12} {'built':>12} {'status':>10}", file=out)
        for name, closed, built_val in rows:
            if built_val is None:
                status, built_str = "-", "-"
            elif built_val == closed:
                status, built_str = "MATCH", str(built_val)
            else:
                status, built_str = "MISMATCH", str(built_val)
                mismatch = True
            print(f"{name:<20} {closed:>12} {built_str:>12} {status:>10}", file=out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_sample(args: argparse.Namespace, out) -> int:
    _check_cap(args.n, args.max_n)
    state = sim.run(circuit.build_full_circuit(args.n))
    report = analysis.sampling_report(state, shots=args.shots, seed=args.seed)
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
    solutions = board.solve_classical(args.n)
    if args.format == "json":
        print(
            json.dumps({"n": args.n, "solutions": [list(s.cols) for s in solutions]}),
            file=out,
        )
    else:
        for sol in solutions:
            print(sol.to_json(), file=out)
        print(f"total: {len(solutions)}", file=out)
    return EXIT_OK


def cmd_export_qasm(args: argparse.Namespace, out) -> int:
    doc = qasm.export_qasm(circuit.build_full_circuit(args.n))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(doc.text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.out} ({doc.gate_line_count} gate statements)", file=out)
    else:
        out.write(doc.text)
    return EXIT_OK


def _add_n_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("n", type=int, help="board size (>= 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nqsolve",
        description="Simulate and verify the quantum N-Queens solver circuit.",
    )
    default_format = os.environ.get(FORMAT_ENV_VAR, "text")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p: argparse.ArgumentParser, simulated: bool = False) -> None:
        _add_n_argument(p)
        p.add_argument("--format", choices=("text", "json"), default=default_format)
        if simulated:
            p.add_argument(
                "--max-n",
                type=int,
                default=DEFAULT_MAX_N,
                help=f"simulation size cap (default {DEFAULT_MAX_N})",
            )

    common(sub.add_parser("solve", help="simulate, post-select, and print solutions"), True)
    common(sub.add_parser("verify", help="certify against the classical oracle"), True)
    common(sub.add_parser("counts", help="gate/qubit census vs closed forms"))
    p_sample = sub.add_parser("sample", help="seeded measurement sampling")
    common(p_sample, True)
    p_sample.add_argument("--shots", type=int, default=310)
    p_sample.add_argument("--seed", type=int, default=0)
    common(sub.add_parser("oracle", help="classical backtracking solutions"))
    p_export = sub.add_parser("export-qasm", help="emit OpenQASM 2.0")
    common(p_export)
    p_export.add_argument("-o", "--out", help="output path (default stdout)")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "counts": cmd_counts,
    "sample": cmd_sample,
    "oracle": cmd_oracle,
    "export-qasm": cmd_export_qasm,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error(f"n must be >= 1, got {args.n}")
    if args.mode == "sample" and args.shots < 1:
        parser.error(f"--shots must be >= 1, got {args.shots}")
    try:
        return _COMMANDS[args.mode](args, out)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
