"""OpenQASM 2.0 export plus the minimal parser used for round-trip checks.

Exports use a single flat register `q` of Q_total qubits with a comment block
documenting the layout ranges. CRY is not in the baseline qelib1 gate set, so
it is emitted as ry(theta/2) t; cx c,t; ry(-theta/2) t; cx c,t, which is
unitarily equal to the controlled rotation. export_qasm_chunks reads the
circuit's columns and yields the text a chunk of whole lines at a time, so a
writer holds one chunk, not the whole text; export_qasm joins the chunks.

The parser takes each line by one of two routes. Gate lines written exactly
as export_qasm writes them are matched a chunk of text at a time and, after
the qreg, converted and checked a run at a time. Every other line takes the
per-line rules, the one owner of the full grammar and the one place that
raises a parse error; a run that fails its checks is handed to them too.
Either way every gate passes Gate's checks, and the first bad line is the
one reported. The gates go straight into the parsed circuit's columns,
their operands as tuples of ints, as the builders make them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator

from .circuit import Circuit, Gate, RegisterLayout, _checked_gates, layout


class QasmParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class QasmDocument:
    text: str
    gate_line_count: int


# One %-template per kind over (angle, *qubits), each a whole line; %r prints
# the angle as repr does.
_STATEMENT = {"X": "x q[%d];\n", "H": "h q[%d];\n", "RY": "ry(%r) q[%d];\n",
              "CX": "cx q[%d],q[%d];\n", "CZ": "cz q[%d],q[%d];\n",
              "CCX": "ccx q[%d],q[%d],q[%d];\n"}
# Gates, or measures, per chunk of the streamed export: at most 4 lines a gate
# (a CRY), so a few hundred KB of text.
_EXPORT_CHUNK = 1 << 13


def export_qasm(circuit: Circuit) -> QasmDocument:
    """Serialize a circuit, in canonical gate order, to OpenQASM 2.0."""
    return QasmDocument(
        text="".join(export_qasm_chunks(circuit)), gate_line_count=gate_line_count(circuit)
    )


def gate_line_count(circuit: Circuit) -> int:
    """Gate statements in the export of circuit: one per gate, four per CRY."""
    return len(circuit) + 3 * circuit._kinds.count("CRY")


def export_qasm_chunks(circuit: Circuit) -> Iterator[str]:
    """The text of export_qasm(circuit), yielded a chunk of whole lines at a
    time: the header, then the gates and the measures _EXPORT_CHUNK at a time."""
    lay = circuit.layout
    n = lay.n
    header = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// n = {n}",
        f"// q[0..{lay.n_system - 1}]: system qubits, cell (r, c) at r*{n}+c",
    ]
    if lay.n_col_anc:
        header.append(
            f"// q[{lay.n_system}..{lay.n_system + lay.n_col_anc - 1}]: column ancillas"
        )
    if lay.n_diag_anc:
        header.append(
            f"// q[{lay.n_system + lay.n_col_anc}..{lay.q_total - 1}]: diagonal ancillas"
        )
    header += [f"qreg q[{lay.q_total}];", f"creg c[{lay.q_total}];", ""]
    yield "\n".join(header)

    kinds, qubits, thetas = circuit._kinds, circuit._qubits, circuit._thetas
    for start in range(0, len(kinds), _EXPORT_CHUNK):
        end = start + _EXPORT_CHUNK
        yield _gate_text(kinds[start:end], qubits[start:end], thetas[start:end])
    for start in range(0, lay.q_total, _EXPORT_CHUNK):
        end = min(start + _EXPORT_CHUNK, lay.q_total)
        yield "".join([f"measure q[{q}] -> c[{q}];\n" for q in range(start, end)])


def _gate_text(kinds: list, qubits: list, thetas: list) -> str:
    """The export lines of a run of gates."""
    if thetas.count(None) == len(thetas):  # no angle: one format over all the operands
        return "".join(map(_STATEMENT.__getitem__, kinds)) % tuple(
            itertools.chain.from_iterable(qubits)
        )
    lines = []
    for kind, qs, theta in zip(kinds, qubits, thetas):
        if theta is None:
            lines.append(_STATEMENT[kind] % qs)
        elif kind == "RY":
            lines.append(_STATEMENT["RY"] % (theta, *qs))
        else:  # CRY as ry(theta/2) t; cx c,t; ry(-theta/2) t; cx c,t
            ry, cx = _STATEMENT["RY"], _STATEMENT["CX"] % qs
            lines += (ry % (theta / 2.0, qs[1]), cx, ry % (-theta / 2.0, qs[1]), cx)
    return "".join(lines)


# (?a) makes \d and \w ASCII-only, so int() never reads another script's digits.
_GATE_RE = re.compile(
    r"(?a)^(?P<name>[a-z]+)\s*(?:\((?P<arg>[^)]*)\))?\s*(?P<operands>q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$"
)
_OPERAND_RE = re.compile(r"(?a)q\[(\d+)\]")
_QREG_RE = re.compile(r"(?a)^qreg\s+q\[(\d+)\]\s*;$")
_CREG_RE = re.compile(r"(?a)^creg\s+(?P<name>\w+)\[(?P<width>\d+)\]\s*;$")
_MEASURE_RE = re.compile(r"(?a)^measure\s+(?P<operands>q\[\d+\])\s*->\s*(?P<reg>\w+)\[(?P<bit>\d+)\]\s*;$")

# A gate line exactly as export_qasm writes it: one space, no comment, an
# angle that float() always reads, operands too short for int()'s digit limit.
# Groups: name, angle, then up to three operands.
_CANONICAL_GATE_RE = re.compile(
    r"(?a)(x|h|ry|cx|cz|ccx)(?:\((-?\d+(?:\.\d+)?(?:e[-+]\d+)?)\))? "
    r"q\[(\d{1,18})\](?:,q\[(\d{1,18})\](?:,q\[(\d{1,18})\])?)?;"
)

_PARSE_KINDS = {"x": "X", "h": "H", "ry": "RY", "cx": "CX", "cz": "CZ", "ccx": "CCX"}


def _layout_for_qubits(q_total: int) -> RegisterLayout:
    """Recover the board size from the register width in O(1).

    The width of an n-board is q = (3n^2 + n - 2)/2, so 24q + 25 = (6n + 1)^2
    and n = (isqrt(24q + 25) - 1) // 6; that n is exact for every real board
    width, and any other width fails the comparison with layout(n).
    """
    n = max(1, (math.isqrt(24 * q_total + 25) - 1) // 6)
    lay = layout(n)
    if lay.q_total != q_total:
        raise ValueError(f"{q_total} qubits does not match any board size")
    return lay


def _int(digits: str, message: str) -> int:
    """int(digits), or ValueError(message) past Python's int-to-str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(message) from None


def _angle(text: str) -> float:
    """A QASM real: what float() reads, but ASCII and with no PEP 515 digit separator."""
    if text.isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            return float(text)
    raise ValueError(f"bad angle {text!r}")


# Characters of text split into lines, and matched, at a time: about 700
# export lines, whose Match objects take about 140 KB at once.
_CHUNK = 1 << 14


def _line_chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """The lines of text.splitlines(), each list with the number of its first
    line, splitting a chunk of at least _CHUNK characters at a time rather
    than the whole text.

    Each chunk ends just after a "\n", and there every line break that
    splitlines() knows ends too, "\r\n" included, so no break spans two
    chunks and the lines and their numbers are the same.
    """
    start, lineno = 0, 1
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        yield lineno, lines
        lineno += len(lines)
        start = end


class _Operands(dict):
    """The int of each operand's digits, made on the first lookup and then
    kept, so the parsed operand tuples share one int per qubit, as the
    builders' do, and digits seen before are not converted again."""

    def __missing__(self, digits: str) -> int:
        self[digits] = value = int(digits)
        return value


def parse_qasm_subset(text: str) -> Circuit:
    """Parse text produced by export_qasm back into a Circuit.

    CRY is left in its decomposed ry/cx form (unitarily identical). Anything
    outside the emitted subset raises QasmParseError with the line number.
    A measure must write a bit of the one declared creg.

    Lines take one of two routes. Each chunk's lines are matched against
    _CANONICAL_GATE_RE in one pass; after the qreg, a run of consecutive
    gate lines written as export_qasm writes them is converted as a whole
    into columns and checked by the builders' column checks, operand range
    included, before it extends the circuit's columns. Every other line, and
    a run that fails a check, goes through the per-line rules, the one place
    that knows the whole grammar and raises an error. Every gate before that
    line has been checked by then, so the first bad line is the one reported.
    """
    lay: RegisterLayout | None = None
    creg: tuple[str, int] | None = None
    columns: tuple[list, list, list] = ([], [], [])  # the circuit's kinds, qubits and thetas
    qubit_of = _Operands()

    def add_run(run: list[re.Match]) -> bool:
        """Add the gates of a run of canonical gate lines, its match groups
        transposed into columns; add nothing and return False if an operand
        is past the qreg or a gate fails a check."""
        names, angles, q0, q1, q2 = zip(*map(re.Match.groups, run))
        qubits = [
            (qubit_of[a], qubit_of[b], qubit_of[c]) if c
            else (qubit_of[a], qubit_of[b]) if b else (qubit_of[a],)
            for a, b, c in zip(q0, q1, q2)
        ]
        kinds = list(map(_PARSE_KINDS.__getitem__, names))
        thetas = [None if angle is None else float(angle) for angle in angles]
        try:
            checked = _checked_gates(kinds, qubits, thetas, lay.q_total)
        except ValueError:  # the per-line rules word the error of the first bad line
            return False
        for column, values in zip(columns, checked):
            column += values
        return True

    def parse_line(lineno: int, raw: str) -> None:
        """The per-line rules: one line of any kind, its error reported at lineno."""
        nonlocal lay, creg
        line = (raw.split("//")[0] if "//" in raw else raw).strip()
        if not line:
            return
        try:
            # A known gate name is no other statement, so gates are matched first.
            m = _GATE_RE.match(line)
            kind = _PARSE_KINDS.get(m["name"]) if m else None
            if kind is None:
                if line in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
                    return
                if m_qreg := _QREG_RE.match(line):
                    if lay is not None:
                        raise ValueError("second qreg declaration")
                    message = "qreg width does not match any board size"
                    lay = _layout_for_qubits(_int(m_qreg[1], message))
                    return
                if m_creg := _CREG_RE.match(line):
                    if creg is not None:
                        raise ValueError("second creg declaration")
                    creg = m_creg["name"], _int(m_creg["width"], "creg width too large")
                    return
                if m:  # no gate line is also a measure: that needs "->"
                    raise ValueError(f"unknown gate {m['name']!r}")
                m = _MEASURE_RE.match(line)
                if m is None:
                    raise ValueError(f"unrecognized statement: {line!r}")
            if lay is None:
                statement = "measure" if kind is None else "gate statement"
                raise ValueError(f"{statement} before qreg declaration")
            try:
                qubits = tuple(map(int, _OPERAND_RE.findall(m["operands"])))
            except ValueError:  # past Python's int-to-str digit limit, so past any qreg
                qubits = (lay.q_total,)
            if max(qubits) >= lay.q_total:
                raise ValueError(f"qubit index out of range for qreg q[{lay.q_total}]")
            if kind is None:  # a measure reads its qubit into a bit and adds no gate
                if creg is None:
                    raise ValueError("measure before creg declaration")
                name, width = creg
                if m["reg"] != name:
                    raise ValueError(f"measure into undeclared creg {m['reg']!r}")
                message = f"bit index out of range for creg {name}[{width}]"
                if _int(m["bit"], message) >= width:
                    raise ValueError(message)
                return
            gate = Gate(kind, qubits, None if m["arg"] is None else _angle(m["arg"]))
            for column, value in zip(columns, gate):
                column.append(value)
        except ValueError as exc:  # every rule above raises a plain ValueError
            raise QasmParseError(lineno, str(exc)) from None

    for first, lines in _line_chunks(text):
        matches = list(map(_CANONICAL_GATE_RE.fullmatch, lines))
        matches.append(None)  # so that every run ends at a None
        i = 0
        while i < len(lines):
            if lay is not None and matches[i] is not None:
                end = matches.index(None, i)
                if not add_run(matches[i:end]):
                    for k in range(i, end):  # raises at the run's first bad line
                        parse_line(first + k, lines[k])
                i = end
            else:
                parse_line(first + i, lines[i])
                i += 1
    if lay is None:
        raise QasmParseError(1, "missing qreg declaration")
    return Circuit._from_columns(lay, *columns)
