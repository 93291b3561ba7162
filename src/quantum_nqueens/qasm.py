"""OpenQASM 2.0 export plus the minimal parser used for round-trip checks.

Exports use a single flat register `q` of Q_total qubits with a comment block
documenting the layout ranges. CRY is not in the baseline qelib1 gate set, so
it is emitted as ry(theta/2) t; cx c,t; ry(-theta/2) t; cx c,t, which is
unitarily equal to the controlled rotation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Circuit, Gate, RegisterLayout, layout


class QasmParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class QasmDocument:
    text: str
    gate_line_count: int


def export_qasm(circuit: Circuit) -> QasmDocument:
    """Serialize a circuit, in canonical gate order, to OpenQASM 2.0."""
    lay = circuit.layout
    n = lay.n
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// n = {n}",
        f"// q[0..{lay.n_system - 1}]: system qubits, cell (r, c) at r*{n}+c",
    ]
    if lay.n_col_anc:
        lines.append(
            f"// q[{lay.n_system}..{lay.n_system + lay.n_col_anc - 1}]: column ancillas"
        )
    if lay.n_diag_anc:
        lines.append(
            f"// q[{lay.n_system + lay.n_col_anc}..{lay.q_total - 1}]: diagonal ancillas"
        )
    lines.append(f"qreg q[{lay.q_total}];")
    lines.append(f"creg c[{lay.q_total}];")

    gate_count = 0
    for g in circuit.gates:
        if g.kind == "CRY":
            ctrl, tgt = g.qubits
            lines.append(f"ry({g.theta / 2.0!r}) q[{tgt}];")
            lines.append(f"cx q[{ctrl}],q[{tgt}];")
            lines.append(f"ry({-g.theta / 2.0!r}) q[{tgt}];")
            lines.append(f"cx q[{ctrl}],q[{tgt}];")
            gate_count += 4
        else:
            name = g.kind.lower()
            args = ",".join(f"q[{q}]" for q in g.qubits)
            if g.theta is not None:
                lines.append(f"{name}({g.theta!r}) {args};")
            else:
                lines.append(f"{name} {args};")
            gate_count += 1
    for q in range(lay.q_total):
        lines.append(f"measure q[{q}] -> c[{q}];")
    return QasmDocument(text="\n".join(lines) + "\n", gate_line_count=gate_count)


_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\((?P<arg>[^)]*)\))?\s*(?P<operands>q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$"
)
_OPERAND_RE = re.compile(r"q\[(\d+)\]")
_QREG_RE = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")
_CREG_RE = re.compile(r"^creg\s+(?P<name>\w+)\[(?P<width>\d+)\]\s*;$")
_MEASURE_RE = re.compile(r"^measure\s+(?P<operands>q\[\d+\])\s*->\s*\w+\[(?P<bit>\d+)\]\s*;$")

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


def parse_qasm_subset(text: str) -> Circuit:
    """Parse text produced by export_qasm back into a Circuit.

    CRY is left in its decomposed ry/cx form (unitarily identical). Anything
    outside the emitted subset raises QasmParseError with the line number.
    A measure's bit must lie in the one declared creg; its name is not checked.
    """
    lay: RegisterLayout | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("//")[0] if "//" in raw else raw).strip()
        if not line:
            continue
        # Gate statements are most of an export, so they are matched first; a
        # line naming a supported gate cannot be any other statement.
        m = _GATE_RE.match(line)
        kind = _PARSE_KINDS.get(m.group("name")) if m else None
        if kind is None:
            if line in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
                continue
            m_qreg = _QREG_RE.match(line)
            if m_qreg:
                if lay is not None:
                    raise QasmParseError(lineno, "second qreg declaration")
                try:
                    q_total = int(m_qreg.group(1))
                except ValueError:  # a width past Python's int-to-str digit limit
                    message = "qreg width does not match any board size"
                    raise QasmParseError(lineno, message) from None
                try:
                    lay = _layout_for_qubits(q_total)
                except ValueError as exc:
                    raise QasmParseError(lineno, str(exc)) from None
                continue
            m_creg = _CREG_RE.match(line)
            if m_creg:
                if creg is not None:
                    raise QasmParseError(lineno, "second creg declaration")
                try:
                    creg = m_creg.group("name"), int(m_creg.group("width"))
                except ValueError:  # a width past Python's int-to-str digit limit
                    raise QasmParseError(lineno, "creg width too large") from None
                continue
            m_measure = _MEASURE_RE.match(line)
            if m_measure is None:
                if not m:
                    raise QasmParseError(lineno, f"unrecognized statement: {line!r}")
                raise QasmParseError(lineno, f"unknown gate {m.group('name')!r}")
            m = m_measure
        if lay is None:
            statement = "measure" if kind is None else "gate statement"
            raise QasmParseError(lineno, f"{statement} before qreg declaration")
        try:
            qubits = tuple(map(int, _OPERAND_RE.findall(m.group("operands"))))
            in_range = max(qubits) < lay.q_total
        except ValueError:  # an index past Python's int-to-str digit limit
            in_range = False
        if not in_range:
            raise QasmParseError(lineno, f"qubit index out of range for qreg q[{lay.q_total}]")
        if kind is None:  # a measure reads its qubit into a bit and adds no gate
            if creg is None:
                raise QasmParseError(lineno, "measure before creg declaration")
            name, width = creg
            try:
                in_range = int(m.group("bit")) < width
            except ValueError:  # an index past Python's int-to-str digit limit
                in_range = False
            if not in_range:
                raise QasmParseError(lineno, f"bit index out of range for creg {name}[{width}]")
            continue
        theta = None
        if m.group("arg") is not None:
            try:
                theta = float(m.group("arg"))
            except ValueError:
                raise QasmParseError(lineno, f"bad angle {m.group('arg')!r}") from None
        try:
            gates.append(Gate(kind, qubits, theta))
        except ValueError as exc:
            raise QasmParseError(lineno, str(exc)) from None
    if lay is None:
        raise QasmParseError(1, "missing qreg declaration")
    return Circuit(layout=lay, gates=tuple(gates))
