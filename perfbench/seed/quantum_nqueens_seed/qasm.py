"""OpenQASM 2.0 export plus the minimal parser used for round-trip checks.

Exports use a single flat register `q` of Q_total qubits with a comment block
documenting the layout ranges. CRY is not in the baseline qelib1 gate set, so
it is emitted as ry(theta/2) t; cx c,t; ry(-theta/2) t; cx c,t, which is
unitarily equal to the controlled rotation.
"""

from __future__ import annotations

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


def _format_angle(theta: float) -> str:
    return repr(theta)


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
            half = _format_angle(g.theta / 2.0)
            neg_half = _format_angle(-g.theta / 2.0)
            lines.append(f"ry({half}) q[{tgt}];")
            lines.append(f"cx q[{ctrl}],q[{tgt}];")
            lines.append(f"ry({neg_half}) q[{tgt}];")
            lines.append(f"cx q[{ctrl}],q[{tgt}];")
            gate_count += 4
        else:
            name = g.kind.lower()
            args = ",".join(f"q[{q}]" for q in g.qubits)
            if g.theta is not None:
                lines.append(f"{name}({_format_angle(g.theta)}) {args};")
            else:
                lines.append(f"{name} {args};")
            gate_count += 1
    for q in range(lay.q_total):
        lines.append(f"measure q[{q}] -> c[{q}];")
    return QasmDocument(text="\n".join(lines) + "\n", gate_line_count=gate_count)


_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\((?P<arg>[^)]*)\))?\s*(?P<operands>q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$"
)
_QREG_RE = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")
_CREG_RE = re.compile(r"^creg\s+\w+\[(\d+)\]\s*;$")
_MEASURE_RE = re.compile(r"^measure\s+q\[\d+\]\s*->\s*\w+\[\d+\]\s*;$")

_PARSE_KINDS = {"x": "X", "h": "H", "ry": "RY", "cx": "CX", "cz": "CZ", "ccx": "CCX"}


def _layout_for_qubits(q_total: int) -> RegisterLayout:
    """Recover the board size from the register width."""
    n = 1
    while layout(n).q_total < q_total:
        n += 1
    lay = layout(n)
    if lay.q_total != q_total:
        raise ValueError(f"{q_total} qubits does not match any board size")
    return lay


def parse_qasm_subset(text: str) -> Circuit:
    """Parse text produced by export_qasm back into a Circuit.

    CRY is left in its decomposed ry/cx form (unitarily identical). Anything
    outside the emitted subset raises QasmParseError with the line number.
    """
    lay: RegisterLayout | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line == "OPENQASM 2.0;" or line.startswith("include"):
            continue
        m = _QREG_RE.match(line)
        if m:
            lay = _layout_for_qubits(int(m.group(1)))
            continue
        if _CREG_RE.match(line) or _MEASURE_RE.match(line):
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise QasmParseError(lineno, f"unrecognized statement: {line!r}")
        name = m.group("name")
        if name not in _PARSE_KINDS:
            raise QasmParseError(lineno, f"unknown gate {name!r}")
        if lay is None:
            raise QasmParseError(lineno, "gate statement before qreg declaration")
        qubits = tuple(int(q) for q in re.findall(r"q\[(\d+)\]", m.group("operands")))
        theta = None
        if m.group("arg") is not None:
            try:
                theta = float(m.group("arg"))
            except ValueError:
                raise QasmParseError(lineno, f"bad angle {m.group('arg')!r}") from None
        try:
            gates.append(Gate(_PARSE_KINDS[name], qubits, theta))
        except ValueError as exc:
            raise QasmParseError(lineno, str(exc)) from None
    if lay is None:
        raise QasmParseError(1, "missing qreg declaration")
    return Circuit(layout=lay, gates=tuple(gates))
