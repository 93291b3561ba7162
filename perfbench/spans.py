"""In-memory span tracing around the package's public functions.

Spans are recorded from the benchmark's side only. While a `Tracer` is
installed, each function in `WRAPPED` is replaced by a module attribute that
records a span (name, start, end, parent, info) around the original call, so
every call the package makes through that attribute is seen. A function that
a later version removes or stops calling records no spans; its metrics read
0 and the time moves into the caller's self time instead of being
misattributed.

`layer_metrics` turns the spans of one traced operation into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from quantum_nqueens import analysis, board, circuit, cli, qasm, sim

ROOT = "bench.op"
SPLIT_KINDS = ("H", "RY", "CRY")
GATE_KINDS = ("X", "H", "RY", "CX", "CRY", "CZ", "CCX")
LAYERS = ("bench", "cli", "circuit", "sim", "analysis", "board", "qasm")


# (module, attribute, info taken from the call's positional arguments and result)
WRAPPED = (
    (cli, "main", None),
    (circuit, "build_full_circuit", lambda args, r: len(r.gates)),
    (circuit, "gate_census", None),
    (circuit, "closed_form_census", None),
    (sim, "run", lambda args, r: [args[0].layout.n, len(args[0].gates), len(r)]),
    (sim, "apply_gate", lambda args, r: [args[1].kind, len(args[0]), len(r)]),
    (sim, "readout", None),
    (sim, "sample", None),
    (analysis, "verify_against_oracle", None),
    (analysis, "decode", None),
    (analysis, "ancilla_truth", None),
    (analysis, "postselect_solutions", None),
    (analysis, "sampling_report", None),
    (board, "solve_classical", lambda args, r: len(r)),
    (qasm, "export_qasm", lambda args, r: len(r.text)),
    (qasm, "parse_qasm_subset", None),
)


class Tracer:
    """Records spans while installed: `with Tracer() as tr, tr.root(): op()`."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, info or None].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, info in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(f"{layer}.{attr}", fn, info))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                try:
                    span[4] = info(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # an API the info reader no longer matches: no counts
            return result

        return traced

    @contextmanager
    def root(self):
        """Span that encloses one operation."""
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "info": info}
                    )
                    + "\n"
                )


def _stage_bounds(n: int, n_gates: int) -> tuple[int, int] | None:
    """Gate-index ends of the W-prep and column stages of the N-Queens circuit,
    from the closed-form counts; None when `n_gates` is not that circuit."""
    if n_gates != sum(circuit.closed_form_census(n).counts.values()):
        return None
    w_prep = circuit.w_prep_gate_count(n)
    return w_prep, w_prep + circuit.column_check_gate_count(n)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one root span)."""
    dur = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]] += dur[i]

    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, _, _) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur[i] - children[i]

    gate_s = dict.fromkeys(GATE_KINDS, 0.0)
    stage_s = {"w_prep": 0.0, "column": 0.0, "diagonal": 0.0}
    gate_index: Counter = Counter()
    bounds: dict[int, tuple[int, int] | None] = {}
    peak = updates = split_in = split_out = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        if name != "sim.apply_gate" or info is None:
            continue
        kind, terms_in, terms_out = info
        gate_s[kind] += dur[i]
        peak = max(peak, terms_out)
        updates += terms_in
        if kind in SPLIT_KINDS:
            split_in += 2 * terms_in
            split_out += terms_out
        if parent not in bounds:
            run = spans[parent] if parent >= 0 else None
            ok = run is not None and run[0] == "sim.run" and run[4] is not None
            bounds[parent] = _stage_bounds(run[4][0], run[4][1]) if ok else None
        if bounds[parent] is not None:
            w_end, column_end = bounds[parent]
            k = gate_index[parent]
            stage = "w_prep" if k < w_end else "column" if k < column_end else "diagonal"
            stage_s[stage] += dur[i]
        gate_index[parent] += 1

    def info_sum(name: str, pick=lambda info: info) -> int:
        return sum(pick(s[4]) for s in spans if s[0] == name and s[4] is not None)

    check_s = sum(
        dur[i]
        for i, (name, _, _, parent, _) in enumerate(spans)
        if name in ("analysis.decode", "analysis.ancilla_truth")
        and parent >= 0
        and spans[parent][0] == "analysis.verify_against_oracle"
    )

    metrics = {
        "circuit.build_s": total["circuit.build_full_circuit"],
        "circuit.census_s": total["circuit.gate_census"] + total["circuit.closed_form_census"],
        "circuit.gates": info_sum("circuit.build_full_circuit"),
        "sim.run_s": total["sim.run"],
        "sim.gate_sum_s": total["sim.apply_gate"],
        "sim.w_prep_s": stage_s["w_prep"],
        "sim.column_s": stage_s["column"],
        "sim.diagonal_s": stage_s["diagonal"],
        "sim.peak_terms": peak,
        "sim.final_terms": info_sum("sim.run", lambda info: info[2]),
        "sim.term_updates": updates,
        "sim.split_survival": split_out / split_in if split_in else 0.0,
        "sim.readout_s": total["sim.readout"],
        "sim.sample_s": total["sim.sample"],
        "analysis.check_s": check_s,
        "analysis.postselect_s": total["analysis.postselect_solutions"],
        "analysis.decodes": calls["analysis.decode"],
        "analysis.sampling_report_s": total["analysis.sampling_report"],
        "board.oracle_s": total["board.solve_classical"],
        "board.solutions": info_sum("board.solve_classical"),
        "qasm.export_s": total["qasm.export_qasm"],
        "qasm.parse_s": total["qasm.parse_qasm_subset"],
        "qasm.bytes": info_sum("qasm.export_qasm"),
        "trace.total_s": total[ROOT],
        "trace.spans": len(spans),
    }
    metrics.update({f"sim.gate_s.{kind}": gate_s[kind] for kind in GATE_KINDS})
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return metrics
