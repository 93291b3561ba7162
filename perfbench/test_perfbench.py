"""Tests of the benchmark itself: its checks reject corrupted results, its
inputs follow the seed, and its metric names are well formed.

Run from the repository root: python -m pytest perfbench
"""

import json
import re
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from quantum_nqueens import circuit, qasm, sim  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CircuitExport,
    EngineDense,
    Sample,
    Verify,
    check_identity,
    dense_circuit,
)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_dense_circuit_follows_the_seed():
    assert dense_circuit(7) == dense_circuit(7)
    assert dense_circuit(7) != dense_circuit(8)
    assert {g.kind for g in dense_circuit(7).gates} == {"X", "H", "RY", "CX", "CRY", "CZ", "CCX"}


def test_dense_circuit_has_the_same_gate_mix_for_every_seed():
    kinds = [Counter(g.kind for g in dense_circuit(seed).gates) for seed in (1, 2, 3)]
    assert kinds[0] == kinds[1] == kinds[2]


def test_dense_check_rejects_a_perturbed_amplitude():
    workload = EngineDense(seed=3, random_gates=6)
    rows = sim.readout(workload.op())
    assert check_identity(rows) == []
    label, amp = rows[0]
    assert check_identity([(label, amp * (1 + 1e-6))])
    assert check_identity([(label, amp), (1, 1e-6)])
    assert check_identity([(4, amp)])


def test_dense_circuit_reaches_full_support():
    tracer = Tracer()
    with tracer, tracer.root():
        EngineDense(seed=5, random_gates=0).op()
    assert layer_metrics(tracer.spans)["sim.peak_terms"] == 2**16


def test_verify_check_rejects_a_flipped_ancilla_bit(monkeypatch):
    workload = Verify(seed=0, n=4)
    assert workload.check(workload.op()) == []

    real_run = sim.run

    def run_with_flip(circ, *args, **kwargs):
        state = real_run(circ, *args, **kwargs)
        terms = dict(state.terms)
        label = min(terms)
        terms[label ^ 1 << state.layout.col_anc_qubit(0)] = terms.pop(label)
        return sim.SparseState(layout=state.layout, terms=terms)

    monkeypatch.setattr(sim, "run", run_with_flip)
    failures = workload.check(workload.op())
    assert any("ancilla mismatches" in f for f in failures)


def test_sample_check_rejects_wrong_hits_and_changed_output():
    workload = Sample(seed=11, n=4, shots=4000)
    code, text = workload.op()
    assert workload.check((code, text)) == []
    assert workload.check(workload.op()) == []

    report = json.loads(text)
    report["solution_hits"] = report["shots"] // 2
    assert any("solution hits" in f for f in workload.check((code, json.dumps(report))))
    report = json.loads(text)
    report["distinct_outcomes"] -= 1
    assert any("differs" in f for f in workload.check((code, json.dumps(report))))


@pytest.mark.parametrize("dropped", ["ccx ", "ry(", "measure "])
def test_export_check_rejects_a_dropped_qasm_line(dropped):
    workload = CircuitExport(seed=0, n=5)
    counts_code, counts_text, export_code, text, parsed = workload.op()
    assert workload.check((counts_code, counts_text, export_code, text, parsed)) == []

    lines = text.splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith(dropped)))
    corrupted = "".join(lines)
    result = (counts_code, counts_text, export_code, corrupted, qasm.parse_qasm_subset(corrupted))
    assert workload.check(result)


def test_traced_verify_layers_add_up_to_the_total():
    tracer = Tracer()
    with tracer, tracer.root():
        result = Verify(seed=0, n=4).op()
    assert Verify(seed=0, n=4).check(result) == []
    metrics = layer_metrics(tracer.spans)

    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) | {"wall.op_s", "wall.work_per_s", "trace.overhead_s"} == declared
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    stages = metrics["sim.w_prep_s"] + metrics["sim.column_s"] + metrics["sim.diagonal_s"]
    assert stages == pytest.approx(metrics["sim.gate_sum_s"], rel=1e-9)
    assert metrics["circuit.gates"] == sum(circuit.closed_form_census(4).counts.values())
    assert metrics["sim.final_terms"] == 4**4
    assert metrics["sim.peak_terms"] == 2 * 4**4
    assert metrics["analysis.decodes"] == 2 * 4**4
    assert metrics["board.solutions"] == 2
    # The tracer restores every function it wrapped.
    assert sim.run.__module__ == "quantum_nqueens.sim"


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_copy_is_a_separate_package_that_passes_the_same_checks():
    sys.path.insert(0, str(HERE / "seed"))
    import quantum_nqueens_seed.cli

    assert quantum_nqueens_seed.sim is not sim
    for make, kwargs in ((Verify, {"n": 4}), (Sample, {"n": 4, "shots": 4000}),
                         (EngineDense, {"random_gates": 6}), (CircuitExport, {"n": 5})):
        workload = make(seed=2, pkg=quantum_nqueens_seed, **kwargs)
        assert workload.check(workload.op()) == []


def test_paired_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "circuit-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + 2 * 2  # the warm-up and at least two pairs
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
