"""Benchmark of the quantum N-Queens package.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 28 --trace 0

The package is imported from ./src; nothing is installed. One process, one
thread, a closed loop with a single caller: operations run back to back until
`--seconds` have passed, each checked for correctness after it is timed and
each started from a collected heap.

The speed of a shared host drifts by a fifth or more over minutes, so the
wall seconds of one run do not compare with those of another. With
`--trace 0` every operation of the package under test is therefore paired
with the same operation of the frozen seed implementation in
perfbench/seed/, run next to it in the same process, in alternating order.
The drift cancels out of their ratio. The run reports the end-to-end metrics
of BENCHMARK.json:

- op_rel: seconds per operation of the package under test divided by those
  of the seed implementation, median over the pairs.
- peak_rss_mb: peak RSS after a first, untimed operation that warms the
  heap, taken before the seed implementation is loaded, so it is the
  package's alone.
- setup_s: wall seconds for a fresh interpreter to import
  quantum_nqueens.cli, median of SETUP_SAMPLES taken at even intervals
  through the run, so that they see the same host load as the operations.

With `--trace 1` it alternates untraced and traced operations of the package
under test and reports the per-layer metrics: medians over the traced
operations, the wall seconds and work per second of the untraced ones, and
the tracing overhead (median traced minus median untraced time). The spans
of the last traced operation are written to .bench_build/perfbench/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread: pin any BLAS or OpenMP pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MIN_PAIRS = 2
SETUP_SAMPLES = 3
SPANS_DIR = Path(".bench_build") / "perfbench"
HERE = Path(__file__).resolve().parent


def setup_sample(src: Path) -> float:
    """Wall seconds for a fresh interpreter to import quantum_nqueens.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import quantum_nqueens.cli"], env=env, check=True)
    return time.perf_counter() - start


class Runner:
    """Times and checks the operations of one workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run_op(self, tracer=None) -> tuple[float, int] | None:
        """One operation; returns its wall seconds and work count, or None if
        it failed."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                start = time.perf_counter()
                result = self.workload.op()
                elapsed = time.perf_counter() - start
            else:
                with tracer, tracer.root():
                    result = self.workload.op()
                elapsed = tracer.spans[0][2] - tracer.spans[0][1]
            failures = self.workload.check(result)
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if failures:
            print(f"check failed: {'; '.join(failures)}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed, self.workload.work(result)


def measuring(start: float, steps: list[float], seconds: float, min_steps: int) -> bool:
    """True while fewer than `min_steps` steps have run, or another step of
    median length still ends within `seconds` of `start`."""
    if len(steps) < min_steps:
        return True
    return time.perf_counter() - start + statistics.median(steps) <= seconds


def end_to_end(runner: Runner, make_reference, seconds: float, src: Path):
    """Pairs operations of `runner` with those of the seed implementation;
    returns the metrics and the seed implementation's runner."""
    start = time.perf_counter()
    # Warm-up: the first operation also grows the heap, which later ones reuse.
    runner.run_op()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = Runner(make_reference())
    ratios, steps, setups = [], [], []
    while measuring(start, steps, seconds, MIN_PAIRS):
        if len(setups) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setups.append(setup_sample(src))
        step = time.perf_counter()
        # Alternate which side of the pair runs first.
        sides = (runner, reference) if len(steps) % 2 == 0 else (reference, runner)
        times = {side: side.run_op() for side in sides}
        steps.append(time.perf_counter() - step)
        if None not in times.values():
            ratios.append(times[runner][0] / times[reference][0])
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(src))
    metrics = {
        "op_rel": statistics.median(ratios) if ratios else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return metrics, reference


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    from spans import Tracer, layer_metrics

    untraced, rates, traced, steps = [], [], [], []
    last = None
    runner.run_op()  # warm-up, so first-touch memory cost lands in neither series
    start = time.perf_counter()
    while measuring(start, steps, seconds, 1):
        step = time.perf_counter()
        done = runner.run_op()
        if done is not None:
            untraced.append(done[0])
            rates.append(done[1] / done[0])
        tracer = Tracer()
        if runner.run_op(tracer) is not None:
            traced.append(layer_metrics(tracer.spans))
            last = tracer
        steps.append(time.perf_counter() - step)
    if last is not None:
        last.write(spans_path)
    if not traced or not untraced:
        return {}
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["wall.op_s"] = statistics.median(untraced)
    metrics["wall.work_per_s"] = statistics.median(rates)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["wall.op_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "quantum_nqueens" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    # Imported only now: they import the package from ./src.
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    runner = Runner(make(args.seed))
    reference = None
    if args.trace:
        declared = spec["per_layer"]
        spans_path = root / SPANS_DIR / f"spans-{args.workload}.jsonl"
        values = per_layer(runner, args.seconds, spans_path)
    else:
        declared = spec["end_to_end"]

        def make_reference():
            sys.path.insert(0, str(HERE / "seed"))
            import quantum_nqueens_seed.cli

            return make(args.seed, pkg=quantum_nqueens_seed)

        values, reference = end_to_end(runner, make_reference, args.seconds, src)

    names = {metric["name"] for metric in declared}
    if set(values) != names:
        print(f"error: metrics missing {sorted(names - set(values))}, "
              f"undeclared {sorted(set(values) - names)}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }
    runners = [runner] + ([reference] if reference is not None else [])
    failed = sum(r.failed for r in runners)
    result = {
        "correct": failed == 0 and set(values) == names,
        "attempted": sum(r.attempted for r in runners),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
