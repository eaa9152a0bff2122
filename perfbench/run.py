"""Benchmark of the multistack package, one workload per run.

    python3 perfbench/run.py --workload stress-check --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the root of
the checkout; perfbench/README.md explains them.  The package is imported
from src/ of the same checkout, never from anywhere else.  The run prints
what it measured, one metric per line, and then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, and every span is written to perfbench/out/.

Exit codes: 0 when a result was printed (correct=false still exits 0),
2 when the package or BENCHMARK.json cannot be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import REF_SPIN_S, HostSpeed, sampling

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("live-contended", "stress-check", "explore-2x2")
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# ...and is at most p99: above it, explore-2x2's 82,536 samples leave one
# GC pause or host preemption, which moved that figure by 37% between runs.
TAIL_CAP = 99
PROBE_SECONDS = 0.3
# The workload-specific names a reader looks for, printed beside the
# end-to-end metric each one is.
ALIASES = {
    "live-contended": {"live_ops_per_s": "ops_per_s"},
    "stress-check": {"verdict_s_p50": "item_s_p50", "verdict_s_tail": "item_s_tail"},
    "explore-2x2": {},
}


def set_up(workload: str, seed: int, size_name: str):
    """Import the package and the workloads afresh and draw the inputs.
    Returns (perf_counter at the start, seconds taken, workloads module, inputs)."""
    for name in list(sys.modules):
        if name in ("multistack", "workloads", "tracing") or name.startswith("multistack."):
            del sys.modules[name]
    started = time.perf_counter()
    workloads = importlib.import_module("workloads")
    size = getattr(workloads, size_name)
    inputs = workloads.prepare(workload, seed, size)
    seconds = time.perf_counter() - started
    origin = Path(sys.modules["multistack"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"multistack was imported from {origin}, not from {SRC}")
    return started, seconds, workloads, inputs


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile up to
    TAIL_CAP with at least TAIL_BEYOND samples above it, or the maximum of
    a short list."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = min(n - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100))
    return ordered[rank - 1], 100 * rank / n, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def measure(
    workload: str, seed: int, seconds: float, trace: bool, spec: dict, size_name: str = "FULL"
) -> dict:
    """Run one workload; returns the result object and the report lines."""
    lines = [
        f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"host: {sys.implementation.name} {sys.version.split()[0]}, nproc {os.cpu_count()}, "
        f"GIL {'on' if getattr(sys, '_is_gil_enabled', lambda: True)() else 'off'}",
    ]
    speed = None if trace else HostSpeed()
    setups = []  # (started, seconds)
    with sampling(speed):
        for _ in range(1 if trace else SETUP_REPEATS):
            started, setup_s, workloads, inputs = set_up(workload, seed, size_name)
            setups.append((started, setup_s))
    size = getattr(workloads, size_name)

    if not trace:
        outcome = workloads.run(workload, inputs, size, seconds, OUT, speed)
        # Every timing is corrected for the host's speed (hostspeed.py); the
        # wall-clock figures are printed beside the metrics.
        samples = [speed.correct(*item) for item in zip(outcome.starts, outcome.samples)]
        setup_times = [speed.correct(*setup) for setup in setups]
        p_tail, percentile, beyond = tail(samples)
        n = len(samples)
        values = {
            "ops_per_s": outcome.ops / math.fsum(samples),
            "item_s_p50": statistics.median(samples),
            "item_s_tail": p_tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        wall_p_tail = tail(outcome.samples)[0]
        details = {
            "ops_per_s": f"{outcome.ops} ops in {math.fsum(samples):.3f} s of {n} {outcome.item}; "
            f"wall clock {outcome.ops / math.fsum(outcome.samples)}",
            "item_s_p50": f"median of {n} {outcome.item}; "
            f"wall clock {statistics.median(outcome.samples)}",
            "item_s_tail": f"p{percentile:.2f} of {n} {outcome.item}, {beyond} beyond it; "
            f"wall clock {wall_p_tail}",
            "setup_s": f"median of {len(setups)} imports plus input generation; "
            f"wall clock {statistics.median(s for _, s in setups)}",
        }
        lines.append(
            f"host speed: {len(speed.spins)} spins, median {statistics.median(speed.spins)} s "
            f"against {REF_SPIN_S} s quiet"
        )
        wanted = spec["end_to_end"]
        for alias, metric in ALIASES[workload].items():
            lines.append(f"{alias} = {values[metric]} ({metric}: {details[metric]})")
    else:
        tracer = workloads.Tracer()
        outcome = workloads.run_traced(workload, inputs, size, seconds, OUT, tracer)
        values = dict(outcome.layers)
        values["relaxed_stack.cas_us"] = statistics.median(workloads.cas_us() for _ in range(5))
        details = {}
        # A layer this workload bypasses gets its numbers from a small traced
        # run of the workload that uses it, so every layer is always timed.
        for other in WORKLOADS:
            if other == workload:
                continue
            probe = workloads.run_traced(
                other, workloads.prepare(other, seed, workloads.TINY), workloads.TINY,
                PROBE_SECONDS, OUT, workloads.Tracer(),
            )
            outcome.absorb_checks(probe)
            for name, value in probe.layers.items():
                if name not in values:
                    values[name] = value
                    details[name] = f"from a small {other} probe"
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        written = tracer.write(span_file)
        lines.append(f"spans: {written} written to {span_file.relative_to(ROOT)}")
        lines.append(
            f"tracing overhead: {values['trace.overhead_pct']:.1f}% per item ({outcome.item}), "
            "traced against untraced in this run"
        )
        wanted = spec["per_layer"]

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            details[name] = "not measured: the layer function is gone"
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        note = f"  ({details[name]})" if name in details else ""
        lines.append(f"{name} = {value} {metric['unit']}{note}")
    lines.extend(outcome.notes)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"fail_ratio = {outcome.failed}/{outcome.attempted} = {ratio}")
    lines.extend(f"FAILED: {problem}" for problem in outcome.problems[:10])
    return {
        "lines": lines,
        "result": {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "STACK_SEED" in os.environ:
        # cli.main lets STACK_SEED override --seed, which would make every
        # stress-check history the same one; the benchmark owns the seed.
        del os.environ["STACK_SEED"]
        print("note: STACK_SEED was set and has been cleared", file=sys.stderr)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except ImportError as exc:
        print(f"error: cannot import multistack from {SRC}: {exc}", file=sys.stderr)
        return 2
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
