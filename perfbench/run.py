"""cagespec benchmark: one workload per run, closed loop, one process, jobs=1.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness gate passed.  Run it from a checkout: the
package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "config.json"

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)

# Printed with the end-to-end metrics but left out of the JSON result: on a
# shared host whose speed switches between two levels every few seconds,
# the median call latency follows the mix of the two from run to run by
# more than any bound the benchmark may set (see README.md).
PRINTED_ONLY = (("op_p50_us", "us"),)

# wall_s is this percentile of the batch wall times: it follows the slower
# of the host's two levels, which nearly every run spends some time in.
WALL_PERCENTILE = 90

# Fresh interpreters timed for setup_s, spread evenly over the measuring
# window so that they meet the same host conditions as the batches, and
# the percentile of their times that setup_s reports, as for wall_s.
SETUP_REPEATS = 10
SETUP_PERCENTILE = 90
# The least number of batches a run measures however short --seconds is.
MIN_BATCHES = 3
# Untimed, checked calls made before measuring, so lazy imports and caches
# settle first.
WARMUP_CALLS = 200
# Call latencies kept for the percentiles.  The store is allocated whole
# before measuring, so peak_rss_mb does not grow with the number of calls
# a faster program makes.
LATENCY_SAMPLES = 1 << 18

# Layers of the group-blind oracle report ms per graph; sweep layers us per spec.
ORACLE_LAYERS = (
    "caysum.cayley_sum_graph",
    "caysum.adjacency_matrix",
    "spectra.character_spectrum",
    "spectra.numeric_spectrum",
    "spectra.eigenvectors",
)

COUNTER_UNITS = {
    "intlinalg.snf.calls": "calls/op",
    "spectra.sum_set_spectrum.pairs": "pairs/op",
    "fullerene.fold_check.vertices": "vertices/op",
}

INPUT_UNITS = {
    "input.specs": "count",
    "input.graphs": "count",
    "input.mean_order": "vertices",
    "input.rank2_share": "share",
    "input.lattice_reuse_share": "share",
    "input.mean_sumset_size": "elements",
}


def self_time_unit(layer: str) -> tuple[str, float]:
    """Unit of a layer's self-time metric and its factor from seconds."""
    return ("ms", 1e3) if layer in ORACLE_LAYERS else ("us", 1e6)


def per_layer_metrics(layers) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for layer in layers:
        unit, _ = self_time_unit(layer)
        out.append((f"{layer}.self_{unit}", unit))
        out.append((f"{layer}.share", "share"))
    out.extend(COUNTER_UNITS.items())
    out.append(("cli.census.rows", "rows/call"))
    out.append(("cli.census.bytes", "bytes/call"))
    out.append(("trace_overhead_share", "share"))
    out.append(("trace.unwrapped_share", "share"))
    out.append(("trace.hooks_missing", "count"))
    out.extend(INPUT_UNITS.items())
    return out


def _import_package():
    """Import the checkout's package from src/, or exit 1 without a result."""
    src = ROOT / "src"
    if not (src / "cagespec" / "__init__.py").is_file():
        sys.exit(f"error: no cagespec package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import the package: {exc}")
    return workloads


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class LatencySample:
    """Call latencies in a fixed-size store: an even share of all calls.

    Every ``stride``-th latency is kept.  When the store fills, every second
    kept value is dropped and the stride doubles, so the store always holds
    an evenly spaced sample of the whole run.
    """

    def __init__(self, capacity: int = LATENCY_SAMPLES) -> None:
        self.capacity = capacity - capacity % 2
        self.values = array("d", [0.0]) * self.capacity
        self.size = 0
        self.seen = 0
        self.stride = 1

    def add(self, seconds: float) -> None:
        if self.seen % self.stride == 0:
            self.values[self.size] = seconds
            self.size += 1
            if self.size == self.capacity:
                half = self.capacity // 2
                self.values[:half] = self.values[::2]
                self.size = half
                self.stride *= 2
        self.seen += 1

    def ascending(self) -> list[float]:
        return sorted(self.values[: self.size])


class Loop:
    """The closed loop: one caller, each call sent when the last returns."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_totals: Counter = Counter()
        self.output_calls = 0

    def _note(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def call(self, arg):
        """Make and check one call; return (result, seconds in the call)."""
        plan = self.plan
        t0 = time.perf_counter()
        try:
            result = plan.call(arg)
        except Exception as exc:  # a failed op is counted, the loop goes on
            seconds = time.perf_counter() - t0
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - t0
            error = plan.check(arg, result)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self._note(error)
        elif plan.output_counts is not None:
            self.output_totals.update(plan.output_counts(result))
            self.output_calls += 1
        return result, seconds

    def warm_up(self, count: int) -> None:
        """Untimed, checked calls so lazy imports and caches settle first."""
        for arg in self.plan.batch_calls(0)[:count]:
            self.call(arg)

    def run_batch(self, calls, latencies: LatencySample | None = None) -> float:
        """Run and check one batch; return its wall time in seconds."""
        tally = self.plan.tally
        tallies: Counter = Counter()
        count = 0
        started = time.perf_counter()
        for arg in calls:
            result, seconds = self.call(arg)
            if latencies is not None:
                latencies.add(seconds)
            count += 1
            if tally is not None and result is not None:
                tallies[tally(result)] += 1
        wall = time.perf_counter() - started
        if self.plan.batch_check is not None:
            for error in self.plan.batch_check(count, tallies):
                self.failed += 1
                self._note(error)
        return wall

    def measure(self, seconds: float, pause=None, pauses: int = 0):
        """Run whole batches, from the first, until ``seconds`` of batches
        have passed and at least MIN_BATCHES ran; return batch walls and
        latencies.  Between batches, ``pause()`` runs ``pauses`` times at
        even steps of the window; the time it takes is not counted."""
        walls: list[float] = []
        latencies = LatencySample()
        done = 0
        while len(walls) < MIN_BATCHES or sum(walls) < seconds:
            if done < pauses and sum(walls) >= done * seconds / pauses:
                pause()
                done += 1
            walls.append(self.run_batch(self.plan.batch_calls(len(walls)), latencies))
        for _ in range(done, pauses):
            pause()
        return walls, latencies


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports cagespec and builds the
    workload's inputs, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    return seconds


def end_to_end(plan, loop: Loop, args) -> dict:
    setup: list[float] = []
    loop.warm_up(WARMUP_CALLS)
    walls, sample = loop.measure(
        args.seconds, lambda: setup.append(measure_setup(args.workload, args.seed)),
        SETUP_REPEATS)
    # read before the figures below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls.sort()
    setup.sort()
    latencies = sample.ascending()
    n = len(latencies)
    tail = plan.tail_percentile
    wall = percentile(walls, WALL_PERCENTILE)
    per_batch = plan.batch * plan.items_per_call
    values = {
        "setup_s": percentile(setup, SETUP_PERCENTILE),
        "wall_s": wall,
        "ops_per_s": per_batch / wall,
        "op_p50_us": percentile(latencies, 50) * 1e6,
        "op_p99_us": percentile(latencies, tail) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"p{SETUP_PERCENTILE} of {len(setup)} fresh interpreters "
                   f"(median {statistics.median(setup):.4g} s; all {' '.join(f'{t:.4f}' for t in setup)})",
        "wall_s": f"p{WALL_PERCENTILE} of {len(walls)} batches of {plan.batch} calls "
                  f"(median {statistics.median(walls):.4g} s)",
        "ops_per_s": f"{per_batch} {plan.item}s per batch at that wall time; "
                     f"{plan.items_per_call * sample.seen / sum(walls):.6g} "
                     f"over all {len(walls)} batches",
        "op_p50_us": f"{n} of {sample.seen} calls sampled; printed only",
        "op_p99_us": f"p{tail} of {n} sampled calls, {n - math.ceil(tail / 100 * n)} beyond it",
        "peak_rss_mb": "max resident set of this process",
    }
    return {name: (values[name], unit, notes[name]) for name, unit in E2E_METRICS + PRINTED_ONLY}


def per_layer(plan, loop: Loop, args) -> dict:
    import spans

    loop.warm_up(WARMUP_CALLS)
    # each batch runs twice, untraced and traced, in alternating order, so
    # the overhead compares identical work under the same host conditions
    tracer = spans.Tracer()
    missing: set[str] = set()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(plain_walls) < MIN_BATCHES or time.perf_counter() < deadline:
        k = len(plain_walls)
        calls = plan.batch_calls(k)
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_run:
                with spans.installed(tracer) as hooks:
                    traced_walls.append(loop.run_batch(calls))
                missing.update(hooks.missing)
            else:
                plain_walls.append(loop.run_batch(calls))
    traced = sum(traced_walls)
    items = len(traced_walls) * plan.batch * plan.items_per_call
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for layer in spans.LAYERS:
        total = self_times.get(layer, 0.0)
        unit, scale = self_time_unit(layer)
        values[f"{layer}.self_{unit}"] = total / items * scale
        values[f"{layer}.share"] = total / traced
    for name in COUNTER_UNITS:
        values[name] = tracer.counters.get(name, 0) / items
    for name in ("cli.census.rows", "cli.census.bytes"):
        values[name] = loop.output_totals[name] / loop.output_calls if loop.output_calls else 0
    values.update(plan.inputs)
    values["trace_overhead_share"] = traced / sum(plain_walls) - 1
    values["trace.unwrapped_share"] = (traced - sum(self_times.values())) / traced
    missing = sorted(missing | tracer.broken_counters)
    values["trace.hooks_missing"] = len(missing)
    notes = {"trace.hooks_missing": "missing: " + (", ".join(missing) or "none")}
    notes["trace_overhead_share"] = (
        f"{len(traced_walls)} batches: traced {traced:.3f} s vs untraced {sum(plain_walls):.3f} s"
    )
    return {
        name: (values[name], unit, notes.get(name, ""))
        for name, unit in per_layer_metrics(spans.LAYERS)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    config = json.loads(CONFIG.read_text())
    plan = workloads.build(args.workload, config, args.seed)
    if args.setup_only:
        return 0

    loop = Loop(plan)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(plan, loop, args)
    correct = loop.failed == 0

    print(f"workload {plan.name}, seed {args.seed}, trace {args.trace}, "
          f"closed loop, 1 process, jobs=1")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:12s} {note}")
    share = loop.failed / loop.attempted if loop.attempted else 1.0
    print(f"  {'failed_share':36s} {share:14.6g} {'share':12s} "
          f"{loop.failed} of {loop.attempted} calls failed a gate")
    for error in loop.errors:
        print(f"  gate failure: {error}")
    if not args.trace:
        for name, value in plan.inputs.items():
            print(f"  {name:36s} {value:14.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if (name, unit) not in PRINTED_ONLY},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
