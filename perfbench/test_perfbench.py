"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((HERE / "config.json").read_text())

# Sizes small enough for a smoke run; the sweep and census sizes have
# recorded references in config.json.
SMOKE = {
    "verify-sweep": {"max_index": 6},
    "verify-large": {"index_low": 20, "index_high": 30, "sample": 12, "batch": 4},
    "census-dedup": {"max_index": 6},
    "oracle": {"order_low": 4, "order_high": 6, "sumset_high": 2, "batches": 3},
}


def smoke_config() -> dict:
    config = copy.deepcopy(CONFIG)
    for name, sizes in SMOKE.items():
        config[name].update(sizes)
    return config


@pytest.fixture
def short_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_BATCHES", 2)
    monkeypatch.setattr(run, "WARMUP_CALLS", 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_of_each_workload(name, traced, short_run):
    config = smoke_config()
    plan = workloads.build(name, config, seed=3)
    loop = run.Loop(plan)
    args = SimpleNamespace(workload=name, seed=3, seconds=0.0, trace=traced)
    measure = run.per_layer if traced else run.end_to_end
    metrics = measure(plan, loop, args)
    assert loop.failed == 0, loop.errors
    assert loop.attempted >= 2 * plan.batch
    if traced:
        assert metrics["trace.hooks_missing"][0] == 0
        self_times = [metrics[f"{layer}.self_{run.self_time_unit(layer)[0]}"][0]
                      for layer in spans.LAYERS]
        assert all(t >= 0 for t in self_times)
        assert sum(t > 0 for t in self_times) >= 2
        # the self times cover the traced wall time up to the remainder
        # outside every span: the closed loop's own code between calls
        assert 0 <= metrics["trace.unwrapped_share"][0] < 0.2
    else:
        assert all(v > 0 for v, _, _ in metrics.values())


def test_gates_catch_a_wrong_answer():
    config = smoke_config()
    config["references"]["census-dedup"]["6"] = "0" * 64
    plan = workloads.build("census-dedup", config, seed=1)
    loop = run.Loop(plan)
    loop.run_batch(plan.batch_calls(0))
    assert loop.failed == 1 and "sha256" in loop.errors[0]

    plan = workloads.build("verify-sweep", smoke_config(), seed=1)
    loop = run.Loop(plan)
    loop.run_batch(plan.batch_calls(0)[:-1])
    assert loop.failed == 2  # spec count and case histogram


def test_latency_sample_keeps_an_even_share_in_fixed_space():
    sample = run.LatencySample(capacity=8)
    for i in range(40):
        sample.add(float(i))
    assert sample.seen == 40 and len(sample.values) == 8
    # the store filled three times; every 8th call is kept, from the first
    assert sample.stride == 8
    assert sample.ascending() == [0.0, 8.0, 16.0, 24.0, 32.0]


def test_printed_metric_names_equal_benchmark_json():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert list(run.E2E_METRICS) == e2e
    assert run.per_layer_metrics(spans.LAYERS) == layers
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)

    # the command itself, at its real sizes, for the cheapest workload
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "census-dedup",
           "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == e2e


def test_self_time_arithmetic_on_a_hand_built_tree():
    #  0 root  [0, 10]
    #  1   a   [1, 4]       children 3 [2, 3]
    #  2   b   [3.5, 8]     overlaps a's end; union with a covers [1, 8]
    #  3     c [2, 3]
    #  4   d   [9, 12]      runs past the root's end: only [9, 10] counts
    start = [0.0, 1.0, 3.5, 2.0, 9.0]
    end = [10.0, 4.0, 8.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    self_times = spans.span_self_times(start, end, parent)
    assert self_times == pytest.approx([10 - 7 - 1, 3 - 1, 4.5, 1.0, 3.0])
    names = ["root", "layer"]
    totals = spans.aggregate_self_times(names, [0, 1, 1, 1, 1], start, end, parent)
    assert totals == pytest.approx({"root": 2.0, "layer": 2 + 4.5 + 1 + 3})


def test_tracer_records_nesting_and_restores_targets():
    import cagespec.fullerene as fullerene

    original = fullerene.verify_spec
    tracer = spans.Tracer()
    hooks = spans.HOOKS + (spans.Hook("gone", "cagespec.fullerene", "no_such_layer"),
                           spans.Hook("gone.module", "cagespec.no_such_module", "f"))
    with spans.installed(tracer, hooks) as installed:
        fullerene.verify_spec(fullerene.TriangleSpec(6, 2, -2, 6, 1, 0))
    assert fullerene.verify_spec is original
    assert installed.missing == ["gone", "gone.module"]
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "fullerene.verify_spec"
    assert "fullerene.fold_check" in names and "intlinalg.snf" in names
    assert all(p == -1 for i, p in enumerate(tracer.parent) if names[i] == "fullerene.verify_spec")
    assert tracer.counters["fullerene.fold_check.vertices"] == 40


def test_run_without_the_package_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
