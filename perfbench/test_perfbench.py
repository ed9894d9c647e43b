"""Tests of the benchmark's inputs and tracer: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import repro.core.interphase as interphase
import repro.core.pipeline as pipeline
from perfbench import layers, workloads
from perfbench.tracer import Tracer
from repro import (
    AcceleratorConfig,
    DataflowEvaluator,
    InterPhase,
    load_dataset,
    workload_from_dataset,
)
from repro.core.enumeration import design_space_stream

ROOT = Path(__file__).resolve().parents[1]


def _plan_key(plan: workloads.ServePlan):
    cold = {
        key: (graph.vertex_ptr.tolist(), graph.edge_dst.tolist(), f, g, pes)
        for key, (graph, f, g, pes) in plan.cold.items()
    }
    return plan.near_seeds, cold, plan.schedule


def test_serve_plan_is_a_pure_function_of_the_seed():
    first = _plan_key(workloads.serve_plan(3))
    assert _plan_key(workloads.serve_plan(3)) == first
    other = _plan_key(workloads.serve_plan(4))
    assert other[1] != first[1]  # other cold graphs
    assert other[2] != first[2]  # another query order


def test_serve_plan_mix_is_the_same_for_every_seed():
    for seed in (0, 1, 12345):
        plan = workloads.serve_plan(seed)
        kinds = Counter(kind for kind, *_ in plan.schedule)
        assert kinds == {"exact": 10206, "near": 567, "cold": 576}
        cold = Counter(key for kind, key, *_ in plan.schedule if kind == "cold")
        assert len(cold) == 36 and set(cold.values()) == {16}
        assert all(1 <= s <= workloads.NEAR_SEEDS for s in plan.near_seeds.values())


def _tiny_run() -> list:
    """24 PP points of the design space for Mutag on 64 PEs."""
    wl = workload_from_dataset(load_dataset("mutag"))
    with DataflowEvaluator(wl, AcceleratorConfig(num_pes=64)) as ev:
        stream = design_space_stream(ev)
        pp = [c for c in stream if c.dataflow.inter is InterPhase.PP][:24]
        return [(o.fingerprint, o.cycles) for o in ev.evaluate(pp)]


def _traced_tiny_run() -> tuple[Tracer, list]:
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        out = _tiny_run()
    return tracer, out


def test_wrappers_are_removed_after_the_traced_run():
    tracer, traced = _traced_tiny_run()
    recorded = len(tracer.spans)
    assert recorded > 0
    assert interphase.bounded_pipeline_batch is pipeline.bounded_pipeline_batch
    assert _tiny_run() == traced
    assert len(tracer.spans) == recorded


def test_nested_self_times_add_up():
    tracer, _ = _traced_tiny_run()
    spans = tracer.spans
    pp_parents = {spans[parent][0] for name, _, _, parent in spans if name == "compose.pp"}
    assert pp_parents == {"compose"}
    by_layer = tracer.layers()
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert abs(sum(e["self_s"] for e in by_layer.values()) - roots) < 1e-9
    compose = [i for i, span in enumerate(spans) if span[0] == "compose"]
    compose_children = sum(
        end - start for _, start, end, parent in spans if parent in compose
    )
    compose_total = sum(spans[i][2] - spans[i][1] for i in compose)
    assert abs(by_layer["compose"]["self_s"] - (compose_total - compose_children)) < 1e-9
    assert by_layer["compose.pp"]["calls"] > 0
    assert tracer.counts["compose.pp.lanes"] > 0


def slow_items(n: int):
    for i in range(n):
        time.sleep(0.01)
        yield i


def test_generator_spans_cover_iteration_not_creation():
    with Tracer() as tracer:
        tracer.patch(f"{__name__}:slow_items", "gen")
        items = slow_items(3)
        time.sleep(0.2)
        assert tracer.spans == []
        resumed = time.perf_counter()
        assert list(items) == [0, 1, 2]
    assert slow_items.__name__ == "slow_items" and not hasattr(slow_items, "__wrapped__")
    assert [span[0] for span in tracer.spans] == ["gen"] * 4  # 3 items + the end
    assert all(start >= resumed for _, start, _, _ in tracer.spans)
    assert tracer.layers()["gen"]["self_s"] < 0.2  # the wait before next()


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(layers.PER_LAYER)


def test_error_buckets_group_the_unrealizable_points():
    texts = [
        "ValueError: tile T_V=1 contradicts annotation s",
        "ValueError: tile T_F=128 contradicts annotation t",
    ]
    assert len({workloads.error_bucket(t) for t in texts}) == 1
