"""The layers the traced run times, and the per-layer metrics it reports.

Each entry wraps one public entry point of the program at every binding
its callers use (see :mod:`perfbench.tracer`).  ``PER_LAYER`` is the one
list of per-layer metric names; ``BENCHMARK.json`` repeats it.
"""

from __future__ import annotations

from .tracer import Tracer

# simulate_spmm / simulate_gemm are imported by value where they are called.
_ENGINE_HOLDERS = ("repro.engine.phasecache", "repro.core.search", "repro.core.omega")


def _count_items(tracer: Tracer, item) -> None:
    tracer.count("generate.candidates")


def _count_granules(tracer: Tracer, series) -> None:
    tracer.count("granules.count", len(series[0]))


def _count_pp(tracer: Tracer, reports) -> None:
    tracer.count("compose.pp.lanes", len(reports))
    tracer.count("compose.pp.granules", sum(r.num_granules for r in reports))


# (layer, target, modules holding a by-value import, count hook)
LAYERS = (
    ("graphs.load", "repro.graphs.datasets:load_dataset",
     ("repro.campaign.scheduler",), None),
    ("generate", "repro.core.enumeration:enumerate_design_space", (), _count_items),
    ("fingerprint", "repro.core.evaluator:FingerprintFactory.fingerprint", (), None),
    ("evaluator", "repro.core.evaluator:DataflowEvaluator.evaluate", (), None),
    ("tile", "repro.core.tiling:choose_tiles", ("repro.core.omega",), None),
    ("engine.spmm", "repro.engine.spmm:simulate_spmm", _ENGINE_HOLDERS, None),
    ("engine.gemm", "repro.engine.gemm:simulate_gemm", _ENGINE_HOLDERS, None),
    ("granules", "repro.core.granularity:granule_series",
     ("repro.core.interphase",), _count_granules),
    ("compose", "repro.core.interphase:_compose_batch", ("repro.core.evaluator",), None),
    ("compose.pp", "repro.core.pipeline:bounded_pipeline_batch",
     ("repro.core.interphase",), _count_pp),
    ("search.select", "repro.core.search:select_pareto_candidates", (), None),
    ("store.open", "repro.analysis.store:ResultStore.__init__", (), None),
    ("store.append", "repro.analysis.store:ResultStore.append", (), None),
    ("store.error", "repro.analysis.store:ResultStore.record_error", (), None),
    ("checkpoint.mark", "repro.campaign.runner:CampaignCheckpoint.mark", (), None),
    ("serving.open", "repro.serving.service:DataflowService.__init__", (), None),
    ("serving.features", "repro.serving.features:graph_features",
     ("repro.serving.service", "repro.serving.index"), None),
    ("serving.lookup", "repro.serving.index:ParetoIndex.lookup", (), None),
    ("serving.live", "repro.serving.service:DataflowService._live_search", (), None),
)

# The benchmark's own phases: their self time is what no layer above
# accounts for.
BENCH_PHASES = ("bench.setup", "bench.pass")

# Counters beyond self time and calls: (name, unit, better).
_EXTRA = (
    ("generate.candidates", "count", "lower"),
    ("evaluator.evaluated", "count", "lower"),
    ("evaluator.errors", "count", "lower"),
    ("evaluator.cache_hits", "count", "higher"),
    ("evaluator.warm_hits", "count", "higher"),
    ("evaluator.persisted", "count", "lower"),
    ("evaluator.ok_ratio", "ratio", "higher"),
    ("phasecache.hits", "count", "higher"),
    ("phasecache.misses", "count", "lower"),
    ("granules.count", "count", "lower"),
    ("compose.pp.lanes", "count", "lower"),
    ("compose.pp.granules", "count", "lower"),
    ("compose.pp.ns_per_granule", "ns", "lower"),
    ("search.probes", "count", "lower"),
    ("search.candidates", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("serving.index_entries", "count", "higher"),
    ("serving.answers.index", "count", "higher"),
    ("serving.answers.live", "count", "lower"),
    ("serving.answers.degraded", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

PER_LAYER = (
    *(
        metric
        for layer, *_ in LAYERS
        for metric in (
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
        )
    ),
    *((f"{phase}.self_s", "s", "lower") for phase in BENCH_PHASES),
    *_EXTRA,
)


def install(tracer: Tracer) -> None:
    """Wrap every layer; :meth:`Tracer.close` removes the wrappers."""
    for layer, target, holders, on_result in LAYERS:
        tracer.patch(target, layer, holders=holders, on_result=on_result)


def per_layer_metrics(tracer: Tracer, counts: dict, wall_s: float, base_wall_s: float) -> dict:
    """``{name: value}`` for every entry of :data:`PER_LAYER`.

    ``counts`` are the traced round's program counters, ``wall_s`` its
    timed pass and ``base_wall_s`` the untraced pass it is compared with.
    """
    layers = tracer.layers()
    values: dict[str, float] = {}
    for name in [layer for layer, *_ in LAYERS] + list(BENCH_PHASES):
        entry = layers.get(name, {"self_s": 0.0, "calls": 0})
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.calls"] = entry["calls"]
    values.update(tracer.counts)
    values.update(counts)
    granules = values.get("compose.pp.granules", 0)
    values["compose.pp.ns_per_granule"] = (
        values["compose.pp.self_s"] / granules * 1e9 if granules else 0.0
    )
    values["trace.wall_s"] = wall_s
    values["trace.overhead_s"] = wall_s - base_wall_s
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
