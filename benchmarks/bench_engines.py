"""Micro-benchmarks — raw throughput of the cost-model components.

These are genuine pytest-benchmark timings (multiple rounds) of the
library's hot paths: the two tile-level engines, the granule pipeline,
the enumeration, and a full OMEGA layer run.  Useful for tracking model
performance regressions; a full-dataset Fig. 11 sweep is ~60 such runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.omega import run_gnn_dataflow
from repro.core.pipeline import bounded_pipeline_batch
from repro.core.taxonomy import IntraDataflow, Phase, parse_dataflow
from repro.core.workload import GNNWorkload
from repro.engine.gemm import GemmSpec, GemmTiling, simulate_gemm
from repro.engine.spmm import SpmmSpec, SpmmTiling, simulate_spmm
from repro.graphs.generators import preferential_attachment_graph

HW = AcceleratorConfig(num_pes=512)


@pytest.fixture(scope="module")
def big_graph():
    return preferential_attachment_graph(
        np.random.default_rng(0), 4000, 16000
    )


def test_bench_spmm_engine(benchmark, big_graph):
    spec = SpmmSpec(graph=big_graph, feat=512)
    intra = IntraDataflow.parse("VsFsNt", Phase.AGGREGATION)
    res = benchmark(lambda: simulate_spmm(spec, intra, SpmmTiling(4, 128, 1), HW))
    assert res.stats.cycles > 0


def test_bench_gemm_engine(benchmark):
    spec = GemmSpec(rows=4000, inner=512, cols=16)
    intra = IntraDataflow.parse("VsGsFt", Phase.COMBINATION)
    res = benchmark(lambda: simulate_gemm(spec, intra, GemmTiling(32, 1, 16), HW))
    assert res.stats.cycles > 0


def test_bench_full_layer_pp(benchmark, big_graph):
    wl = GNNWorkload(big_graph, in_features=512, out_features=16)
    df = parse_dataflow("PP_AC(VtFsNt, VsGsFt)")
    res = benchmark(lambda: run_gnn_dataflow(wl, df, HW))
    assert res.total_cycles > 0


def test_bench_pipeline_recurrence(benchmark):
    """Fractional times: the granule-by-granule loop."""
    rng = np.random.default_rng(0)
    prod = rng.uniform(1, 10, 5000)
    cons = rng.uniform(1, 10, 5000)
    rep = benchmark(lambda: bounded_pipeline_batch([prod], [cons], depth=2)[0])
    assert rep.num_granules == 5000


def test_bench_pipeline_recurrence_integer(benchmark):
    """Integer times, shaped like Cora's heavy element-granularity lanes
    (producer <= 135 cycles, one constant consumer time): the exact
    (max,+) block kernel."""
    rng = np.random.default_rng(0)
    prod = rng.integers(0, 136, 1 << 20).astype(np.float64)
    cons = np.full(1 << 20, 8.0)
    rep = benchmark(lambda: bounded_pipeline_batch([prod], [cons], depth=2)[0])
    assert rep.num_granules == 1 << 20


def test_bench_design_space_enumeration(benchmark):
    from repro.core.enumeration import count_design_space

    counts = benchmark(count_design_space)
    assert counts["total"] == 6656
