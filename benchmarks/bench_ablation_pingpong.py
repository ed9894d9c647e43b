"""Ablation — ping-pong buffer depth (DESIGN.md §6).

The paper fixes PP's intermediate staging at depth 2 (one bank filling,
one draining).  This ablation sweeps the depth: deeper buffers absorb
granule-time variance (the producer can run further ahead) at a linear
capacity cost — quantifying how much the depth-2 choice leaves on the
table for skewed workloads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.arch.config import AcceleratorConfig
from repro.core.granularity import granule_series, make_granule_spec
from repro.core.legality import validate_dataflow
from repro.core.omega import phase_specs
from repro.core.pipeline import bounded_pipeline_batch
from repro.core.taxonomy import parse_dataflow
from repro.core.workload import GNNWorkload
from repro.engine.gemm import GemmTiling, simulate_gemm
from repro.engine.spmm import SpmmTiling, simulate_spmm
from repro.graphs.generators import hub_thread_graph

DEPTHS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def series():
    """Producer/consumer granule series on a skewed (hub) workload."""
    g = hub_thread_graph(np.random.default_rng(0), 1024, 2600, num_hubs=8)
    wl = GNNWorkload(g, in_features=128, out_features=4, name="hubs")
    hw = AcceleratorConfig(num_pes=256)
    df = parse_dataflow("PP_AC(VsFtNt, VsGsFt)")
    spmm_spec, gemm_spec = phase_specs(wl, df.order)
    agg = simulate_spmm(spmm_spec, df.agg, SpmmTiling(16, 1, 1), hw.partition(128))
    cmb = simulate_gemm(gemm_spec, df.cmb, GemmTiling(16, 1, 4), hw.partition(128))
    gran = validate_dataflow(df)
    spec = make_granule_spec(df, wl, gran, agg, cmb)
    return granule_series(df, spec, agg, cmb) + (spec,)


def test_ablation_pingpong_depth(benchmark, series):
    prod, cons, spec = series

    def build():
        return {
            d: bounded_pipeline_batch([prod], [cons], depth=d)[0].total_cycles
            for d in DEPTHS
        }

    cycles = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["depth", "cycles", "vs depth-2", "capacity (elems)"],
            [
                [d, cycles[d], cycles[d] / cycles[2], d * spec.pel]
                for d in DEPTHS
            ],
            title="Ablation — PP ping-pong depth on a hub-skewed graph",
            float_fmt="{:.3f}",
        )
    )
    # Monotone non-increasing; depth 2 captures most of the benefit.
    vals = [cycles[d] for d in DEPTHS]
    assert all(a >= b - 1 for a, b in zip(vals, vals[1:]))
    assert cycles[2] <= cycles[1]
    deep_gain = (cycles[2] - cycles[16]) / cycles[2]
    print(f"\nresidual gain of depth 16 over the paper's depth 2: {deep_gain:.1%}")


def test_ablation_depth_one_serializes(benchmark, series):
    """Depth 1 forces strict alternation: total ~= sum of both series."""
    prod, cons, _ = series
    r = benchmark.pedantic(
        lambda: bounded_pipeline_batch([prod], [cons], depth=1)[0],
        rounds=1,
        iterations=1,
    )
    assert r.total_cycles >= 0.8 * (prod.sum() + cons.sum())
