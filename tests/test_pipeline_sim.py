"""Cross-validation: pipeline recurrence vs discrete-event co-simulation.

Two independent implementations of the PP semantics must agree exactly —
this is the inter-phase analog of the engine/micro-simulator check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import bounded_pipeline
from oracles.pipeline_sim import simulate_pipeline


class TestBasics:
    def test_empty(self):
        trace = simulate_pipeline(np.array([]), np.array([]))
        assert trace.total_time == 0.0

    def test_single(self):
        trace = simulate_pipeline(np.array([2.0]), np.array([3.0]))
        assert trace.total_time == 5.0
        assert trace.max_banks_used == 1

    def test_banks_bounded_by_depth(self):
        p = np.full(20, 1.0)
        c = np.full(20, 10.0)  # slow consumer: producer fills all banks
        trace = simulate_pipeline(p, c, depth=3)
        assert trace.max_banks_used <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_pipeline(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            simulate_pipeline(np.ones(2), np.ones(2), depth=0)
        with pytest.raises(ValueError):
            simulate_pipeline(np.array([-1.0]), np.array([1.0]))


@settings(max_examples=80, deadline=None)
@given(
    times=st.lists(
        st.tuples(st.floats(0.0, 30), st.floats(0.0, 30)),
        min_size=1,
        max_size=40,
    ),
    depth=st.integers(1, 5),
)
def test_recurrence_matches_event_simulation(times, depth):
    """Property: the closed-form recurrence equals the event simulation."""
    p = np.array([t[0] for t in times])
    c = np.array([t[1] for t in times])
    rec = bounded_pipeline(p, c, depth=depth)
    sim = simulate_pipeline(p, c, depth=depth)
    assert sim.total_time == pytest.approx(
        rec.total_cycles, abs=1.01
    )  # recurrence ceils to whole cycles


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(0.1, 20), min_size=2, max_size=30),
)
def test_consume_order_preserved(times):
    """Granules must complete consumption in production order."""
    p = np.array(times)
    sim = simulate_pipeline(p, p[::-1].copy(), depth=2)
    assert np.all(np.diff(sim.consume_done) > -1e-9)
    assert np.all(sim.consume_done >= sim.produce_done - 1e-9)


def test_paper_granule_series_agree(er_graph):
    """End to end: a real PP run's series through both implementations."""
    from repro.arch.config import AcceleratorConfig
    from repro.core.granularity import granule_series, make_granule_spec
    from repro.core.legality import validate_dataflow
    from repro.core.omega import phase_specs
    from repro.core.taxonomy import parse_dataflow
    from repro.core.workload import GNNWorkload
    from repro.engine.gemm import GemmTiling, simulate_gemm
    from repro.engine.spmm import SpmmTiling, simulate_spmm

    wl = GNNWorkload(er_graph, 24, 6)
    hw = AcceleratorConfig(num_pes=64)
    df = parse_dataflow("PP_AC(VsFtNt, VsGsFt)")
    spmm_spec, gemm_spec = phase_specs(wl, df.order)
    agg = simulate_spmm(spmm_spec, df.agg, SpmmTiling(8, 1, 1), hw.partition(32))
    cmb = simulate_gemm(gemm_spec, df.cmb, GemmTiling(4, 1, 6), hw.partition(32))
    spec = make_granule_spec(df, wl, validate_dataflow(df), agg, cmb)
    prod, cons = granule_series(df, spec, agg, cmb)
    rec = bounded_pipeline(prod, cons, depth=2)
    sim = simulate_pipeline(prod, cons, depth=2)
    assert sim.total_time == pytest.approx(rec.total_cycles, abs=1.01)
