"""Tests for the bounded two-stage pipeline (PP recurrence), one lane at a
time through the production kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import bounded_pipeline_batch


def one_lane(p, c, *, depth=2):
    """One candidate through the production batch kernel."""
    return bounded_pipeline_batch([p], [c], depth=depth)[0]


class TestBasics:
    def test_empty(self):
        r = one_lane(np.array([]), np.array([]))
        assert r.total_cycles == 0 and r.num_granules == 0

    def test_single_granule(self):
        r = one_lane(np.array([5.0]), np.array([3.0]))
        assert r.total_cycles == 8  # fill + consume

    def test_producer_bound(self):
        """Slow producer: consumer always waits (Table III sum-of-max)."""
        p = np.full(10, 10.0)
        c = np.full(10, 1.0)
        r = one_lane(p, c)
        assert r.total_cycles == 10 * 10 + 1  # producer stream + last consume
        assert r.consumer_stall > 0
        assert r.producer_stall == 0

    def test_consumer_bound(self):
        p = np.full(10, 1.0)
        c = np.full(10, 10.0)
        r = one_lane(p, c)
        assert r.total_cycles == 1 + 10 * 10  # fill + consumer stream
        assert r.producer_stall > 0  # blocked on ping-pong space

    def test_balanced(self):
        p = np.full(10, 5.0)
        c = np.full(10, 5.0)
        r = one_lane(p, c)
        assert r.total_cycles == 5 + 10 * 5  # fill + steady state

    def test_paper_formula_sum_max(self):
        """Table III: runtime ~= sum(max(t_AGG, t_CMB)_Pel) + fill."""
        rng = np.random.default_rng(0)
        p = rng.uniform(1, 10, 50)
        c = rng.uniform(1, 10, 50)
        r = one_lane(p, c, depth=len(p) + 1)  # unbounded buffer
        upper = np.maximum(p, c).sum() + p[0] + c[-1]
        assert r.total_cycles <= upper + 1


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            one_lane(np.ones(3), np.ones(4))

    def test_negative_times(self):
        with pytest.raises(ValueError):
            one_lane(np.array([-1.0]), np.array([1.0]))

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            one_lane(np.ones(2), np.ones(2), depth=0)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=40
    ),
    depth=st.integers(1, 6),
)
def test_pipeline_bounds(times, depth):
    """Properties: max(sum_p, sum_c) <= total <= sum_p + sum_c."""
    p = np.array([t[0] for t in times])
    c = np.array([t[1] for t in times])
    r = one_lane(p, c, depth=depth)
    lower = max(p.sum(), c.sum())
    upper = p.sum() + c.sum()
    assert lower - 1e-6 <= r.total_cycles <= np.ceil(upper) + 1
    assert r.producer_busy == pytest.approx(p.sum())
    assert r.consumer_busy == pytest.approx(c.sum())


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(
        st.tuples(st.floats(0.1, 20), st.floats(0.1, 20)), min_size=2, max_size=30
    ),
)
def test_deeper_buffers_never_slower(times):
    """Property: increasing ping-pong depth cannot hurt runtime."""
    p = np.array([t[0] for t in times])
    c = np.array([t[1] for t in times])
    prev = None
    for depth in (1, 2, 4, 8):
        total = one_lane(p, c, depth=depth).total_cycles
        if prev is not None:
            assert total <= prev + 1
        prev = total


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(
        st.tuples(st.floats(0.5, 20), st.floats(0.5, 20)),
        min_size=1,
        max_size=25,
    ),
)
def test_unbounded_depth_critical_path(times):
    """Property: with no buffer backpressure the pipeline finishes exactly
    on the two-stage critical path: max_i (sum(p[:i+1]) + sum(c[i:]))."""
    p = np.array([t[0] for t in times])
    c = np.array([t[1] for t in times])
    r = one_lane(p, c, depth=len(p) + 1)
    crit = max(
        p[: i + 1].sum() + c[i:].sum() for i in range(len(p))
    )
    assert r.total_cycles == pytest.approx(crit, abs=1.5)
