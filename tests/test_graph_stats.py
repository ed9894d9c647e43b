"""Tests for degree statistics and the lock-step inflation metric."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph
from repro.graphs.stats import classify_category, graph_stats, lockstep_inflation


class TestGraphStats:
    def test_basic(self, tiny_graph):
        s = graph_stats(tiny_graph)
        assert s.num_vertices == 5
        assert s.num_edges == 11
        assert s.max_degree == 3
        assert s.avg_degree == pytest.approx(2.2)

    def test_empty(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64), 0)
        s = graph_stats(g)
        assert s.num_vertices == 0 and s.degree_cv == 0.0

    def test_cv_heavy_tail(self, skewed_graph, uniform_graph):
        assert graph_stats(skewed_graph).degree_cv > graph_stats(uniform_graph).degree_cv

    def test_as_dict(self, tiny_graph):
        d = graph_stats(tiny_graph).as_dict()
        assert d["V"] == 5 and d["max_deg"] == 3

    def test_cached_on_the_graph(self, skewed_graph):
        """Computed once per graph; equal to a fresh computation on an
        uncached copy of the same arrays."""
        s = graph_stats(skewed_graph)
        assert graph_stats(skewed_graph) is s
        fresh = CSRGraph(
            skewed_graph.vertex_ptr.copy(),
            skewed_graph.edge_dst.copy(),
            skewed_graph.num_cols,
        )
        assert graph_stats(fresh) == s


class TestLockstepInflation:
    def test_tv1_no_inflation(self, skewed_graph):
        """With one vertex lane there is nothing to stall."""
        assert lockstep_inflation(skewed_graph, t_v=1) == pytest.approx(1.0)

    def test_uniform_graph_low_inflation(self, uniform_graph):
        assert lockstep_inflation(uniform_graph, t_v=16) < 1.6

    def test_skewed_graph_high_inflation(self, skewed_graph):
        """Evil rows stall lock-step tiles (paper §V-B1)."""
        assert lockstep_inflation(skewed_graph, t_v=16) > 2.0

    def test_monotone_in_tv_for_skew(self, skewed_graph):
        a = lockstep_inflation(skewed_graph, t_v=4)
        b = lockstep_inflation(skewed_graph, t_v=32)
        assert b >= a * 0.9  # roughly monotone

    def test_tn_reduces_steps_not_ratio_guarantee(self, skewed_graph):
        # sanity: valid value with T_N > 1
        v = lockstep_inflation(skewed_graph, t_v=8, t_n=4)
        assert v >= 1.0

    def test_invalid_tiles(self, tiny_graph):
        with pytest.raises(ValueError):
            lockstep_inflation(tiny_graph, t_v=0)
        with pytest.raises(ValueError):
            lockstep_inflation(tiny_graph, t_v=1, t_n=0)


@settings(max_examples=40, deadline=None)
@given(
    degs=st.lists(st.integers(0, 40), min_size=1, max_size=64),
    t_v=st.integers(1, 16),
    t_n=st.integers(1, 8),
)
def test_inflation_at_least_one(degs, t_v, t_n):
    """Property: lock-step inflation >= 1 for every degree profile."""
    n = len(degs)
    vptr = np.concatenate([[0], np.cumsum(degs)]).astype(np.int64)
    dst = np.zeros(int(vptr[-1]), dtype=np.int64)
    g = CSRGraph(vptr, dst, max(1, n))
    if g.num_edges == 0:
        return
    assert lockstep_inflation(g, t_v=t_v, t_n=t_n) >= 1.0 - 1e-9


class TestClassify:
    def test_he(self, rng):
        from repro.graphs.generators import clique_union_graph

        g = clique_union_graph(rng, 40, 800)
        assert classify_category(g, 64) == "HE"

    def test_hf(self, uniform_graph):
        assert classify_category(uniform_graph, 4000) == "HF"

    def test_lef(self, uniform_graph):
        assert classify_category(uniform_graph, 32) == "LEF"
