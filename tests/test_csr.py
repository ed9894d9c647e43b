"""Tests for the CSR graph substrate (construction, batching, conversions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, batch_graphs


class TestConstruction:
    def test_fig3_shape(self, tiny_graph):
        """The paper's Fig. 3 example: V=5, E=11."""
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 11
        assert tiny_graph.num_cols == 5

    def test_fig3_csr_arrays(self, tiny_graph):
        """Fig. 3b: vertex-array [0,2,4,7,9,11], edge-array per row."""
        assert tiny_graph.vertex_ptr.tolist() == [0, 2, 4, 7, 9, 11]
        assert tiny_graph.edge_dst.tolist() == [0, 1, 1, 2, 1, 2, 4, 0, 3, 0, 4]

    def test_neighbors_view(self, tiny_graph):
        assert tiny_graph.neighbors(2).tolist() == [1, 2, 4]
        assert tiny_graph.neighbors(0).tolist() == [0, 1]

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(5)
        with pytest.raises(IndexError):
            tiny_graph.neighbors(-1)

    def test_degrees(self, tiny_graph):
        assert tiny_graph.degrees.tolist() == [2, 2, 3, 2, 2]
        assert tiny_graph.max_degree == 3
        assert tiny_graph.avg_degree == pytest.approx(11 / 5)

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64), 0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.avg_degree == 0.0

    def test_isolated_vertices(self):
        g = CSRGraph.from_edges(4, [(1, 2)])
        assert g.degrees.tolist() == [0, 1, 0, 0]

    def test_dedupe(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_no_dedupe(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1)], dedupe=False)
        assert g.num_edges == 2

    def test_self_loops_added(self):
        g = CSRGraph.from_edges(3, [(0, 1)], add_self_loops=True)
        assert g.num_edges == 4
        assert 0 in g.neighbors(0)

    def test_validation_vertex_ptr_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3, 1]), np.array([0, 1, 2]), 3)

    def test_validation_ptr_start(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]), 2)

    def test_validation_ptr_end(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]), 2)

    def test_validation_dst_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]), 2)

    def test_edge_val_shape_checked(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 1]), np.array([0]), 1, edge_val=np.array([1.0, 2.0])
            )


class TestConversions:
    def test_dense_roundtrip(self, tiny_graph):
        dense = tiny_graph.to_dense()
        back = CSRGraph.from_dense(dense)
        assert back.vertex_ptr.tolist() == tiny_graph.vertex_ptr.tolist()
        assert back.edge_dst.tolist() == tiny_graph.edge_dst.tolist()

    def test_fig3_adjacency_matrix(self, tiny_graph):
        """Fig. 3c's printed adjacency matrix."""
        expected = np.array(
            [
                [1, 1, 0, 0, 0],
                [0, 1, 1, 0, 0],
                [0, 1, 1, 0, 1],
                [1, 0, 0, 1, 0],
                [1, 0, 0, 0, 1],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(tiny_graph.to_dense(), expected)

    def test_scipy_roundtrip(self, er_graph):
        sp = er_graph.to_scipy()
        back = CSRGraph.from_scipy(sp)
        assert back.num_edges == er_graph.num_edges
        np.testing.assert_array_equal(back.edge_dst, er_graph.edge_dst)

    def test_weighted_dense(self):
        m = np.array([[0.0, 2.5], [1.0, 0.0]])
        g = CSRGraph.from_dense(m)
        assert g.edge_val is not None
        np.testing.assert_allclose(g.to_dense(), m)

    def test_gcn_normalization_spectrum(self, er_graph):
        norm = er_graph.with_gcn_normalization()
        # Self loops added: diagonal present.
        dense = norm.to_dense()
        assert np.all(np.diag(dense) > 0)
        # Symmetric normalization preserves symmetry of A + I.
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        # Rows are at most 1 in L1 after normalization-ish (not exact, but
        # the largest eigenvalue of the normalized adjacency is <= 1).
        eig = np.linalg.eigvalsh(dense)
        assert eig.max() <= 1.0 + 1e-9

    def test_gcn_normalization_requires_square(self):
        g = CSRGraph(np.array([0, 1]), np.array([0]), 3)
        with pytest.raises(ValueError):
            g.with_gcn_normalization()

    def test_sparsity_density(self, tiny_graph):
        assert tiny_graph.density == pytest.approx(11 / 25)
        assert tiny_graph.sparsity == pytest.approx(1 - 11 / 25)


class TestBatching:
    def test_block_diagonal(self, tiny_graph):
        batched = batch_graphs([tiny_graph, tiny_graph])
        assert batched.num_vertices == 10
        assert batched.num_edges == 22
        # Second copy's neighbors are offset by 5.
        assert batched.neighbors(7).tolist() == [6, 7, 9]

    def test_batch_preserves_totals(self, er_graph, tiny_graph):
        batched = batch_graphs([er_graph, tiny_graph, er_graph])
        assert batched.num_vertices == 2 * er_graph.num_vertices + 5
        assert batched.num_edges == 2 * er_graph.num_edges + 11

    def test_batch_dense_is_block_diagonal(self, tiny_graph):
        batched = batch_graphs([tiny_graph, tiny_graph])
        dense = batched.to_dense()
        assert np.all(dense[:5, 5:] == 0)
        assert np.all(dense[5:, :5] == 0)
        np.testing.assert_array_equal(dense[5:, 5:], tiny_graph.to_dense())

    def test_batch_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])

    def test_batch_nonsquare_rejected(self):
        g = CSRGraph(np.array([0, 1]), np.array([0]), 3)
        with pytest.raises(ValueError):
            batch_graphs([g])

    def test_batch_weighted_members(self, tiny_graph):
        m = np.array([[0.0, 2.0], [0.5, 0.0]])
        weighted = CSRGraph.from_dense(m)
        batched = batch_graphs([weighted, tiny_graph])
        assert batched.edge_val is not None
        assert batched.num_edges == 2 + 11


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120
    ),
)
def test_from_edges_matches_scipy(n, edges):
    """Property: CSR construction agrees with scipy's for any edge list."""
    from scipy.sparse import coo_matrix

    edges = [(u % n, v % n) for u, v in edges]
    g = CSRGraph.from_edges(n, edges)
    if edges:
        uniq = sorted(set(edges))
        rows = [u for u, _ in uniq]
        cols = [v for _, v in uniq]
        ref = coo_matrix(
            (np.ones(len(uniq)), (rows, cols)), shape=(n, n)
        ).tocsr()
        np.testing.assert_array_equal(g.vertex_ptr, ref.indptr)
        np.testing.assert_array_equal(g.edge_dst, ref.indices)
    else:
        assert g.num_edges == 0


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120
    ),
    add_self_loops=st.booleans(),
    dedupe=st.booleans(),
)
@example(n=4, edges=[], add_self_loops=False, dedupe=True)
@example(n=4, edges=[], add_self_loops=True, dedupe=False)
def test_from_edges_ndarray_matches_tuples(n, edges, add_self_loops, dedupe):
    """Property: an (E, 2) ndarray builds the same CSR as the same edges
    given as a list of tuples, and the array itself is left untouched."""
    edges = [(u % n, v % n) for u, v in edges]
    array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    before = array.copy()
    kwargs = dict(add_self_loops=add_self_loops, dedupe=dedupe)
    want = CSRGraph.from_edges(n, edges, **kwargs)
    got = CSRGraph.from_edges(n, array, **kwargs)
    assert got.vertex_ptr.tobytes() == want.vertex_ptr.tobytes()
    assert got.edge_dst.tobytes() == want.edge_dst.tobytes()
    assert got.num_cols == want.num_cols
    np.testing.assert_array_equal(array, before)


def test_csr_arrays_are_read_only_views():
    """Assigning into a graph's arrays raises; the caller's own arrays
    are frozen only through the graph's views."""
    vptr = np.array([0, 2, 3])
    dst = np.array([0, 1, 1])
    val = np.array([1.0, 2.0, 3.0])
    g = CSRGraph(vptr, dst, 2, edge_val=val)
    for array in (g.vertex_ptr, g.edge_dst, g.edge_val):
        with pytest.raises(ValueError):
            array[0] = 1
    assert vptr.flags.writeable and dst.flags.writeable and val.flags.writeable


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    edges=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
)
def test_degrees_sum_to_edges(n, edges):
    """Property: sum of degrees == nnz for any graph."""
    edges = [(u % n, v % n) for u, v in edges]
    g = CSRGraph.from_edges(n, edges)
    assert int(g.degrees.sum()) == g.num_edges
