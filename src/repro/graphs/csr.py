"""Compressed Sparse Row (CSR) graph substrate.

The paper (§II-A, Fig. 3) represents the adjacency matrix of the input graph
in CSR format: a ``vertex_ptr`` array of length ``V + 1`` and an
``edge_dst`` array of length ``E`` holding, back-to-back, the neighbor lists
of every vertex.  All Aggregation-phase engines in :mod:`repro.engine`
consume this structure; everything is backed by NumPy arrays so degree
statistics and per-vertex cost formulas vectorize.

Self-loops are ordinary edges here (GCN normally adds them explicitly), and
edge weights are optional — the dataflow cost model only depends on the
sparsity *pattern*, but weights are carried for functional verification
against the NumPy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CSRGraph", "batch_graphs"]


def _frozen(array, dtype) -> np.ndarray:
    """A read-only contiguous view of ``array``: one graph is shared by
    every consumer of a dataset, so none may write into it in place.  The
    caller's own array object keeps its flags."""
    view = np.ascontiguousarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CSRGraph:
    """An adjacency matrix in CSR form.

    Parameters
    ----------
    vertex_ptr:
        ``int64`` array of length ``num_vertices + 1``; row ``v`` owns
        edge slots ``vertex_ptr[v]:vertex_ptr[v + 1]``.
    edge_dst:
        ``int64`` array of length ``num_edges`` with destination (column)
        indices, i.e. the neighbor IDs aggregated into each vertex.
    num_cols:
        Number of columns of the adjacency matrix.  For an ordinary square
        graph this equals ``num_vertices``; kept separate so sliced /
        rectangular operands (paper Fig. 3's ``V*``) are expressible.
    edge_val:
        Optional ``float64`` edge weights (e.g. the symmetric-normalized
        GCN coefficients).  ``None`` means all-ones.
    name:
        Optional human-readable label used in reports.
    """

    vertex_ptr: np.ndarray
    edge_dst: np.ndarray
    num_cols: int
    edge_val: np.ndarray | None = None
    name: str = ""

    def __post_init__(self) -> None:
        vp = _frozen(self.vertex_ptr, np.int64)
        ed = _frozen(self.edge_dst, np.int64)
        object.__setattr__(self, "vertex_ptr", vp)
        object.__setattr__(self, "edge_dst", ed)
        if vp.ndim != 1 or vp.size < 1:
            raise ValueError("vertex_ptr must be a 1-D array of length >= 1")
        if vp[0] != 0:
            raise ValueError("vertex_ptr must start at 0")
        if ed.ndim != 1:
            raise ValueError("edge_dst must be a 1-D array")
        if vp[-1] != ed.size:
            raise ValueError(
                f"vertex_ptr[-1] ({int(vp[-1])}) must equal len(edge_dst) ({ed.size})"
            )
        if np.any(np.diff(vp) < 0):
            raise ValueError("vertex_ptr must be non-decreasing")
        if self.num_cols < 0:
            raise ValueError("num_cols must be non-negative")
        if ed.size and (ed.min() < 0 or ed.max() >= self.num_cols):
            raise ValueError("edge_dst entries must lie in [0, num_cols)")
        if self.edge_val is not None:
            ev = _frozen(self.edge_val, np.float64)
            if ev.shape != ed.shape:
                raise ValueError("edge_val must match edge_dst in shape")
            object.__setattr__(self, "edge_val", ev)

    # ------------------------------------------------------------------
    # Basic shape/degree accessors
    # ------------------------------------------------------------------
    def _cached(self, key: str, compute):
        """Memoize a ptr-derived view on this (frozen, immutable) graph.

        The cost model re-reads ``degrees``/``max_degree`` once per
        candidate, so derived views are computed once and pinned.
        """
        cache = self.__dict__.get("_derived")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_derived", cache)
        if key not in cache:
            value = compute()
            if isinstance(value, np.ndarray):
                # Shared across every consumer: an in-place mutation would
                # silently corrupt all later reads, so freeze it.
                value.setflags(write=False)
            cache[key] = value
        return cache[key]

    @property
    def num_vertices(self) -> int:
        """Number of rows of the adjacency matrix."""
        return int(self.vertex_ptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of stored non-zeros (directed edge endpoints)."""
        return int(self.edge_dst.size)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree (row nnz) per vertex as a cached ``int64`` vector
        (treat as read-only)."""
        return self._cached("degrees", lambda: np.diff(self.vertex_ptr))

    @property
    def avg_degree(self) -> float:
        """Mean row nnz; 0.0 for an empty graph."""
        return float(self.num_edges / self.num_vertices) if self.num_vertices else 0.0

    @property
    def max_degree(self) -> int:
        """Largest row nnz (the paper's "evil row" when far above the mean)."""
        return self._cached(
            "max_degree",
            lambda: int(self.degrees.max()) if self.num_vertices else 0,
        )

    @property
    def pattern_digest(self) -> str:
        """Content hash of the sparsity pattern (``vertex_ptr`` +
        ``edge_dst``), cached per instance.

        Everything the cost model computes depends only on this pattern —
        the evaluator's workload signatures and the session's
        :class:`~repro.engine.tilestats.TileStatsRegistry` both key on it,
        so independently-loaded copies of one dataset dedup exactly.
        """

        def compute() -> str:
            import hashlib

            digest = hashlib.sha256(self.vertex_ptr.tobytes())
            digest.update(self.edge_dst.tobytes())
            return digest.hexdigest()[:16]

        return self._cached("pattern_digest", compute)

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree (column nnz) per destination, cached.

        This is the consumer-side view the CA-pipeline weighting reads
        (edges destined to each intermediate row)."""
        return self._cached(
            "in_degrees",
            lambda: np.bincount(self.edge_dst, minlength=self.num_cols),
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor IDs of vertex ``v`` (a view, not a copy)."""
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.edge_dst[self.vertex_ptr[v] : self.vertex_ptr[v + 1]]

    def values(self, v: int) -> np.ndarray:
        """Edge weights of vertex ``v`` (all-ones when unweighted)."""
        lo, hi = self.vertex_ptr[v], self.vertex_ptr[v + 1]
        if self.edge_val is None:
            return np.ones(int(hi - lo), dtype=np.float64)
        return self.edge_val[lo:hi]

    @property
    def density(self) -> float:
        """nnz / (rows * cols); the paper quotes >99% *sparsity* for graphs."""
        cells = self.num_vertices * self.num_cols
        return float(self.num_edges / cells) if cells else 0.0

    @property
    def sparsity(self) -> float:
        """1 - density, matching the paper's ">99% sparsity" phrasing."""
        return 1.0 - self.density

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        num_vertices: int,
        edges: np.ndarray | Iterable[tuple[int, int]],
        *,
        num_cols: int | None = None,
        add_self_loops: bool = False,
        dedupe: bool = True,
        name: str = "",
    ) -> "CSRGraph":
        """Build a CSR graph from ``(src, dst)`` pairs.

        ``edges`` is an ``(E, 2)`` integer ndarray, used as it is (never
        written to), or any iterable of pairs.  Edges are sorted by
        (src, dst); duplicates are removed when ``dedupe`` (the adjacency
        matrix is 0/1 structural).
        """
        cols = num_vertices if num_cols is None else num_cols
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if add_self_loops:
            loops = np.stack(
                [np.arange(num_vertices, dtype=np.int64)] * 2, axis=1
            )
            pairs = np.concatenate([pairs, loops], axis=0)
        if pairs.size:
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
            if dedupe:
                keep = np.ones(len(pairs), dtype=bool)
                keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
                pairs = pairs[keep]
        src = pairs[:, 0] if pairs.size else np.empty(0, dtype=np.int64)
        dst = pairs[:, 1] if pairs.size else np.empty(0, dtype=np.int64)
        counts = np.bincount(src, minlength=num_vertices)
        vptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=vptr[1:])
        return CSRGraph(vptr, dst, cols, name=name)

    @staticmethod
    def from_dense(matrix: np.ndarray, *, name: str = "") -> "CSRGraph":
        """Build from a dense 2-D 0/1 (or weighted) adjacency matrix."""
        m = np.asarray(matrix)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-D")
        rows, cols = np.nonzero(m)
        counts = np.bincount(rows, minlength=m.shape[0])
        vptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=vptr[1:])
        vals = m[rows, cols].astype(np.float64)
        uniform = bool(vals.size == 0 or np.all(vals == 1.0))
        return CSRGraph(
            vptr,
            cols.astype(np.int64),
            m.shape[1],
            edge_val=None if uniform else vals,
            name=name,
        )

    @staticmethod
    def from_scipy(mat, *, name: str = "") -> "CSRGraph":
        """Build from any :mod:`scipy.sparse` matrix."""
        csr = mat.tocsr()
        vals = np.asarray(csr.data, dtype=np.float64)
        uniform = bool(vals.size == 0 or np.all(vals == 1.0))
        return CSRGraph(
            np.asarray(csr.indptr, dtype=np.int64),
            np.asarray(csr.indices, dtype=np.int64),
            csr.shape[1],
            edge_val=None if uniform else vals,
            name=name,
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the adjacency matrix (tests / tiny graphs only)."""
        out = np.zeros((self.num_vertices, self.num_cols), dtype=np.float64)
        for v in range(self.num_vertices):
            out[v, self.neighbors(v)] = self.values(v)
        return out

    def to_scipy(self):
        """Return a :class:`scipy.sparse.csr_matrix` view of this graph."""
        from scipy.sparse import csr_matrix

        data = (
            np.ones(self.num_edges, dtype=np.float64)
            if self.edge_val is None
            else self.edge_val
        )
        return csr_matrix(
            (data, self.edge_dst, self.vertex_ptr),
            shape=(self.num_vertices, self.num_cols),
        )

    def with_gcn_normalization(self) -> "CSRGraph":
        """Return Â = D^-1/2 (A + I) D^-1/2 with self loops added.

        This is the symmetric normalization of Kipf & Welling GCNs.  The
        sparsity pattern (which is all the cost model sees) gains exactly
        the self-loop diagonal; values matter only to the functional oracle.
        """
        sp = self.to_scipy()
        from scipy.sparse import eye as speye

        if self.num_vertices != self.num_cols:
            raise ValueError("GCN normalization requires a square adjacency")
        a_hat = (sp + speye(self.num_vertices, format="csr")).tocsr()
        deg = np.asarray(a_hat.sum(axis=1)).ravel()
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
        from scipy.sparse import diags

        norm = diags(inv_sqrt) @ a_hat @ diags(inv_sqrt)
        return CSRGraph.from_scipy(norm.tocsr(), name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, cols={self.num_cols}, "
            f"avg_deg={self.avg_degree:.2f})"
        )


def batch_graphs(graphs: Sequence[CSRGraph], *, name: str = "") -> CSRGraph:
    """Merge graphs into one block-diagonal CSR adjacency.

    This mirrors the paper's evaluation methodology (§V-A2): graph
    classification datasets are run as a *batch* of graphs (64, or 32 for
    Reddit-bin), which is exactly a block-diagonal adjacency — vertex IDs of
    graph ``i`` are offset by the total vertex count of graphs ``0..i-1``.
    """
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    for g in graphs:
        if g.num_vertices != g.num_cols:
            raise ValueError("batching requires square member graphs")
    offsets = np.cumsum([0] + [g.num_vertices for g in graphs])
    total_v = int(offsets[-1])
    vptr = np.zeros(total_v + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    any_vals = any(g.edge_val is not None for g in graphs)
    edge_base = 0
    for i, g in enumerate(graphs):
        lo, hi = offsets[i], offsets[i + 1]
        vptr[lo + 1 : hi + 1] = g.vertex_ptr[1:] + edge_base
        chunks.append(g.edge_dst + offsets[i])
        if any_vals:
            vals.append(
                g.edge_val
                if g.edge_val is not None
                else np.ones(g.num_edges, dtype=np.float64)
            )
        edge_base += g.num_edges
    edge_dst = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    edge_val = np.concatenate(vals) if any_vals else None
    return CSRGraph(vptr, edge_dst, total_v, edge_val=edge_val, name=name)
