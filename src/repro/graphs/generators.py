"""Seeded synthetic graph generators calibrated to the paper's datasets.

The paper evaluates on TU-Dortmund graph-classification sets (Mutag,
Proteins, Imdb-bin, Collab, Reddit-bin) and Planetoid citation networks
(Citeseer, Cora).  Those files are not available offline, so we generate
synthetic graphs that match the *statistics the cost model actually
consumes*: vertex count, edge (nnz) count, feature dimension, and — crucially
for the paper's findings — the *degree-distribution shape* of each category:

- ``LEF`` (Mutag, Proteins): small molecular graphs; near-ring/tree
  structure, degree concentrated around 2-4, no hub rows.  The paper notes
  ``SPhighV`` is fine here because there are no "evil rows".
- ``HE`` (Imdb-bin, Collab): dense ego-networks built from unions of
  cliques; rows are uniformly dense, which is why *spatial* Aggregation
  (``T_N > 1``) wins (Fig. 11).
- ``HF`` (Reddit-bin, Citeseer, Cora): very sparse rows with a heavy tail —
  a few hub/"evil" rows dominate lock-step Aggregation when ``T_V`` is
  large (the ``SPhighV`` pathology, §V-B1).

Every generator takes an explicit :class:`numpy.random.Generator` so all
experiments are reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import math

import numpy as np

from .csr import CSRGraph

__all__ = [
    "molecular_graph",
    "clique_union_graph",
    "hub_thread_graph",
    "preferential_attachment_graph",
    "erdos_renyi_graph",
    "web_scale",
]


def _dedupe_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sort (src, dst) rows and drop duplicates and self-pairs."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    keep = np.ones(len(pairs), dtype=bool)
    keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
    return pairs[keep]


def _symmetrize(pairs: np.ndarray) -> np.ndarray:
    """Make the edge set undirected by adding reversed pairs."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    return _dedupe_pairs(np.concatenate([pairs, pairs[:, ::-1]], axis=0))


def molecular_graph(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int | None = None,
    *,
    extra_edge_frac: float = 0.15,
    name: str = "",
) -> CSRGraph:
    """A small molecule-like graph: a backbone ring plus chord matchings.

    Degree is tightly concentrated (2 to ~4), matching Mutag/Proteins where
    atoms bond to a handful of neighbors.  Extra bonds beyond the ring are
    added as rounds of partial matchings so every vertex gains at most one
    bond per round — degree *uniformity* is load-bearing: it is why LEF
    datasets tolerate very large T_V without evil-row stalls (§V-B1).

    ``target_edges`` counts directed nnz; when omitted, ``extra_edge_frac``
    chords are added on top of the ring.
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    if n == 1:
        return CSRGraph.from_edges(1, [], name=name)
    idx = np.arange(n, dtype=np.int64)
    ring = np.stack([idx, (idx + 1) % n], axis=1)
    if target_edges is None:
        extra_undirected = int(round(extra_edge_frac * n))
    else:
        extra_undirected = max(0, int(target_edges) // 2 - n)
    chunks = [ring]
    remaining = extra_undirected
    guard = 0
    while remaining > 0 and n >= 4 and guard < 16:
        guard += 1
        take = min(remaining, n // 2)
        perm = rng.permutation(n).astype(np.int64)
        chunks.append(np.stack([perm[: 2 * take : 2], perm[1 : 2 * take : 2]], axis=1))
        remaining -= take
    pairs = _symmetrize(np.concatenate(chunks, axis=0))
    return CSRGraph.from_edges(n, pairs, name=name)


def clique_union_graph(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int,
    *,
    name: str = "",
) -> CSRGraph:
    """A dense ego-network style graph: a union of overlapping cliques.

    IMDB-BINARY and COLLAB graphs are actor/author ego-networks whose edges
    come from co-appearance cliques, giving uniformly high row density —
    the property that makes spatial Aggregation (``T_N > 1``) profitable.
    ``target_edges`` counts directed nnz (both (u,v) and (v,u)).
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    target = max(0, int(target_edges))
    pairs_list: list[np.ndarray] = []
    got = 0
    # Keep adding cliques until the undirected edge budget is met.  Clique
    # size is drawn so a handful of cliques covers the budget.
    want_undirected = target // 2
    guard = 0
    while got < want_undirected and guard < 200:
        guard += 1
        k = int(
            np.clip(rng.integers(max(3, n // 4), max(4, (3 * n) // 4 + 1)), 2, n)
        )
        members = rng.choice(n, size=k, replace=False).astype(np.int64)
        iu, ju = np.triu_indices(k, k=1)
        pairs_list.append(np.stack([members[iu], members[ju]], axis=1))
        got += k * (k - 1) // 2
    pairs = (
        _dedupe_pairs(np.concatenate(pairs_list, axis=0))
        if pairs_list
        else np.empty((0, 2), dtype=np.int64)
    )
    # Trim overshoot so the nnz count tracks the calibration target.
    if len(pairs) > want_undirected:
        sel = rng.choice(len(pairs), size=want_undirected, replace=False)
        pairs = pairs[np.sort(sel)]
    pairs = _symmetrize(pairs)
    return CSRGraph.from_edges(n, pairs, name=name)


def hub_thread_graph(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int,
    *,
    num_hubs: int | None = None,
    name: str = "",
) -> CSRGraph:
    """A discussion-thread graph: a few hubs with many leaf responders.

    Reddit-binary threads are star-like: one or two original posts collect
    hundreds of replies.  Row density is tiny on average but the hub rows
    are "evil rows" — exactly the shape that breaks ``SPhighV`` (Fig. 11).
    ``target_edges`` counts directed nnz.
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    want_undirected = max(n - 1, int(target_edges) // 2)
    hubs = num_hubs if num_hubs is not None else max(1, int(rng.integers(1, 4)))
    hubs = min(hubs, n)
    hub_ids = np.arange(hubs, dtype=np.int64)
    leaves = np.arange(hubs, n, dtype=np.int64)
    if leaves.size:
        owner = hub_ids[rng.integers(0, hubs, size=leaves.size)]
        pairs = np.stack([owner, leaves], axis=1)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    extra = want_undirected - len(pairs)
    if extra > 0 and leaves.size >= 2:
        src = leaves[rng.integers(0, leaves.size, size=extra)]
        dst = leaves[rng.integers(0, leaves.size, size=extra)]
        pairs = np.concatenate([pairs, np.stack([src, dst], axis=1)], axis=0)
    pairs = _symmetrize(_dedupe_pairs(pairs))
    return CSRGraph.from_edges(n, pairs, name=name)


def preferential_attachment_graph(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int,
    *,
    name: str = "",
) -> CSRGraph:
    """A heavy-tailed citation-style graph (Barabási–Albert flavour).

    Citeseer and Cora have power-law-ish degree distributions: most papers
    cite a handful of others while a few surveys collect hundreds of
    citations.  We grow the graph vertex by vertex, attaching ``m`` edges
    with probability proportional to current degree (vectorized by sampling
    from the running edge-endpoint list, which is the standard BA trick).
    ``target_edges`` counts directed nnz.
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    want_undirected = max(0, int(target_edges) // 2)
    # Fractional attachment count: mix floor/ceil of the exact ratio so the
    # generated edge total tracks the published one instead of rounding to
    # the nearest integer m (which can be off by 30%+ for m near 1.5).
    m_exact = want_undirected / max(1, n - 1)
    m_lo = max(1, int(math.floor(m_exact)))
    m_hi = m_lo + 1
    p_hi = min(1.0, max(0.0, m_exact - m_lo))
    # endpoint pool: every edge contributes both endpoints, so sampling
    # uniformly from the pool == degree-proportional sampling.
    pool = list(range(min(m_lo + 1, n)))
    src_list: list[int] = []
    dst_list: list[int] = []
    for v in range(len(pool), n):
        m = m_hi if rng.random() < p_hi else m_lo
        k = min(m, v)
        picks = rng.choice(len(pool), size=k, replace=False)
        targets = {pool[p] for p in picks}
        for t in targets:
            src_list.append(v)
            dst_list.append(t)
            pool.append(v)
            pool.append(t)
    pairs = (
        np.stack(
            [np.asarray(src_list, dtype=np.int64), np.asarray(dst_list, dtype=np.int64)],
            axis=1,
        )
        if src_list
        else np.empty((0, 2), dtype=np.int64)
    )
    pairs = _symmetrize(_dedupe_pairs(pairs))
    return CSRGraph.from_edges(n, pairs, name=name)


def erdos_renyi_graph(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int,
    *,
    name: str = "",
) -> CSRGraph:
    """A uniform random graph with ~``target_edges`` directed nnz.

    Used by tests and ablations as a neutral baseline without category
    structure.
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    want_undirected = int(target_edges) // 2
    max_undirected = n * (n - 1) // 2
    want_undirected = min(want_undirected, max_undirected)
    # Oversample then dedupe: cheap and adequate far below saturation.
    got = np.empty((0, 2), dtype=np.int64)
    guard = 0
    while len(got) < want_undirected and guard < 64:
        guard += 1
        need = max(16, 2 * (want_undirected - len(got)))
        src = rng.integers(0, n, size=need, dtype=np.int64)
        dst = rng.integers(0, n, size=need, dtype=np.int64)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        cand = np.stack([lo, hi], axis=1)
        got = _dedupe_pairs(np.concatenate([got, cand], axis=0))
    if len(got) > want_undirected:
        sel = rng.choice(len(got), size=want_undirected, replace=False)
        got = got[np.sort(sel)]
    pairs = _symmetrize(got)
    return CSRGraph.from_edges(n, pairs, name=name)


def web_scale(
    rng: np.random.Generator,
    num_vertices: int,
    target_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    name: str = "",
) -> CSRGraph:
    """A million-vertex-class power-law graph (RMAT flavour, Graph500).

    The large-graph tier: edges are drawn by recursively descending the
    adjacency matrix's quadrants with skewed probabilities ``(a, b, c,
    1-a-b-c)``, which yields the heavy-tailed in/out-degree distributions
    of web/social graphs — hub rows thousands of edges deep next to a
    long tail of near-empty rows, the shape the block-streamed validator
    and the nnz-balanced block partitioner exist for.

    Unlike the small-graph generators above, edges stay *directed* (web
    links are) and the CSR arrays are assembled directly from vectorized
    sorts — ``from_edges`` would re-sort and re-dedupe tens of millions
    of edges that arrive sorted and unique.  ``target_edges`` counts
    directed nnz; duplicates are dropped, so extreme density may come up
    slightly short (a guard bounds resampling).
    """
    n = int(num_vertices)
    if n <= 0:
        raise ValueError("num_vertices must be positive")
    if not 0.0 < a + b + c < 1.0:
        raise ValueError("quadrant probabilities must satisfy 0 < a+b+c < 1")
    want = max(0, int(target_edges))
    scale = max(1, int(math.ceil(math.log2(n)))) if n > 1 else 1
    ab, abc = a + b, a + b + c
    codes = np.empty(0, dtype=np.int64)  # unique src * n + dst
    guard = 0
    while codes.size < want and guard < 32:
        guard += 1
        # Bounded per-round batch: the draw buffers (not the final CSR)
        # would otherwise dominate peak RSS at tens of millions of edges.
        batch = min(max(1024, (want - codes.size) * 2), 1 << 22)
        src = np.zeros(batch, dtype=np.int64)
        dst = np.zeros(batch, dtype=np.int64)
        for _ in range(scale):
            r = rng.random(batch)
            src = (src << 1) | (r >= ab)
            dst = (dst << 1) | (((r >= a) & (r < ab)) | (r >= abc))
        keep = (src < n) & (dst < n) & (src != dst)
        fresh = src[keep] * n + dst[keep]
        codes = np.unique(np.concatenate([codes, fresh]))
    if codes.size > want:
        sel = rng.choice(codes.size, size=want, replace=False)
        codes = codes[np.sort(sel)]
    src = codes // n
    dst = codes % n
    # codes are sorted, so (src asc, dst asc) already holds — the CSR
    # arrays fall out of a bincount prefix sum with no per-edge Python.
    counts = np.bincount(src, minlength=n) if codes.size else np.zeros(n, np.int64)
    vertex_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=vertex_ptr[1:])
    return CSRGraph(vertex_ptr, dst, n, name=name)
