"""Degree-distribution statistics used by reports and dataset calibration.

These helpers quantify the structural properties the paper's analysis keys
on: average/max degree ("evil rows"), density category (HE/HF/LEF), and the
lock-step inflation factor that drives the SpMM engine's cycle counts when
vertices are processed in parallel lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphStats", "graph_stats", "lockstep_inflation", "classify_category"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a CSR adjacency."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    p99_degree: float
    degree_cv: float  # coefficient of variation, heavy-tail indicator
    density: float

    def as_dict(self) -> dict:
        return {
            "V": self.num_vertices,
            "E": self.num_edges,
            "avg_deg": self.avg_degree,
            "max_deg": self.max_degree,
            "p99_deg": self.p99_degree,
            "deg_cv": self.degree_cv,
            "density": self.density,
        }


def graph_stats(graph: CSRGraph) -> GraphStats:
    """:class:`GraphStats` for ``graph``, computed once per graph (vectorized)
    and cached on it like :attr:`~repro.graphs.csr.CSRGraph.pattern_digest`."""
    return graph._cached("graph_stats", lambda: _compute_stats(graph))


def _compute_stats(graph: CSRGraph) -> GraphStats:
    deg = graph.degrees.astype(np.float64)
    if deg.size == 0:
        return GraphStats(0, 0, 0.0, 0, 0.0, 0.0, 0.0)
    mean = float(deg.mean())
    std = float(deg.std())
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=mean,
        max_degree=int(deg.max()),
        p99_degree=float(np.percentile(deg, 99)),
        degree_cv=std / mean if mean > 0 else 0.0,
        density=graph.density,
    )


def lockstep_inflation(graph: CSRGraph, t_v: int, t_n: int = 1) -> float:
    """Ratio of lock-step neighbor steps to ideal work for vertex tiling.

    With ``T_V`` vertex lanes running in lock step, a tile of vertices takes
    ``max_v ceil(deg(v) / T_N)`` neighbor steps (paper §V-B1, "evil row").
    The inflation factor is that total divided by the balanced ideal
    ``sum_v ceil(deg(v)/T_N) / T_V``: 1.0 means perfectly balanced tiles;
    large values mean a dense row is stalling its tile-mates.
    """
    if t_v < 1 or t_n < 1:
        raise ValueError("tile sizes must be >= 1")
    deg = graph.degrees
    if deg.size == 0:
        return 1.0
    steps = np.ceil(deg / t_n).astype(np.int64)
    pad = (-len(steps)) % t_v
    if pad:
        steps = np.concatenate([steps, np.zeros(pad, dtype=np.int64)])
    tiles = steps.reshape(-1, t_v)
    lockstep = int(tiles.max(axis=1).sum())
    ideal = float(steps.sum()) / t_v
    return lockstep / ideal if ideal > 0 else 1.0


def classify_category(
    graph: CSRGraph, num_features: int, *, deg_hi: float = 4.5, feat_hi: int = 512
) -> str:
    """Heuristic HE/HF/LEF classification mirroring Table IV's grouping.

    HE: dense rows (avg degree above ``deg_hi``); HF: sparse rows but a
    large feature dimension (>= ``feat_hi``); LEF: neither.
    """
    s = graph_stats(graph)
    if s.avg_degree >= deg_hi:
        return "HE"
    if num_features >= feat_hi:
        return "HF"
    return "LEF"
