"""Cheap sparsity features for serving-time dataflow selection.

The serving thesis (ROADMAP "dynamic sparsity" item; Dynasparse/NeuraChip
in PAPERS.md) is that the *best dataflow is a function of coarse sparsity
structure*, not of the exact adjacency: graphs with similar degree
statistics land on the same side of the paper's HE/HF/LEF crossovers, so
a campaign's winner for CiteSeer is a good answer for a CiteSeer-like
request.  This module turns a :class:`~repro.graphs.csr.CSRGraph` (plus
its layer's feature extents) into a small numeric vector the
:class:`~repro.serving.index.ParetoIndex` can nearest-neighbor on —
*without* running the cost model.  The degree statistics are computed
once per graph, in O(V), and cached on it
(:func:`~repro.graphs.stats.graph_stats`), so a repeat query on the same
graph object costs a dictionary lookup.

Identity is two-tier:

- ``digest`` is the graph's exact sparsity-pattern hash
  (:attr:`~repro.graphs.csr.CSRGraph.pattern_digest` — the same key the
  evaluator's fingerprints and the session's ``TileStatsRegistry`` use),
  extended with the feature extents: a digest match means the stored
  records were computed for *this exact workload* and the answer is
  exact, distance zero.
- :func:`feature_distance` is the fallback metric between non-identical
  graphs: Euclidean distance over log-scaled statistics, so "10x more
  vertices" counts the same at every scale and no single raw magnitude
  (E vs density) dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.stats import graph_stats

__all__ = ["SparsityFeatures", "graph_features", "feature_distance"]


@dataclass(frozen=True)
class SparsityFeatures:
    """One workload's serving-time feature digest.

    The structural statistics mirror :class:`~repro.graphs.stats.GraphStats`
    (the quantities the paper's HE/HF/LEF analysis keys on), plus the GNN
    layer extents ``F``/``G`` that decide Aggregation- vs
    Combination-boundedness (§V-C1).
    """

    digest: str  # pattern digest + feature extents (exact identity)
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    p99_degree: float
    degree_cv: float
    density: float
    in_features: int
    out_features: int

    def vector(self) -> np.ndarray:
        """Log-scaled numeric embedding for nearest-neighbor lookup.

        Built on first use and kept: the returned array is shared and
        read-only, so no caller can change a later distance through it.
        """
        vec = self.__dict__.get("_vector")
        if vec is None:
            vec = np.array(
                [
                    np.log1p(self.num_vertices),
                    np.log1p(self.num_edges),
                    np.log1p(self.avg_degree),
                    np.log1p(self.max_degree),
                    np.log1p(self.p99_degree),
                    self.degree_cv,
                    np.log10(self.density + 1e-12),
                    np.log1p(self.in_features),
                    np.log1p(self.out_features),
                ],
                dtype=np.float64,
            )
            vec.setflags(write=False)
            object.__setattr__(self, "_vector", vec)
        return vec

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "V": self.num_vertices,
            "E": self.num_edges,
            "avg_deg": self.avg_degree,
            "max_deg": self.max_degree,
            "p99_deg": self.p99_degree,
            "deg_cv": self.degree_cv,
            "density": self.density,
            "F": self.in_features,
            "G": self.out_features,
        }


def graph_features(
    graph: CSRGraph, *, in_features: int, out_features: int
) -> SparsityFeatures:
    """Extract :class:`SparsityFeatures` for one GNN-layer workload.

    O(V) on a graph's first query; the result is cached on the graph per
    ``(in_features, out_features)``, so a repeat query returns the same
    object (and its already-built vector) for a dictionary lookup.
    Feature extraction must cost microseconds where a cost-model
    evaluation costs milliseconds.
    """

    def compute() -> SparsityFeatures:
        s = graph_stats(graph)
        return SparsityFeatures(
            digest=f"{graph.pattern_digest}:{in_features}x{out_features}",
            num_vertices=s.num_vertices,
            num_edges=s.num_edges,
            avg_degree=s.avg_degree,
            max_degree=s.max_degree,
            p99_degree=s.p99_degree,
            degree_cv=s.degree_cv,
            density=s.density,
            in_features=in_features,
            out_features=out_features,
        )

    return graph._cached(f"features:{in_features}x{out_features}", compute)


def feature_distance(a: SparsityFeatures, b: SparsityFeatures) -> float:
    """Distance between two workloads' features.

    ``0.0`` exactly when the digests match (identical pattern and
    extents); otherwise the Euclidean distance between the log-scaled
    vectors, normalized by the embedding dimension so thresholds like
    ``max_distance=0.5`` stay meaningful if features are added later.
    :meth:`~repro.serving.index.ParetoIndex.lookup` computes the same
    value for every entry on a hardware key in one pass over that key's
    stacked vectors, with the same floats.
    """
    if a.digest == b.digest:
        return 0.0
    diff = a.vector() - b.vector()
    return float(np.sqrt(float(diff @ diff) / diff.size))
