"""The per-entry near scan :meth:`repro.serving.index.ParetoIndex.lookup`
replaced.

Every lookup walks every entry of the index, skips other hardware keys
and empty fronts, rebuilds both workloads' feature vectors from their
fields, takes ``diff @ diff`` per entry and keeps the strict ``<`` first
minimum; every answer rescans the front for its objective's winner.
"""

from __future__ import annotations

import numpy as np

from repro.serving.index import Lookup, record_score


def feature_vector_reference(f) -> np.ndarray:
    return np.array(
        [
            np.log1p(f.num_vertices),
            np.log1p(f.num_edges),
            np.log1p(f.avg_degree),
            np.log1p(f.max_degree),
            np.log1p(f.p99_degree),
            f.degree_cv,
            np.log10(f.density + 1e-12),
            np.log1p(f.in_features),
            np.log1p(f.out_features),
        ],
        dtype=np.float64,
    )


def feature_distance_reference(a, b) -> float:
    if a.digest == b.digest:
        return 0.0
    diff = feature_vector_reference(a) - feature_vector_reference(b)
    return float(np.sqrt(float(diff @ diff) / diff.size))


def best_reference(entry, objective: str):
    if objective == "cycles":
        return entry.front[0]
    if objective == "energy":
        return entry.front[-1]
    return min(entry.front, key=lambda p: record_score(p.payload, objective))


def lookup_reference(
    index, features, hw_key: str, objective: str = "cycles", *, max_distance=None
) -> Lookup | None:
    entries = index.entries()
    for entry in entries:
        if entry.key == (features.digest, hw_key) and entry.front:
            return Lookup(
                entry=entry,
                point=best_reference(entry, objective),
                distance=0.0,
                exact=True,
            )
    best = None
    best_d = float("inf")
    for entry in entries:
        if entry.hw_key != hw_key or not entry.front:
            continue
        d = feature_distance_reference(features, entry.features)
        if d < best_d:
            best, best_d = entry, d
    if best is None:
        return None
    if max_distance is not None and best_d > max_distance:
        return None
    return Lookup(
        entry=best,
        point=best_reference(best, objective),
        distance=best_d,
        exact=False,
    )
