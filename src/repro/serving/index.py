"""In-memory Pareto-front index over campaign result stores.

The serving path must answer "which dataflow for this graph on this
hardware?" without touching the cost model.  Campaign records are
grouped per *(workload, hardware)* entry, each entry keeps only the
**Pareto front** over (cycles, energy) — the non-dominated mappings that
can ever be the right answer under any of the registered objectives —
and every entry carries the workload's
:class:`~repro.serving.features.SparsityFeatures`.  A query for a
workload the campaign saw is one dictionary lookup; a query for a graph
it never saw falls back to the nearest-feature entry, found in one
vectorised distance pass over its hardware key's stacked feature matrix.

Incremental updates are sound because Pareto filtering is idempotent
over unions: ``front(A ∪ B) == front(front(A) ∪ B)``, so appending a
live-search batch to an entry never needs the dominated history back.

Feature resolution per record is two-tier, mirroring how records are
produced:

- records persisted *by the service* carry their features inline
  (``features`` + ``graph_digest`` via ``record_extra``) — exact and
  free to index, even for ad-hoc graphs no loader can rebuild;
- campaign records carry only a ``dataset`` name — the index rebuilds
  that dataset deterministically (same loader, same seed) and extracts
  features once per ``(dataset, seed)``.

Records that resolve to no features (unknown dataset, no inline
features) are counted in :attr:`ParetoIndex.skipped`, never silently
dropped into a wrong entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..analysis.pareto import ParetoPoint, pareto_frontier
from ..core.optimizer import OBJECTIVES
from .features import SparsityFeatures, graph_features

__all__ = [
    "IndexEntry",
    "Lookup",
    "ParetoIndex",
    "record_hw_key",
    "record_score",
    "features_from_record",
]


def record_hw_key(record: Mapping) -> str:
    """The record's hardware coordinate, matching
    :meth:`~repro.campaign.spec.HardwarePoint.key` (``"pes512"`` style).

    A campaign hardware label (persisted as ``hw``) wins when present,
    exactly as it wins inside ``HardwarePoint.key()``.
    """
    label = record.get("hw")
    if label:
        return str(label)
    parts = [f"pes{record['num_pes']}"]
    if record.get("bandwidth") is not None:
        parts.append(f"bw{record['bandwidth']}")
    if record.get("gb_kib") is not None:
        parts.append(f"gb{record['gb_kib']}")
    return "-".join(parts)


def record_score(record: Mapping, objective: str) -> float:
    """Score a persisted record under a registered objective."""
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    cycles = float(record["cycles"])
    energy = float(record["energy"]["total_pj"])
    if objective == "cycles":
        return cycles
    if objective == "energy":
        return energy
    return cycles * energy  # edp


def features_from_record(
    record: Mapping, *, seed: int = 0, graph_cache: dict | None = None
) -> SparsityFeatures | None:
    """Resolve a record's workload features, or ``None`` when impossible.

    ``graph_cache`` (keyed ``(dataset, seed)``) amortizes the dataset
    rebuild across the many records of one campaign unit.
    """
    inline = record.get("features")
    if isinstance(inline, Mapping) and "digest" in inline:
        return SparsityFeatures(
            digest=str(inline["digest"]),
            num_vertices=int(inline["V"]),
            num_edges=int(inline["E"]),
            avg_degree=float(inline["avg_deg"]),
            max_degree=int(inline["max_deg"]),
            p99_degree=float(inline["p99_deg"]),
            degree_cv=float(inline["deg_cv"]),
            density=float(inline["density"]),
            in_features=int(inline["F"]),
            out_features=int(inline["G"]),
        )
    dataset = record.get("dataset")
    if not dataset:
        return None
    # Imported lazily to keep module import light for feature-only users.
    from ..graphs.datasets import DATASETS, load_dataset

    if str(dataset) not in DATASETS:
        return None
    cache_key = (str(dataset), seed)
    cache = graph_cache if graph_cache is not None else {}
    graph = cache.get(cache_key)
    if graph is None:
        graph = load_dataset(str(dataset), seed=seed).graph
        cache[cache_key] = graph
    return graph_features(
        graph,
        in_features=int(record["F"]),
        out_features=int(record["G"]),
    )


@dataclass
class IndexEntry:
    """One ``(workload, hardware)`` cell: features + its Pareto front.

    ``front`` holds :class:`~repro.analysis.pareto.ParetoPoint` items
    sorted by cycles ascending (energy strictly descending), each
    carrying its source record as ``payload``.  :meth:`add` also settles
    the per-objective winners, so :meth:`best` is a dictionary read:
    ``front[0]`` is best-cycles, ``front[-1]`` best-energy, and best-EDP
    the first minimum of a scan over the front.
    """

    features: SparsityFeatures
    hw_key: str
    dataset: str | None = None
    front: list[ParetoPoint] = field(default_factory=list)
    winners: dict[str, ParetoPoint] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def key(self) -> tuple[str, str]:
        return (self.features.digest, self.hw_key)

    def add(self, records: Iterable[Mapping]) -> int:
        """Merge records into the front; returns the new front size."""
        points = [
            ParetoPoint(
                label=str(rec.get("dataflow", "?")),
                cycles=float(rec["cycles"]),
                energy=float(rec["energy"]["total_pj"]),
                payload=dict(rec),
            )
            for rec in records
        ]
        front = self.front = pareto_frontier([*self.front, *points])
        self.winners = {}
        if front:
            self.winners = {
                "cycles": front[0],
                "energy": front[-1],
                "edp": min(front, key=lambda p: record_score(p.payload, "edp")),
            }
        return len(front)

    def best(self, objective: str) -> ParetoPoint:
        if not self.front:
            raise ValueError(f"entry {self.key} has an empty front")
        point = self.winners.get(objective)
        if point is None:
            raise ValueError(
                f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
            )
        return point


@dataclass(frozen=True)
class Lookup:
    """One index lookup's answer (a hit; misses return ``None``)."""

    entry: IndexEntry
    point: ParetoPoint
    distance: float
    exact: bool

    @property
    def record(self) -> dict:
        return self.point.payload


class ParetoIndex:
    """Feature-addressed Pareto fronts over any number of result stores.

    Thread-safe: the serving layer mutates it (live-search records) while
    concurrent queries read it.  Per hardware key it keeps the entries
    with a non-empty front, in insertion order, and their feature vectors
    stacked into one ``(n, 9)`` matrix; :meth:`add_records` refreshes both
    for every key it touches.  An exact lookup is one dictionary read and
    a near lookup one array pass over its key's matrix — the store's
    dominated bulk never gets past :meth:`add_records`.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self._entries: dict[tuple[str, str], IndexEntry] = {}
        # hw key -> (entries with a front, their stacked feature vectors)
        self._near: dict[str, tuple[list[IndexEntry], np.ndarray]] = {}
        self._graph_cache: dict = {}
        self._lock = threading.Lock()
        self.indexed = 0  # records folded into some entry's front
        self.skipped = 0  # records with unresolvable features

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[IndexEntry]:
        with self._lock:
            return list(self._entries.values())

    @property
    def front_size(self) -> int:
        with self._lock:
            return sum(len(e.front) for e in self._entries.values())

    # ------------------------------------------------------------------
    def add_records(self, records: Iterable[Mapping]) -> int:
        """Fold records into their entries' fronts; returns # indexed.

        Grouping happens per (resolved feature digest, hardware key);
        feature resolution failures bump :attr:`skipped`.  The near-lookup
        matrix of every hardware key touched is rebuilt before the lock
        is released, so the next lookup sees the new entries.
        """
        grouped: dict[tuple[str, str], list[Mapping]] = {}
        feats: dict[str, SparsityFeatures] = {}
        names: dict[str, str | None] = {}
        skipped = 0
        for rec in records:
            f = features_from_record(
                rec, seed=self.seed, graph_cache=self._graph_cache
            )
            if f is None:
                skipped += 1
                continue
            hw_key = record_hw_key(rec)
            grouped.setdefault((f.digest, hw_key), []).append(rec)
            feats[f.digest] = f
            names.setdefault(f.digest, rec.get("dataset"))
        with self._lock:
            indexed = 0
            for (digest, hw_key), recs in grouped.items():
                entry = self._entries.get((digest, hw_key))
                if entry is None:
                    entry = IndexEntry(
                        features=feats[digest],
                        hw_key=hw_key,
                        dataset=names.get(digest),
                    )
                    self._entries[(digest, hw_key)] = entry
                entry.add(recs)
                indexed += len(recs)
            for hw_key in {hw_key for _, hw_key in grouped}:
                live = [
                    e
                    for e in self._entries.values()
                    if e.hw_key == hw_key and e.front
                ]
                if live:  # a front, once non-empty, stays non-empty
                    matrix = np.stack([e.features.vector() for e in live])
                    self._near[hw_key] = (live, matrix)
            self.indexed += indexed
            self.skipped += skipped
            return indexed

    # ------------------------------------------------------------------
    def lookup(
        self,
        features: SparsityFeatures,
        hw_key: str,
        objective: str = "cycles",
        *,
        max_distance: float | None = None,
    ) -> Lookup | None:
        """Best known mapping for a workload on one hardware point.

        An exact digest match answers at distance ``0.0``; otherwise the
        nearest-feature entry *on the same hardware key* answers, unless
        its distance exceeds ``max_distance`` (then: miss, return
        ``None``).  Hardware keys never cross-match — a 512-PE front
        says nothing about a 64-PE chip.  Distances are
        :func:`~repro.serving.features.feature_distance`'s, bit for bit;
        the first entry in insertion order at the minimum wins, and a
        NaN distance never does.
        """
        with self._lock:
            exact = self._entries.get((features.digest, hw_key))
            if exact is not None and exact.front:
                return Lookup(
                    entry=exact,
                    point=exact.best(objective),
                    distance=0.0,
                    exact=True,
                )
            near = self._near.get(hw_key)
            if near is None:
                return None
            # No entry here shares the query's digest (that one answered
            # above), so every distance is the vector norm.
            entries, matrix = near
            diff = features.vector() - matrix
            # Per-row diff @ diff as a stacked (1, 9) @ (9, 1) matmul: the
            # same floats as the scalar form (einsum and sum(axis=1) are not).
            sq = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
            dist = np.sqrt(sq / diff.shape[1])
            dist[np.isnan(dist)] = np.inf
            i = int(np.argmin(dist))
            best_d = float(dist[i])
            if best_d == np.inf:
                return None
            if max_distance is not None and best_d > max_distance:
                return None
            best = entries[i]
            return Lookup(
                entry=best,
                point=best.best(objective),
                distance=best_d,
                exact=False,
            )

    def nearest(
        self, features: SparsityFeatures, hw_key: str, objective: str
    ) -> Lookup | None:
        """Distance-unbounded lookup — the graceful-degradation answer
        when a live-search budget is exhausted."""
        return self.lookup(features, hw_key, objective, max_distance=None)
