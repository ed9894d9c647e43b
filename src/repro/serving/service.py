"""The dataflow selection service (the serving tentpole).

:class:`DataflowService` answers "which multiphase dataflow should this
graph run with on this accelerator?" at inference-request latency, by
layering three answer paths over the campaign machinery:

1. **Index hit** — the query's sparsity features resolve (exactly by
   digest, or within ``max_distance``) to a
   :class:`~repro.serving.index.ParetoIndex` entry built from persisted
   campaign records.  The answer comes straight off that entry's Pareto
   front: **zero cost-model evaluations**, microseconds.
2. **Budgeted live search** — an index miss falls back to a bounded
   :class:`~repro.core.optimizer.MappingOptimizer` candidate stream
   through the shared :class:`~repro.campaign.session.ExplorationSession`
   (``live_budget`` successful evaluations at most).  Fresh records are
   persisted to the store *and* folded into the index, so the next
   identical query — in this process or after a restart — is a warm hit.
3. **Graceful degradation** — when the live budget produces no legal
   mapping, the service serves the nearest known Pareto point regardless
   of distance rather than failing; only an empty index raises
   :class:`~repro.errors.BudgetExhausted`.

Concurrent identical misses are **coalesced**: one caller runs the live
search while the others wait on its in-flight event and then answer from
the freshly updated index — so N simultaneous cold queries for the same
workload cost exactly one budgeted search (asserted in
``tests/test_serving.py``).  The service is thread-safe throughout; the
asyncio front-end (:mod:`repro.serving.frontend`) drives ``query`` from
worker threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from ..analysis.store import ResultStore, StoreSnapshot
from ..campaign.session import ExplorationSession
from ..campaign.spec import HardwarePoint
from ..core.optimizer import OBJECTIVES, MappingOptimizer, outcome_score
from ..core.workload import GNNWorkload
from ..errors import BudgetExhausted, ServiceError
from ..faults.injector import fault_point
from ..graphs.csr import CSRGraph
from .features import SparsityFeatures, graph_features
from .index import ParetoIndex, record_score

__all__ = ["QueryResult", "DataflowService"]


@dataclass(frozen=True)
class QueryResult:
    """One answered query, with full provenance.

    ``source`` tells which path answered: ``"index"`` (Pareto-front hit,
    zero evaluations), ``"live"`` (budgeted search ran for this
    workload), or ``"degraded"`` (budget exhausted; nearest known point
    served best-effort).  ``fingerprint`` is the chosen record's
    evaluation content hash — the same identity the store dedups on — so
    an answer can always be traced back to the exact persisted line that
    produced it.
    """

    dataflow: str
    record: dict
    source: str  # "index" | "live" | "degraded"
    objective: str
    score: float
    hw_key: str
    distance: float  # feature distance to the answering entry (0 = exact)
    exact: bool  # digest-identical workload match
    evals: int  # cost-model runs this query triggered (0 on index hits)
    features: SparsityFeatures
    dataset: str | None = None  # answering entry's dataset, when known

    @property
    def fingerprint(self) -> str | None:
        return self.record.get("fingerprint")

    def to_dict(self) -> dict:
        """JSON-safe payload (what ``repro serve`` returns per query)."""
        return {
            "dataflow": self.dataflow,
            "source": self.source,
            "objective": self.objective,
            "score": self.score,
            "hw": self.hw_key,
            "distance": self.distance,
            "exact": self.exact,
            "evals": self.evals,
            "dataset": self.dataset,
            "fingerprint": self.fingerprint,
            "cycles": self.record.get("cycles"),
            "energy_pj": (self.record.get("energy") or {}).get("total_pj"),
            "agg_tiles": self.record.get("agg_tiles"),
            "cmb_tiles": self.record.get("cmb_tiles"),
            "features": self.features.to_dict(),
        }


class DataflowService:
    """Pareto-index-first dataflow selection over one or more stores.

    Parameters
    ----------
    store:
        The service's *writable* :class:`~repro.analysis.store.ResultStore`
        (or its path): seeds the index, backs the session's warm cache,
        and receives live-search records.  ``None`` runs index-only from
        ``attach`` (live searches still work but persist nothing).
    attach:
        Extra store *paths* indexed read-only via lock-free snapshots —
        safe to point at a store a campaign is still appending to.
        ``max_staleness`` (seconds) bounds how old those snapshots may
        grow before a query triggers an incremental re-sync; ``None``
        means refresh only on explicit :meth:`refresh` calls.
    objective / strategy / live_budget / seed:
        Defaults for the query path: ranking objective, the
        :meth:`~repro.core.optimizer.MappingOptimizer.candidate_stream`
        strategy for live searches, and the budget of *successful*
        evaluations one live search may spend.
    max_distance:
        Feature-distance threshold for non-exact index hits; a nearest
        entry farther than this is treated as a miss (live search).
    workers:
        Kept for existing callers: must be ``0``, since every evaluation
        runs in-process.
    search_deadline:
        Watchdog deadline (seconds) a *coalesced* caller waits on the
        leader's in-flight live search.  A leader that hangs or crawls
        past it no longer strands its waiters: they degrade to the
        nearest known Pareto point (or a clean
        :class:`~repro.errors.BudgetExhausted`) instead of blocking
        forever.  ``None`` restores unbounded waiting.
    """

    def __init__(
        self,
        *,
        store: "ResultStore | str | Path | None" = None,
        attach: Iterable[str | Path] = (),
        objective: str = "cycles",
        strategy: str = "paper",
        live_budget: int | None = 32,
        max_distance: float = 0.5,
        max_staleness: float | None = None,
        workers: int = 0,
        seed: int = 0,
        search_deadline: float | None = 30.0,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ServiceError(
                f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
            )
        if live_budget is not None and live_budget < 1:
            raise ServiceError("live_budget must be >= 1 (or None)")
        if workers != 0:
            raise ServiceError(
                f"workers must be 0 (evaluation runs in-process), got {workers}"
            )
        self.objective = objective
        self.strategy = strategy
        self.live_budget = live_budget
        self.max_distance = max_distance
        self.max_staleness = max_staleness
        self.seed = seed
        if search_deadline is not None and search_deadline <= 0:
            raise ServiceError("search_deadline must be > 0 (or None)")
        self.search_deadline = search_deadline
        self._owns_store = not isinstance(store, (ResultStore, type(None)))
        self.store: ResultStore | None = (
            ResultStore(store) if self._owns_store else store
        )
        self.session = ExplorationSession(store=self.store)
        self.index = ParetoIndex(seed=seed)
        if self.store is not None:
            self.index.add_records(self.store.records())
        self._snapshots: dict[Path, StoreSnapshot] = {}
        for path in attach:
            snap = ResultStore.snapshot(path)
            self._snapshots[Path(path)] = snap
            self.index.add_records(snap.records)
        # Query-path concurrency: ``_stats_lock`` guards the counters,
        # ``_inflight`` coalesces identical concurrent misses (digest ->
        # event the leader sets once the index holds its records), and
        # ``_live_lock`` serializes the searches themselves so store
        # appends stay deterministic.
        self._stats_lock = threading.Lock()
        self._inflight: dict[tuple, threading.Event] = {}
        self._live_lock = threading.Lock()
        self.queries = 0
        self.index_hits = 0
        self.live_searches = 0
        self.coalesced = 0
        self.degraded = 0
        self.watchdog_timeouts = 0
        self.search_failures = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Incrementally re-sync every attached snapshot; returns the
        number of newly indexed records (O(appended bytes) per store).

        Degrades, never fails: a store that cannot be re-read this round
        (transient I/O — or the ``serving.refresh`` fault seam) keeps its
        previous snapshot, so queries keep answering from a slightly
        stale index rather than erroring."""
        try:
            act = fault_point("serving.refresh")
        except OSError:
            return 0
        if act is not None and act.kind == "drop":
            return 0  # injected stale snapshot: skip this sync round
        added = 0
        for path, old in list(self._snapshots.items()):
            try:
                new = ResultStore.snapshot(path, since=old)
            except OSError:
                continue  # keep serving from the old snapshot
            self._snapshots[path] = new
            fresh = new.records[len(old.records):]
            if fresh:
                added += self.index.add_records(fresh)
        return added

    def _maybe_refresh(self) -> None:
        if self.max_staleness is None or not self._snapshots:
            return
        now = time.time()
        if any(
            snap.age(now) > self.max_staleness
            for snap in self._snapshots.values()
        ):
            self.refresh()

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------
    def query(
        self,
        graph: CSRGraph,
        *,
        in_features: int,
        out_features: int,
        hw: HardwarePoint | None = None,
        objective: str | None = None,
        name: str | None = None,
    ) -> QueryResult:
        """Choose a dataflow for one GNN-layer workload.

        ``hw`` defaults to the paper's 512-PE point; ``objective``
        overrides the service default per request; ``name`` labels
        persisted live-search records (``dataset`` field) when the
        caller knows the graph's provenance.
        """
        if self._closed:
            raise ServiceError("service is closed")
        hw = hw or HardwarePoint()
        objective = objective or self.objective
        if objective not in OBJECTIVES:
            raise ServiceError(
                f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
            )
        features = graph_features(
            graph, in_features=in_features, out_features=out_features
        )
        with self._stats_lock:
            self.queries += 1
        self._maybe_refresh()
        hw_key = hw.key()
        hit = self.index.lookup(
            features, hw_key, objective, max_distance=self.max_distance
        )
        if hit is not None:
            with self._stats_lock:
                self.index_hits += 1
            return self._from_lookup(hit, features, hw_key, objective, evals=0)
        return self._miss(graph, features, hw, hw_key, objective, name)

    def _from_lookup(
        self, hit, features, hw_key, objective, *, evals, source="index"
    ) -> QueryResult:
        record = hit.record
        return QueryResult(
            dataflow=str(record.get("dataflow")),
            record=record,
            source=source,
            objective=objective,
            score=record_score(record, objective),
            hw_key=hw_key,
            distance=hit.distance,
            exact=hit.exact,
            evals=evals,
            features=features,
            dataset=hit.entry.dataset,
        )

    def _miss(
        self,
        graph: CSRGraph,
        features: SparsityFeatures,
        hw: HardwarePoint,
        hw_key: str,
        objective: str,
        name: str | None,
    ) -> QueryResult:
        """Coalesce-or-lead one live search for a cold workload."""
        key = (features.digest, hw_key, objective)
        while True:
            with self._stats_lock:
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
            if waiter is None:
                break  # this caller leads the search
            with self._stats_lock:
                self.coalesced += 1
            if not waiter.wait(timeout=self.search_deadline):
                # Watchdog: the leader blew the deadline (hung optimizer,
                # stalled I/O).  Waiters must not hang with it — serve
                # the nearest known point, degraded, or fail cleanly.
                with self._stats_lock:
                    self.watchdog_timeouts += 1
                nearest = self.index.nearest(features, hw_key, objective)
                if nearest is None:
                    raise BudgetExhausted(
                        f"live search for {features.digest} on {hw_key} "
                        f"exceeded the {self.search_deadline}s watchdog "
                        "deadline, and the index holds no fallback entry "
                        "for that hardware"
                    )
                with self._stats_lock:
                    self.degraded += 1
                return self._from_lookup(
                    nearest, features, hw_key, objective,
                    evals=0, source="degraded",
                )
            # The leader finished and indexed its records: an exact
            # lookup now answers for free.  If the leader *failed* (no
            # entry appeared), loop around and lead a fresh attempt.
            hit = self.index.lookup(
                features, hw_key, objective, max_distance=self.max_distance
            )
            if hit is not None:
                with self._stats_lock:
                    self.index_hits += 1
                return self._from_lookup(
                    hit, features, hw_key, objective, evals=0
                )
        try:
            return self._live_search(
                graph, features, hw, hw_key, objective, name
            )
        finally:
            with self._stats_lock:
                event = self._inflight.pop(key)
            event.set()

    def _live_search(
        self,
        graph: CSRGraph,
        features: SparsityFeatures,
        hw: HardwarePoint,
        hw_key: str,
        objective: str,
        name: str | None,
    ) -> QueryResult:
        """Budgeted optimizer run; persists + indexes whatever it finds."""
        wl = GNNWorkload(
            graph,
            features.in_features,
            features.out_features,
            name=name or graph.name or features.digest[:12],
        )
        # Inline features + digest make the persisted records
        # self-describing: a restarted service re-indexes them exactly,
        # with no dataset loader in the loop (the graph may be ad hoc).
        extra: dict[str, Any] = {
            "graph_digest": features.digest,
            "features": features.to_dict(),
        }
        if hw.label:
            extra["hw"] = hw.label
        elif hw.bandwidth is not None:
            extra["bandwidth"] = hw.bandwidth
        if hw.gb_kib is not None:
            extra["gb_kib"] = hw.gb_kib
        if name:
            extra["dataset"] = name
        opt = MappingOptimizer(
            wl,
            hw.config(),
            objective=objective,
            session=self.session,
            record_extra=extra,
        )
        stream = opt.candidate_stream(
            self.strategy, n=self.live_budget, seed=self.seed
        )
        if self.live_budget is not None:
            # The budget bounds *candidates pulled*, not legal outcomes:
            # a cold query costs at most live_budget cost-model runs even
            # when some candidates turn out illegal.
            stream = itertools.islice(stream, self.live_budget)
        try:
            # Fault seam "serving.live_search": delay past the watchdog,
            # or raise mid-search.  The except arm is the hardening it
            # exercises: *any* failure inside the search machinery
            # degrades to the best known answer instead of surfacing a
            # 500 through the front-end.
            fault_point("serving.live_search")
            with self._live_lock:
                outcomes = opt.evaluator.evaluate(
                    stream, budget=self.live_budget
                )
        except Exception:
            with self._stats_lock:
                self.search_failures += 1
            outcomes = []
        evals = opt.evaluator.stats.evaluated
        with self._stats_lock:
            self.live_searches += 1
        legal = [o for o in outcomes if o.ok]
        if legal:
            records = [opt.evaluator.to_record(o) for o in legal]
            self.index.add_records(records)
            best = min(legal, key=lambda o: outcome_score(o, objective))
            best_record = opt.evaluator.to_record(best)
            return QueryResult(
                dataflow=str(best.dataflow),
                record=best_record,
                source="live",
                objective=objective,
                score=outcome_score(best, objective),
                hw_key=hw_key,
                distance=0.0,
                exact=True,
                evals=evals,
                features=features,
                dataset=name,
            )
        # Budget produced nothing legal: degrade to the best-known point
        # on this hardware, however far its features sit.
        nearest = self.index.nearest(features, hw_key, objective)
        if nearest is None:
            raise BudgetExhausted(
                f"live search ({self.strategy}, budget={self.live_budget}) "
                f"found no legal mapping for {features.digest} on {hw_key}, "
                "and the index holds no fallback entry for that hardware"
            )
        with self._stats_lock:
            self.degraded += 1
        return self._from_lookup(
            nearest, features, hw_key, objective, evals=evals, source="degraded"
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot: query-path counters, index shape, and the
        shared session's :class:`~repro.core.evaluator.EvalStats`."""
        with self._stats_lock:
            counters = {
                "queries": self.queries,
                "index_hits": self.index_hits,
                "live_searches": self.live_searches,
                "coalesced": self.coalesced,
                "degraded": self.degraded,
                "watchdog_timeouts": self.watchdog_timeouts,
                "search_failures": self.search_failures,
            }
        return {
            **counters,
            "index_entries": len(self.index),
            "front_size": self.index.front_size,
            "indexed_records": self.index.indexed,
            "skipped_records": self.index.skipped,
            "attached": len(self._snapshots),
            "session": self.session.stats.as_dict(),
        }

    def close(self) -> None:
        """Stop answering queries, and close the store when this service
        opened it from a path (a store passed in stays the caller's).
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "DataflowService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
