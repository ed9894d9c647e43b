"""Exploration sessions (the *how* of campaign evaluation).

An :class:`ExplorationSession` owns every piece of execution state the
first-generation service pinned per ``(workload, hardware)`` pair:

- **per-context memos** shared by every evaluator view of the same
  context, so two sweeps over the same dataset within a session never
  re-cost a candidate;
- **a store-backed warm cache**: when a
  :class:`~repro.analysis.store.ResultStore` is attached, its persisted
  records are indexed by fingerprint and answer repeated candidates from
  disk — a restarted campaign or a re-run
  :class:`~repro.core.optimizer.MappingOptimizer` performs zero duplicate
  cost-model runs;
- **shared caches**: one :class:`~repro.engine.tilestats.TileStats` per
  distinct graph and one :class:`~repro.engine.phasecache.PhaseEngineCache`
  per context.

Every evaluation runs in the calling process; ``repro.distributed`` shards
a campaign's unit grid over processes, one session per shard.
``session.evaluator(wl, hw)`` returns a thin
:class:`~repro.core.evaluator.DataflowEvaluator` view.  All of this state
is plain process memory: a session holds no file handle or process, so
it has nothing to close.  The store belongs to the caller, who closes it.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from ..analysis.store import ResultStore
from ..arch.config import AcceleratorConfig
from ..core.evaluator import DataflowEvaluator, EvalStats
from ..core.workload import GNNWorkload
from ..engine.phasecache import PhaseEngineCache
from ..engine.tilestats import TileStats, TileStatsRegistry
from ..graphs.csr import CSRGraph

__all__ = ["ExplorationSession"]


class ExplorationSession:
    """Shared execution state for any number of evaluation contexts.

    Parameters
    ----------
    store:
        Optional :class:`~repro.analysis.store.ResultStore` — the one
        place a store attaches to evaluation.  Fresh outcomes stream into
        it, and its existing records and error sidecar seed the warm
        cache.
    """

    def __init__(self, *, store: ResultStore | None = None) -> None:
        self.store = store
        self.stats = EvalStats()
        # Guards the shared counters and warm-cache mutation when several
        # threads drive one session (serving answers queries from
        # ``asyncio.to_thread`` workers); per-context memos are only ever
        # touched by their own evaluator views plus single dict
        # operations here.
        self.lock = threading.Lock()
        self._memos: dict[str, dict] = {}
        self._warm: dict[str, dict] = {}  # warm records read so far
        self._warm_fps: set[str] = set()  # every warm-servable fingerprint
        self._warm_errors: dict[str, str] = {}
        self._tilestats = TileStatsRegistry()
        self._phase_caches: dict[str, PhaseEngineCache] = {}
        if store is not None:
            self.preload_store()

    # -- warm cache -----------------------------------------------------
    def preload_store(self) -> int:
        """(Re)index the store's persisted records into the warm cache.

        Returns the number of records indexed.  Keyed by the candidate
        fingerprint the evaluator computes, so only records persisted
        through the service (which tags fingerprints) can be answered
        from disk.  Records from an older export schema are skipped —
        they may lack fields the outcome accessors need (e.g. pipeline
        busy cycles), so serving them warm would silently degrade sweep
        rows; the model re-runs those candidates instead (the store's
        dedup index still absorbs the duplicate append).

        The store's fingerprint->schema map was built by the scan that
        opened it, so this preload parses **no** record contents at all
        — each warm *hit* later seeks to its one line via ``record_for``.
        """
        # Imported here: analysis sits above core/campaign plumbing.
        from ..analysis.export import SCHEMA_VERSION

        with self.lock:
            self._warm_fps.update(
                fp
                for fp, schema in self.store.fingerprint_schemas().items()
                if schema == SCHEMA_VERSION
            )
            self._warm_errors.update(self.store.errors())
            return len(self._warm_fps)

    def warm_get(self, fingerprint: str) -> dict | None:
        record = self._warm.get(fingerprint)
        if record is None and fingerprint in self._warm_fps:
            record = self.store.record_for(fingerprint)
            with self.lock:
                self._warm[fingerprint] = record
        return record

    def warm_error_get(self, fingerprint: str) -> str | None:
        """Persisted illegal-candidate message for ``fingerprint``, if the
        store's error sidecar recorded one in an earlier session."""
        return self._warm_errors.get(fingerprint)

    @property
    def warm_size(self) -> int:
        return len(self._warm_fps)

    @property
    def warm_error_size(self) -> int:
        return len(self._warm_errors)

    # -- sparsity statistics --------------------------------------------
    def tilestats_for(self, graph: CSRGraph) -> TileStats:
        """The session-wide :class:`TileStats` handle for ``graph``.

        Deduplicated by sparsity-pattern digest, so every evaluation
        context over the same dataset — within and across units — shares
        one cache of per-tiling degree scans.
        """
        with self.lock:
            return self._tilestats.for_graph(graph)

    def phase_cache_for(self, ctx_key: str) -> PhaseEngineCache:
        """The per-context phase-engine result cache.

        Keyed by evaluation context — engine runs embed the hardware
        point, so contexts could never share entries anyway; keeping the
        caches separate also keeps their lifetime aligned with the
        context's memo.  Like the memos, a context's cache is only ever
        touched by that context's evaluator views.
        """
        with self.lock:
            cache = self._phase_caches.get(ctx_key)
            if cache is None:
                cache = self._phase_caches[ctx_key] = PhaseEngineCache()
            return cache

    def cache_counters(self) -> dict:
        """Session-wide cache-efficacy snapshot (execution accounting).

        Phase-engine counters come from :class:`EvalStats`; tilestats
        counters aggregate the registry's handles.
        """
        with self.lock:
            ts_hits, ts_misses = self._tilestats.counters()
            return {
                "phase_hits": self.stats.phase_hits,
                "phase_misses": self.stats.phase_misses,
                "tilestats_hits": ts_hits,
                "tilestats_misses": ts_misses,
            }

    # -- per-context state ----------------------------------------------
    def memo_for(self, ctx_key: str) -> dict:
        return self._memos.setdefault(ctx_key, {})

    def evaluator(
        self,
        wl: GNNWorkload,
        hw: AcceleratorConfig,
        *,
        record_extra: Mapping[str, Any] | None = None,
        partition=None,
    ) -> DataflowEvaluator:
        """A thin evaluator view of this session for one context."""
        return DataflowEvaluator(
            wl, hw, record_extra=record_extra, session=self,
            partition=partition,
        )
