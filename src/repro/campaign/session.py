"""Exploration sessions (the *how* of campaign evaluation).

An :class:`ExplorationSession` owns every piece of execution machinery the
first-generation service pinned per ``(workload, hardware)`` pair:

- **one task-keyed worker pool** (:class:`~repro.core.pool.TaskKeyedPool`)
  shared across all evaluation contexts — a multi-dataset campaign pays
  one pool spawn total, and each context's ``(workload, hw)`` blob ships
  to workers once, keyed by its context hash;
- **per-context memos** shared by every evaluator view of the same
  context, so two sweeps over the same dataset within a session never
  re-cost a candidate;
- **a store-backed warm cache**: when a
  :class:`~repro.analysis.store.ResultStore` is attached, its persisted
  records are indexed by fingerprint and answer repeated candidates from
  disk — a restarted campaign or a re-run
  :class:`~repro.core.optimizer.MappingOptimizer` performs zero duplicate
  cost-model runs.

``session.evaluator(wl, hw)`` returns a thin
:class:`~repro.core.evaluator.DataflowEvaluator` view; closing a view is
a no-op, closing the session tears down the pool.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Mapping

from ..arch.config import AcceleratorConfig
from ..core.evaluator import DataflowEvaluator, EvalStats, _task_eval
from ..core.pool import TaskKeyedPool
from ..core.workload import GNNWorkload
from ..engine.phasecache import PhaseEngineCache
from ..engine.tilestats import TileStats, TileStatsRegistry
from ..graphs.csr import CSRGraph

__all__ = ["ExplorationSession"]


class ExplorationSession:
    """Shared execution state for any number of evaluation contexts.

    Parameters
    ----------
    workers:
        ``0`` (default) evaluates serially in-process; ``n > 0`` fans
        uncached candidates out over an ``n``-process task-keyed pool
        shared by **all** contexts; negative uses every CPU.  Records are
        byte-identical regardless of the setting.
    chunksize:
        Candidates handed to a worker per scheduling quantum.
    store:
        Optional :class:`~repro.analysis.store.ResultStore`.  Fresh
        successful evaluations stream into it; with ``warm`` (default)
        its existing records also seed the warm cache.
    warm:
        Preload the store's persisted records as a fingerprint-keyed warm
        cache (``warm=False`` keeps the store write-only, the
        pre-campaign behaviour).
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        chunksize: int = 8,
        store: Any | None = None,
        warm: bool = True,
        phase_cache: bool = True,
    ) -> None:
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.workers = (os.cpu_count() or 1) if workers < 0 else workers
        self.chunksize = chunksize
        self.store = store
        self.phase_cache = phase_cache
        self.stats = EvalStats()
        # Guards the shared counters and warm-cache mutation when the
        # campaign scheduler drives several unit threads through one
        # session; per-context memos are only ever touched by their own
        # unit's evaluator views plus single dict operations here.
        self.lock = threading.Lock()
        self._memos: dict[str, dict] = {}
        self._warm: dict[str, dict] = {}  # loaded warm records
        self._warm_fps: set[str] = set()  # every warm-servable fingerprint
        self._warm_errors: dict[str, str] = {}
        self._tilestats = TileStatsRegistry()
        self._phase_caches: dict[str, PhaseEngineCache] = {}
        self._pool: TaskKeyedPool | None = None
        self._closed = False
        if store is not None and warm:
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

        A :class:`~repro.analysis.store.ResultStore` exposes its
        fingerprint->schema map straight from the offset index, so this
        preload parses **no** record contents at all — each warm *hit*
        later seeks to its one line via ``record_for``.  Duck-typed
        stores without that surface fall back to a full ``records()``
        walk (the pre-index behaviour).
        """
        # Imported here: analysis sits above core/campaign plumbing.
        from ..analysis.export import SCHEMA_VERSION

        schemas = getattr(self.store, "fingerprint_schemas", None)
        with self.lock:
            if callable(schemas):
                self._warm_fps.update(
                    fp
                    for fp, schema in schemas().items()
                    if schema == SCHEMA_VERSION
                )
            else:
                for record in self.store.records():
                    fp = record.get("fingerprint")
                    if fp and record.get("schema") == SCHEMA_VERSION:
                        self._warm[str(fp)] = record
                        self._warm_fps.add(str(fp))
            errors = getattr(self.store, "errors", None)
            if callable(errors):
                self._warm_errors.update(errors())
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

    def phase_cache_for(self, ctx_key: str) -> PhaseEngineCache | None:
        """The per-context phase-engine result cache (or ``None`` when the
        session was built with ``phase_cache=False``).

        Keyed by evaluation context — engine runs embed the hardware
        point, so contexts could never share entries anyway; keeping the
        caches separate also keeps their lifetime aligned with the
        context's memo.  Like the memos, a context's cache is only ever
        touched by that context's evaluator views (the campaign scheduler
        chains same-context units onto one thread).
        """
        if not self.phase_cache:
            return None
        with self.lock:
            cache = self._phase_caches.get(ctx_key)
            if cache is None:
                cache = self._phase_caches[ctx_key] = PhaseEngineCache()
            return cache

    def cache_counters(self) -> dict:
        """Session-wide cache-efficacy snapshot (execution accounting).

        Phase-engine counters come from :class:`EvalStats` (which folds in
        worker-side deltas); tilestats counters aggregate the registry's
        parent-side handles.  Worker-process tilestats fills are not
        visible here — each worker rebuilds its own sparsity cache — so
        the tilestats line reports the coordinating process only.
        """
        with self.lock:
            ts_hits, ts_misses = self._tilestats.counters()
            mem = self._tilestats.memory_counters()
            return {
                "phase_hits": self.stats.phase_hits,
                "phase_misses": self.stats.phase_misses,
                "tilestats_hits": ts_hits,
                "tilestats_misses": ts_misses,
                # Monotone memory accounting only: the campaign checkpoint
                # journals per-unit *deltas* of this dict, so instantaneous
                # gauges (live nbytes) stay out — read those straight from
                # ``tilestats_memory()`` instead.
                "tilestats_peak_nbytes": mem["peak_nbytes"],
                "tilestats_evictions": mem["evictions"],
            }

    def tilestats_memory(self) -> dict:
        """Live memory accounting of the session's sparsity caches
        (includes the instantaneous ``nbytes`` gauge, unlike the monotone
        :meth:`cache_counters` snapshot)."""
        with self.lock:
            return self._tilestats.memory_counters()

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
        if self._closed:
            raise RuntimeError("session is closed")
        return DataflowEvaluator(
            wl, hw, record_extra=record_extra, session=self,
            partition=partition,
        )

    # -- pool -----------------------------------------------------------
    def ensure_pool(self) -> None:
        """Create and spawn the shared pool from the calling thread.

        The campaign scheduler calls this from its coordinator thread
        *before* launching unit threads: the pool's worker processes are
        forked while the process is still effectively single-threaded,
        instead of lazily from inside a unit thread while siblings hold
        locks (a fork-in-multithreaded-parent deadlock hazard).  No-op
        for serial sessions (``workers == 0``).
        """
        if self.workers == 0:
            return
        with self.lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._pool is None:
                self._pool = TaskKeyedPool(
                    self.workers, _task_eval, chunksize=self.chunksize
                )
            pool = self._pool
        pool.start()

    def map(
        self,
        ctx_key: str,
        ctx: Any,
        items: list,
        *,
        chunksize: int | None = None,
    ) -> list:
        """Fan ``items`` out over the shared pool under ``ctx_key``.

        Safe to call from several unit threads at once: the pool is
        created exactly once, and overlapping calls interleave their task
        batches over the same worker processes.  ``chunksize`` overrides
        the pool default for this batch (the evaluator passes ``1``: its
        items are pre-packed candidate groups).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        with self.lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._pool is None:
                self._pool = TaskKeyedPool(
                    self.workers, _task_eval, chunksize=self.chunksize
                )
            pool = self._pool
        pool.register(ctx_key, ctx)
        return pool.map(ctx_key, items, chunksize=chunksize)

    @property
    def pool_started(self) -> bool:
        return self._pool is not None and self._pool.started

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the shared pool down (idempotent).  The store, which the
        caller owns, is left open."""
        with self.lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ExplorationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
