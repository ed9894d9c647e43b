"""Task-keyed worker pool: one process pool, many evaluation contexts.

The first-generation evaluation service pinned one ``(workload, hardware)``
pair per ``multiprocessing.Pool`` via the pool initializer, so every
dataset (and every hardware point) of a campaign paid its own pool spawn.
This module replaces that protocol: a single :class:`TaskKeyedPool` is
shared by every context, and the context travels *with the task* as a
key.  Contexts are pickled once into a spool directory by the parent;
each worker process lazily loads and caches the context blob the first
time it sees a task carrying that key, so steady-state tasks cost one
small tuple pickle regardless of how many contexts are in flight.

The protocol is deliberately function-agnostic — the pool maps a
module-level ``fn(ctx, item)`` over ``(key, item)`` tasks — so the
evaluator, future shard executors, and tests can all reuse it.

:meth:`TaskKeyedPool.map` is thread-safe: serving calls the session from
``asyncio.to_thread`` workers, so batches from several threads may share
the worker processes, each caller blocking only on its own batch.

Because each worker unpickles a context blob **once** and then reuses the
same object for every task carrying that key, mutable per-context state
rides along for free: the evaluation service ships its
:class:`~repro.engine.tilestats.TileStats` sparsity cache inside the
context tuple, and every candidate a worker costs for that context keeps
filling (and hitting) the worker's own copy of the cache.
"""

from __future__ import annotations

import functools
import os
import pickle
import shutil
import tempfile
import threading
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import ReproError, WorkerCrashError

__all__ = ["TaskKeyedPool"]


# Per-worker-process cache of unpickled contexts, keyed by spool path.
# Module-level so it survives across map() calls within one worker.
_CTX_CACHE: dict[str, Any] = {}


def _load_ctx(path: str) -> Any:
    ctx = _CTX_CACHE.get(path)
    if ctx is None:
        with open(path, "rb") as fh:
            ctx = pickle.load(fh)
        _CTX_CACHE[path] = ctx
    return ctx


def _crossable(exc: BaseException) -> bool:
    """Whether ``exc`` survives a pickle round-trip intact.

    ``multiprocessing`` pickles a worker exception to send it to the
    parent; an exception whose constructor signature breaks unpickling
    (or that is not picklable at all) would surface as an opaque pool
    error instead of the real failure.
    """
    try:
        return isinstance(pickle.loads(pickle.dumps(exc)), type(exc))
    except Exception:
        return False


def _dispatch(fn: Callable[[Any, Any], Any], task: tuple[str, Any]) -> Any:
    path, item = task
    try:
        # Fault seam "pool.task": an injected plan can raise a library
        # error (travels annotated, like a LegalityError would) or an
        # unpicklable crash (exercises WorkerCrashError's transport).
        # Kills are deliberately unsupported here — losing an in-flight
        # pool task would hang map_async forever, which is a *pool*
        # redesign, not a fault to inject.
        from ..faults.injector import fault_point

        fault_point("pool.task")
        return fn(_load_ctx(path), item)
    except Exception as exc:
        tb = traceback.format_exc()
        if isinstance(exc, ReproError):
            # Annotate rather than wrap: the parent should still see the
            # original type (``except LegalityError`` keeps working), now
            # carrying the worker-side traceback text.  The attribute
            # rides across the boundary via ``__dict__`` pickling.
            try:
                exc.worker_traceback = tb
            except AttributeError:  # pragma: no cover - __slots__ subclass
                pass
            if _crossable(exc):
                raise
        raise WorkerCrashError.from_exception(exc, tb) from None


class TaskKeyedPool:
    """A ``multiprocessing`` pool whose tasks carry their own context key.

    Parameters
    ----------
    workers:
        Worker process count; ``workers < 0`` uses every available CPU.
        ``workers == 0`` is rejected — serial execution needs no pool.
    fn:
        A **module-level** function ``fn(ctx, item) -> result`` (it must
        pickle under the spawn start method).
    chunksize:
        Tasks handed to a worker per scheduling quantum.
    """

    def __init__(
        self,
        workers: int,
        fn: Callable[[Any, Any], Any],
        *,
        chunksize: int = 8,
    ) -> None:
        if workers == 0:
            raise ValueError("TaskKeyedPool needs workers != 0")
        self.workers = (os.cpu_count() or 1) if workers < 0 else workers
        self.fn = fn
        self.chunksize = chunksize
        self._lock = threading.Lock()
        self._pool = None
        self._spool: Path | None = None
        self._registered: dict[str, str] = {}  # key -> spool path

    # -- context registration ------------------------------------------
    def register(self, key: str, ctx: Any) -> str:
        """Spool ``ctx`` under ``key`` (idempotent); returns the blob path.

        The blob is written before any task carrying ``key`` is
        dispatched, so workers can always resolve the key lazily.
        Thread-safe: concurrent registrations serialize on the spool.
        """
        with self._lock:
            path = self._registered.get(key)
            if path is None:
                if self._spool is None:
                    self._spool = Path(
                        tempfile.mkdtemp(prefix="repro-taskpool-")
                    )
                blob = self._spool / f"ctx-{key}.pkl"
                with blob.open("wb") as fh:
                    pickle.dump(ctx, fh, protocol=pickle.HIGHEST_PROTOCOL)
                path = str(blob)
                self._registered[key] = path
            return path

    # -- execution ------------------------------------------------------
    def map(
        self, key: str, items: Sequence[Any], *, chunksize: int | None = None
    ) -> list[Any]:
        """Run ``fn(ctx_of(key), item)`` for each item, preserving order.

        ``key`` must have been :meth:`register`-ed first.  Thread-safe:
        the batch is enqueued under the pool lock and awaited outside it,
        so batches from different threads interleave over the same
        worker processes and only this caller waits on this batch.
        ``chunksize`` overrides the pool default for this batch — callers
        passing pre-packed item groups pass ``1`` so each group is its
        own scheduling quantum.
        """
        with self._lock:
            path = self._registered.get(key)
            if path is None:
                raise KeyError(f"context key {key!r} was never registered")
            if self._pool is None:
                import multiprocessing

                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
                self._pool = multiprocessing.get_context(method).Pool(
                    self.workers
                )
            async_result = self._pool.map_async(
                functools.partial(_dispatch, self.fn),
                [(path, item) for item in items],
                chunksize=self.chunksize if chunksize is None else chunksize,
            )
        return async_result.get()

    @property
    def started(self) -> bool:
        """Whether worker processes have actually been spawned yet."""
        return self._pool is not None

    @property
    def registered_keys(self) -> frozenset[str]:
        """Context keys whose blobs are currently spooled."""
        return frozenset(self._registered)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Terminate workers and remove the context spool (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
            if self._spool is not None:
                shutil.rmtree(self._spool, ignore_errors=True)
                self._spool = None
            self._registered.clear()

    def __enter__(self) -> "TaskKeyedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
