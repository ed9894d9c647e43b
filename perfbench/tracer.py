"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps functions of the program where callers look them up -- a
module attribute or a class attribute -- and records one span per call:
its layer name, start, end and parent span.  Nothing inside the program
changes, and :meth:`Tracer.close` puts every original back, so a later
untraced run in the same process records nothing.

A name imported by value (``from .granularity import granule_series``) is
a separate binding in the importing module, so the patch must land there
too: :meth:`Tracer.patch` takes the list of modules holding such bindings.

Spans stay in memory until :meth:`Tracer.layers` folds them into per-layer
self time (a span's duration minus its direct children's) and call counts.
The benchmark is single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager


class Tracer:
    """Install wrappers with :meth:`patch`, run the work, then
    :meth:`close` (or use the tracer as a context manager)."""

    def __init__(self) -> None:
        # One [name, start, end, parent] list per span; end is None while
        # the span is open, parent is -1 for a root span.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn, on_result):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's body runs inside next(), not when it is
            # created: one span per resumption covers iteration only.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    if on_result is not None:
                        on_result(tracer, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, out)
            return out

        return wrapper

    def patch(self, target: str, name: str, *, holders=(), on_result=None) -> None:
        """Wrap ``target`` -- ``"pkg.module:func"`` or
        ``"pkg.module:Class.method"`` -- as layer ``name``.

        ``holders`` lists further modules that imported the function by
        value; their bindings get the same wrapper.  ``on_result(tracer,
        value)`` runs after each call, or after each item a generator
        yields, to record counts.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, on_result)
        self._set(owner, attr, wrapped)
        for holder_name in holders:
            holder = importlib.import_module(holder_name)
            if getattr(holder, attr) is not original:
                raise RuntimeError(f"{holder_name}.{attr} is not {target}")
            self._set(holder, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Restore every patched attribute, newest first.  Idempotent."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- folding --------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s": seconds, "calls": n}}`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            if end is None:
                continue
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += end - start - children
            entry["calls"] += 1
        return out

