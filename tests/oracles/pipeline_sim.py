"""Oracles for the PP producer/consumer pipeline.

:func:`bounded_pipeline` is the recurrence in its direct array form, one
numpy-indexed iteration per granule: the bit-exact reference for the
production kernel :func:`repro.core.pipeline.bounded_pipeline_batch`.

:func:`simulate_pipeline` is an independent discrete-event implementation
of the same parallel-pipeline semantics.  Here the two engines and the
ping-pong buffer are explicit actors advancing through an event queue:

- the producer works on granule ``i`` for ``t_prod[i]`` time units, then
  needs a free buffer bank to deposit it;
- the consumer grabs the oldest deposited granule, works for
  ``t_cons[i]``, then frees the bank;
- ``depth`` banks exist; producer blocks when all banks hold undelivered
  or in-flight granules.

Because blocking/banking is modeled structurally (bank objects, event
queue) rather than by index arithmetic, agreement with the recurrence is
a meaningful check — asserted exactly in tests/test_pipeline_sim.py.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import PipelineReport, _check_series

__all__ = ["SimTrace", "bounded_pipeline", "simulate_pipeline"]


def bounded_pipeline(
    prod: np.ndarray, cons: np.ndarray, *, depth: int = 2
) -> PipelineReport:
    """Run the bounded-buffer pipeline recurrence for one candidate.

    ``prod[i]``/``cons[i]`` are the cycles to produce/consume granule ``i``.
    ``depth`` is the number of ping-pong banks (2 in the paper).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p, c = _check_series(prod, cons)
    n = len(p)
    if n == 0:
        return PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)

    prod_done = np.zeros(n)
    cons_done = np.zeros(n)
    prod_stall = 0.0
    cons_stall = 0.0
    for i in range(n):
        start_p = prod_done[i - 1] if i > 0 else 0.0
        if i - depth >= 0:
            waited = max(start_p, cons_done[i - depth])
            prod_stall += waited - start_p
            start_p = waited
        prod_done[i] = start_p + p[i]
        start_c = cons_done[i - 1] if i > 0 else 0.0
        waited_c = max(start_c, prod_done[i])
        cons_stall += waited_c - start_c
        cons_done[i] = waited_c + c[i]

    total = float(cons_done[-1])
    return PipelineReport(
        total_cycles=int(np.ceil(total)),
        num_granules=n,
        producer_busy=float(p.sum()),
        consumer_busy=float(c.sum()),
        producer_stall=float(prod_stall),
        consumer_stall=float(cons_stall),
        fill_cycles=float(p[0]),
    )


@dataclass(frozen=True)
class SimTrace:
    """Event-level outcome of one pipelined execution."""

    total_time: float
    produce_done: np.ndarray  # time each granule entered the buffer
    consume_done: np.ndarray  # time each granule finished consumption
    max_banks_used: int

    @property
    def num_granules(self) -> int:
        return len(self.produce_done)


def simulate_pipeline(
    prod: np.ndarray, cons: np.ndarray, *, depth: int = 2
) -> SimTrace:
    """Run the producer/consumer actors through a discrete-event queue."""
    p = np.asarray(prod, dtype=np.float64)
    c = np.asarray(cons, dtype=np.float64)
    if p.shape != c.shape or p.ndim != 1:
        raise ValueError("producer/consumer series must be equal-length 1-D arrays")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = len(p)
    if n == 0:
        return SimTrace(0.0, np.zeros(0), np.zeros(0), 0)
    if np.any(p < 0) or np.any(c < 0):
        raise ValueError("granule times must be non-negative")

    # Event queue entries: (time, seq, kind, granule)
    counter = itertools.count()
    events: list[tuple[float, int, str, int]] = []
    produce_done = np.full(n, np.nan)
    consume_done = np.full(n, np.nan)

    banks_free = depth
    max_banks_used = 0
    ready: list[int] = []  # granules deposited, not yet picked up
    next_to_produce = 0
    producer_blocked = False
    consumer_busy = False
    now = 0.0

    def start_production(t: float) -> None:
        nonlocal next_to_produce, banks_free, producer_blocked
        if next_to_produce >= n:
            return
        if banks_free == 0:
            producer_blocked = True
            return
        banks_free -= 1
        g = next_to_produce
        next_to_produce += 1
        heapq.heappush(events, (t + p[g], next(counter), "produced", g))

    def start_consumption(t: float) -> None:
        nonlocal consumer_busy
        if consumer_busy or not ready:
            return
        g = ready.pop(0)
        consumer_busy = True
        heapq.heappush(events, (t + c[g], next(counter), "consumed", g))

    start_production(0.0)
    while events:
        now, _, kind, g = heapq.heappop(events)
        if kind == "produced":
            produce_done[g] = now
            ready.append(g)
            max_banks_used = max(max_banks_used, depth - banks_free)
            start_consumption(now)
            start_production(now)
        else:  # consumed
            consume_done[g] = now
            consumer_busy = False
            banks_free += 1
            if producer_blocked:
                producer_blocked = False
                start_production(now)
            start_consumption(now)

    assert not np.isnan(consume_done).any(), "simulation deadlocked"
    return SimTrace(
        total_time=float(consume_done[-1]),
        produce_done=produce_done,
        consume_done=consume_done,
        max_banks_used=max_banks_used,
    )
