"""Bounded two-stage pipeline model for the PP inter-phase dataflow.

The paper's PP dataflow (§IV-C, Fig. 7a) runs producer and consumer phases
on disjoint PE partitions, staging granules of the intermediate matrix
through a ping-pong buffer.  With ``depth`` buffer banks the producer may
run at most ``depth`` granules ahead of the consumer; the steady-state
runtime is the paper's ``sum(max(t_AGG, t_CMB)_Pel)`` plus the pipeline
fill, and the recurrence below models the transient stalls exactly:

    prod_done[i] = max(prod_done[i-1], cons_done[i-depth]) + t_prod[i]
    cons_done[i] = max(prod_done[i],  cons_done[i-1])      + t_cons[i]

Load imbalance between partitions (Fig. 14) shows up as producer or
consumer idle time, which :class:`PipelineReport` quantifies.

:func:`bounded_pipeline_batch` runs the recurrence lane by lane over
Python floats (the same IEEE doubles numpy would use, so every ``max``/``+``
is bit-identical to the direct array form kept as the oracle in
``tests/oracles/pipeline_sim.py``, fuzz-proved in
``tests/test_pipeline_batch.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PipelineReport",
    "bounded_pipeline_batch",
]

# Granules per ``.tolist()`` segment: a multi-million-granule series never
# exists as boxed Python floats all at once.
_STEP_CHUNK = 4096


@dataclass(frozen=True)
class PipelineReport:
    """Timing summary of one pipelined execution."""

    total_cycles: int
    num_granules: int
    producer_busy: float
    consumer_busy: float
    producer_stall: float  # waiting for buffer space
    consumer_stall: float  # waiting for data
    fill_cycles: float  # first granule's production latency

    @property
    def producer_utilization(self) -> float:
        return self.producer_busy / self.total_cycles if self.total_cycles else 0.0

    @property
    def consumer_utilization(self) -> float:
        return self.consumer_busy / self.total_cycles if self.total_cycles else 0.0


def _check_series(prod, cons) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(prod, dtype=np.float64)
    c = np.asarray(cons, dtype=np.float64)
    if p.shape != c.shape or p.ndim != 1:
        raise ValueError("producer/consumer series must be equal-length 1-D arrays")
    if not (np.isfinite(p).all() and np.isfinite(c).all()):
        raise ValueError("granule times must be finite")
    if np.any(p < 0) or np.any(c < 0):
        raise ValueError("granule times must be non-negative")
    return p, c


def _run_lane(p: np.ndarray, c: np.ndarray, depth: int) -> PipelineReport:
    n = len(p)
    if n == 0:
        return PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    prod_done = cons_done = prod_stall = cons_stall = 0.0
    # cons_done of the last ``depth`` granules; window[0] is granule
    # i - depth (0.0 before there is one, which never delays the producer
    # because times are non-negative).
    window = deque([0.0] * depth, maxlen=depth)
    push = window.append
    for pos in range(0, n, _STEP_CHUNK):
        seg = slice(pos, pos + _STEP_CHUNK)
        for p_i, c_i in zip(p[seg].tolist(), c[seg].tolist()):
            freed = window[0]
            if freed > prod_done:
                prod_stall += freed - prod_done
                prod_done = freed
            prod_done += p_i
            if prod_done > cons_done:
                cons_stall += prod_done - cons_done
                cons_done = prod_done
            cons_done += c_i
            push(cons_done)
    return PipelineReport(
        total_cycles=int(np.ceil(cons_done)),
        num_granules=n,
        producer_busy=float(p.sum()),
        consumer_busy=float(c.sum()),
        producer_stall=prod_stall,
        consumer_stall=cons_stall,
        fill_cycles=float(p[0]),
    )


def bounded_pipeline_batch(
    prod_series: Sequence[np.ndarray],
    cons_series: Sequence[np.ndarray],
    *,
    depth: int = 2,
) -> list[PipelineReport]:
    """Run the recurrence for a batch of candidates.

    ``prod_series[b]``/``cons_series[b]`` are candidate ``b``'s per-granule
    production/consumption times in cycles (1-D, finite, non-negative,
    possibly different lengths across the batch, possibly empty).
    ``depth`` is the number of ping-pong banks (2 in the paper).  Every
    series is checked before any lane runs; the reports come back in
    batch order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(prod_series) != len(cons_series):
        raise ValueError("batch needs one consumer series per producer series")
    pairs = [_check_series(p, c) for p, c in zip(prod_series, cons_series)]
    return [_run_lane(p, c, depth) for p, c in pairs]
