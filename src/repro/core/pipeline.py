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

:func:`bounded_pipeline_batch` runs each lane one of two ways.

*Loop.* Granule by granule over Python floats (the same IEEE doubles numpy
would use, so every ``max``/``+`` is bit-identical to the direct array form
kept as the oracle in ``tests/oracles/pipeline_sim.py``).

*(max,+) block kernel.*  The state ``x_i = (prod_done[i], cons_done[i], ...,
cons_done[i-depth+1])`` advances by ``x_i = M_i ⊗ x_{i-1}``, a
(depth+1)x(depth+1) matrix product in the (max,+) semiring, so a run of
granules composes into one transfer matrix.  The kernel cuts an
``n``-granule lane into ``n // isqrt(n)`` blocks of ``isqrt(n)`` granules
(the ``n mod isqrt(n)`` head granules go through the loop to seed the
state), builds every block's matrix at once with one numpy step per granule
column of a ``reshape(blocks, isqrt(n))`` view (the strided columns are
copied step-major in slabs of at most ``_ARRAY_CHUNK`` granules, never the
whole lane), then folds the blocks in order: O(sqrt(n)) numpy steps instead
of ``n`` Python iterations.  It reports the stalls as
``prod_done[n-1] - sum(t_prod)`` and ``cons_done[n-1] - sum(t_cons)``.

*Guard.* Reassociating the recurrence changes no bit only when no ``+``
rounds.  A lane takes the kernel when every granule time is an integer and
``sum(t_prod) + sum(t_cons) < 2**53``: every state value and every finite
matrix entry is then an integer no larger than that sum, so every
intermediate is exact, and so are the loop's stall sums it replaces.  (The float sums of
non-negative terms reach ``2**53`` exactly when the true sums do, so the
test itself cannot be fooled by rounding.)  Any other lane runs the loop.
Both paths are fuzzed against the oracle in
``tests/test_pipeline_batch.py``.
"""

from __future__ import annotations

import math
import operator
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
# Granules per array temporary of the (max,+) path: the guard's
# integrality test and the kernel's step-major column copies stay this
# small however long the lane is.
_ARRAY_CHUNK = 1 << 16
# Below this every integer is a double, and so is every sum of them.
_EXACT_LIMIT = 2.0**53


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


def _loop(
    p: np.ndarray, c: np.ndarray, depth: int
) -> tuple[float, list[float], float, float]:
    """Run the recurrence granule by granule from the zero start state.

    Returns ``(prod_done, window, prod_stall, cons_stall)``; ``window``
    holds the last ``depth`` consumer finish times, oldest first.
    """
    prod_done = cons_done = prod_stall = cons_stall = 0.0
    # cons_done of the last ``depth`` granules; window[0] is granule
    # i - depth (0.0 before there is one, which never delays the producer
    # because times are non-negative).
    window = deque([0.0] * depth, maxlen=depth)
    push = window.append
    for pos in range(0, len(p), _STEP_CHUNK):
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
    return prod_done, list(window), prod_stall, cons_stall


def _is_integral(series: np.ndarray) -> bool:
    for pos in range(0, len(series), _ARRAY_CHUNK):
        chunk = series[pos : pos + _ARRAY_CHUNK]
        if not (np.floor(chunk) == chunk).all():
            return False
    return True


def _maxplus_lane(p: np.ndarray, c: np.ndarray, depth: int) -> tuple[float, float]:
    """``(prod_done, cons_done)`` of the last granule, by (max,+) blocks.

    Exact only under the guard in :func:`_run_lane` (see the module
    docstring).
    """
    block = math.isqrt(len(p))
    nblocks, head = divmod(len(p), block)
    prod_done, window, _, _ = _loop(p[:head], c[:head], depth)
    # rows[r][k, b] is entry (r, k) of block b's transfer matrix; row 0 is
    # prod_done, row 1 + lag is cons_done ``lag`` granules back.  Start from the
    # (max,+) identity: 0 on the diagonal, -inf elsewhere.
    identity = np.where(np.eye(depth + 1, dtype=bool), 0.0, -np.inf)
    rows = [np.repeat(row[:, None], nblocks, axis=1) for row in identity]
    prod_row, cons_rows = rows[0], rows[1:]
    p_steps = p[head:].reshape(nblocks, block)
    c_steps = c[head:].reshape(nblocks, block)
    # A granule column of the view is strided (one element per block), so
    # the columns are copied step-major, a bounded slab at a time.
    width = max(1, _ARRAY_CHUNK // nblocks)
    for first in range(0, block, width):
        cols = slice(first, first + width)
        for p_j, c_j in zip(p_steps[:, cols].T.copy(), c_steps[:, cols].T.copy()):
            np.maximum(prod_row, cons_rows[-1], out=prod_row)
            prod_row += p_j
            # The row of granule i - depth is dead now: reuse it for granule i.
            np.maximum(prod_row, cons_rows[0], out=cons_rows[-1])
            cons_rows[-1] += c_j
            cons_rows.insert(0, cons_rows.pop())
    # Fold the blocks in order over Python floats (the same doubles).
    state = [prod_done, *reversed(window)]
    matrices = np.stack([prod_row, *cons_rows]).transpose(2, 0, 1)
    for matrix in matrices.tolist():
        state = [max(map(operator.add, row, state)) for row in matrix]
    return state[0], state[1]


def _run_lane(p: np.ndarray, c: np.ndarray, depth: int) -> PipelineReport:
    n = len(p)
    if n == 0:
        return PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    producer_busy = float(p.sum())
    consumer_busy = float(c.sum())
    if (
        producer_busy + consumer_busy < _EXACT_LIMIT
        and _is_integral(p)
        and _is_integral(c)
    ):
        prod_done, cons_done = _maxplus_lane(p, c, depth)
        prod_stall = prod_done - producer_busy
        cons_stall = cons_done - consumer_busy
    else:
        _, window, prod_stall, cons_stall = _loop(p, c, depth)
        cons_done = window[-1]
    return PipelineReport(
        total_cycles=int(np.ceil(cons_done)),
        num_granules=n,
        producer_busy=producer_busy,
        consumer_busy=consumer_busy,
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
