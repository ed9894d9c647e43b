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

:func:`bounded_pipeline` runs the recurrence for one candidate, one
Python iteration per granule.  :func:`bounded_pipeline_batch` runs it once
per granule *step* across a whole batch of candidates simultaneously — B
lanes advance through step ``i`` with a handful of numpy vector
operations, instead of B separate Python loops.  Ragged batches are sorted
longest-first so the lanes still running at any step form a prefix: each
step updates prefix views only, finished lanes freeze at their final
values, and zero padding can never perturb a lane's arithmetic (every
``max``/``+`` a lane sees is the exact operation the scalar loop would
have performed, in the same order — equality is bit-wise, not
approximate, and fuzz-proved against the scalar loop and the
discrete-event oracle in ``tests/test_pipeline_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PipelineReport",
    "bounded_pipeline",
    "bounded_pipeline_batch",
]

# Below this many still-running lanes the batched step's ufunc overhead
# exceeds the scalar loop's per-step cost; the batch kernel cuts over to
# scalar continuations there (a ragged batch's long tail is typically a
# handful of element-granularity candidates).
_MIN_LANES = 8

# Steps per refill of the batch region's step-major buffers: bounds the
# kernel's working set to O(_STEP_CHUNK x lanes) elements.
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
    if np.any(p < 0) or np.any(c < 0):
        raise ValueError("granule times must be non-negative")
    return p, c


def bounded_pipeline(
    prod: np.ndarray, cons: np.ndarray, *, depth: int = 2
) -> PipelineReport:
    """Run the bounded-buffer pipeline recurrence for one candidate.

    ``prod[i]``/``cons[i]`` are the cycles to produce/consume granule ``i``.
    ``depth`` is the number of ping-pong banks (2 in the paper).  Batches
    of candidates go through :func:`bounded_pipeline_batch` instead, which
    is bit-identical per lane.
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


def bounded_pipeline_batch(
    prod_series: Sequence[np.ndarray],
    cons_series: Sequence[np.ndarray],
    *,
    depth: int = 2,
) -> list[PipelineReport]:
    """Run the recurrence for a batch of candidates, one step at a time.

    ``prod_series[b]``/``cons_series[b]`` are candidate ``b``'s per-granule
    production/consumption times (1-D, possibly different lengths across
    the batch, possibly empty).  The series are zero-padded into a
    ``(B, max_n)`` grid and the depth-bounded recurrence advances all B
    lanes per granule step with vector operations; lanes whose series has
    ended are frozen by a validity mask, so each lane performs exactly the
    ``max``/``+``/stall-accumulate sequence the scalar loop would — the
    returned reports are bit-identical to
    ``[bounded_pipeline(p, c) for p, c in zip(...)]``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(prod_series) != len(cons_series):
        raise ValueError("batch needs one consumer series per producer series")
    pairs = [_check_series(p, c) for p, c in zip(prod_series, cons_series)]
    nb = len(pairs)
    if nb == 0:
        return []
    lengths = np.array([len(p) for p, _ in pairs], dtype=np.int64)
    max_n = int(lengths.max())
    if max_n == 0:
        return [PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)] * nb

    # Lanes sorted longest-first: the set of lanes still running at step
    # ``i`` is then a *prefix* of the batch, so each step operates on
    # plain prefix views — no validity masks — and finished lanes simply
    # stop being written (freezing their final values).  The prefix width
    # is tracked with a pointer over the sorted lengths (O(1) amortized),
    # never as a per-step array — series can run to millions of granules.
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    sorted_pairs = [pairs[b] for b in order]

    prod_prev = np.zeros(nb)
    cons_prev = np.zeros(nb)
    prod_stall = np.zeros(nb)
    cons_stall = np.zeros(nb)
    # Rolling window of the last ``depth`` consumer-done vectors (the
    # recurrence only ever looks back exactly ``depth`` steps).
    hist = np.zeros((depth, nb))
    # Hybrid cutover: once fewer than _MIN_LANES lanes remain, per-step
    # ufunc overhead on tiny prefixes costs more than the scalar loop, so
    # the batch loop stops there and each surviving lane finishes in a
    # scalar continuation seeded from the batch state (same op sequence,
    # so still bit-identical).  Fewer than _MIN_LANES lanes run past step
    # ``sorted_lengths[_MIN_LANES - 1]`` by construction.
    switch = (
        int(sorted_lengths[_MIN_LANES - 1]) if nb >= _MIN_LANES else 0
    )
    # The batch region reads step-major buffers refilled every
    # _STEP_CHUNK steps, so memory stays O(chunk x lanes) no matter how
    # long the longest series is (a dense (max_n, nb) grid would not fit).
    k = nb
    while k and sorted_lengths[k - 1] == 0:
        k -= 1
    for start in range(0, switch, _STEP_CHUNK):
        stop = min(switch, start + _STEP_CHUNK)
        k0 = k  # widest prefix this chunk touches
        p_buf = np.zeros((stop - start, k0))
        c_buf = np.zeros((stop - start, k0))
        for slot in range(k0):
            p, c = sorted_pairs[slot]
            hi = min(len(p), stop)
            if hi > start:
                p_buf[: hi - start, slot] = p[start:hi]
                c_buf[: hi - start, slot] = c[start:hi]
        for i in range(start, stop):
            while k and sorted_lengths[k - 1] <= i:
                k -= 1
            row = i - start
            start_p = prod_prev[:k]
            if i >= depth:
                waited = np.maximum(start_p, hist[i % depth, :k])
                prod_stall[:k] += waited - start_p
                np.add(waited, p_buf[row, :k], out=prod_prev[:k])
            else:
                np.add(start_p, p_buf[row, :k], out=prod_prev[:k])
            start_c = cons_prev[:k]
            waited_c = np.maximum(start_c, prod_prev[:k])
            cons_stall[:k] += waited_c - start_c
            np.add(waited_c, c_buf[row, :k], out=cons_prev[:k])
            hist[i % depth, :k] = cons_prev[:k]
    tail_lanes = int(np.searchsorted(-sorted_lengths, -switch, side="left"))
    for slot in range(tail_lanes):
        p, c = sorted_pairs[slot]
        n_b = len(p)
        pp = float(prod_prev[slot])
        cp = float(cons_prev[slot])
        ps_ = float(prod_stall[slot])
        cs_ = float(cons_stall[slot])
        window = [float(hist[m, slot]) for m in range(depth)]
        pos = switch
        while pos < n_b:
            seg = min(n_b, pos + _STEP_CHUNK)
            # Python-float lists: same IEEE doubles as the numpy scalars
            # (so still bit-identical) at a fraction of the interpreter
            # overhead — converted one segment at a time so a multi-
            # million-granule tail never exists as boxed floats at once.
            p_seg = p[pos:seg].tolist()
            c_seg = c[pos:seg].tolist()
            for j, (p_i, c_i) in enumerate(zip(p_seg, c_seg)):
                i = pos + j
                start_p = pp if i > 0 else 0.0
                if i >= depth:
                    waited = window[i % depth]
                    if waited > start_p:
                        ps_ += waited - start_p
                        start_p = waited
                pp = start_p + p_i
                start_c = cp if i > 0 else 0.0
                waited_c = start_c if start_c > pp else pp
                cs_ += waited_c - start_c
                cp = waited_c + c_i
                window[i % depth] = cp
            pos = seg
        prod_prev[slot] = pp
        cons_prev[slot] = cp
        prod_stall[slot] = ps_
        cons_stall[slot] = cs_

    slot_of = np.empty(nb, dtype=np.int64)
    slot_of[order] = np.arange(nb)
    reports: list[PipelineReport] = []
    for b, (p, c) in enumerate(pairs):
        if len(p) == 0:
            reports.append(PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        slot = slot_of[b]
        total = float(cons_prev[slot])
        # Busy totals come from the *unpadded* series: np.sum is pairwise,
        # so summing a zero-padded row could round differently.
        reports.append(
            PipelineReport(
                total_cycles=int(np.ceil(total)),
                num_granules=int(lengths[b]),
                producer_busy=float(p.sum()),
                consumer_busy=float(c.sum()),
                producer_stall=float(prod_stall[slot]),
                consumer_stall=float(cons_stall[slot]),
                fill_cycles=float(p[0]),
            )
        )
    return reports
