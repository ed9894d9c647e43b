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

:func:`bounded_pipeline_batch` runs each lane one of three ways.

*Loop.* Granule by granule over Python floats (the same IEEE doubles numpy
would use, so every ``max``/``+`` is bit-identical to the direct array form
kept as the oracle in ``tests/oracles/pipeline_sim.py``), except where a
*regime* holds.  Producer-bound, the producer never waits for a bank and
the consumer always waits for the data, so ``prod_done`` is a running sum
of ``t_prod`` and ``cons_done[i] = prod_done[i] + t_cons[i]``;
consumer-bound, the reverse: ``cons_done`` is a running sum of ``t_cons``
and ``prod_done[i] = cons_done[i-depth] + t_prod[i]``.  Such a stretch runs
as a *regime block*: ``np.add.accumulate`` for the running sum (seeded with
the current state), elementwise adds for the other side, and another
accumulate for the stall (seeded with the running stall).  Both branch
conditions are then checked on the computed values, and the block keeps
the steps before the first that fails; the loop steps the switching
granule.  Blocks start at ``_PROBE`` granules and double while the regime
holds, up to ``_SLAB``; lanes and tails shorter than ``_MIN_TAIL`` never
leave the loop.  *No bit changes:* on the kept steps every ``+``, ``-``
and comparison takes the loop's operands in the loop's order, and
``ufunc.accumulate`` is a sequential left fold, one rounding per step
(pinned by a test).  Ties are kept because they change nothing: where the
loop's ``>`` fails on equal values, the block starts from the other done
value, equal to the bit (no state or stall is ever ``-0.0``: each starts
at ``+0.0``, and a sum is ``-0.0`` only when both terms are), and adds a
stall of ``x - x``, which is ``+0.0``.  Every state value rises along
the lane, so only an overflow makes one infinite; a block whose last state
is infinite is left to the loop, as a tie of infinities would add a NaN
stall.

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

*Structured kernel.*  A large element-grain lane arrives as a pair of
:class:`~repro.core.granularity.GridSeries`, never as its grid: granule
``(a, b)`` of the walk costs ``outer[a] * inner[b] / total`` on each side.
Outer entries with equal (producer, consumer) shares walk the same granules,
so they share one *line* matrix.  Along the inner axis, a run of ``k`` equal
granules is ``M^k``, by repeated squaring; each line's runs, and then the
lane's runs of equal lines, fold in walk order by pairwise products.  All
of it is batched numpy over at most ``_MATRIX_CHUNK`` matrices at a time.
A lane whose runs compress the walk less than ``_MIN_COMPRESSION``-fold
expands and takes the block kernel instead.  The busy sums are closed
forms (each run pair's cell times its granule count), ``fill_cycles`` is
the first cell, and the stalls are done minus busy, as above.

*Guard.* Reassociating the recurrence changes no bit only when no ``+``
rounds.  A lane takes a kernel when every granule time is an integer and
``sum(t_prod) + sum(t_cons) < 2**53``: every state value and every finite
matrix entry that reaches the result is then an integer no larger than
that sum, so every such intermediate is exact, and so are the loop's stall
sums it replaces.  (The float sums of non-negative terms reach ``2**53``
exactly when the true sums do, so the test itself cannot be fooled by
rounding.  Repeated squaring may also form a power beyond a run's length;
such a power is discarded, so its rounding cannot matter.)  A structured
lane is checked on the cells of its runs of equal row and column shares,
which hold, bit for bit, every value the grid holds (a run pair's count
weights its cell in the busy sums); this is also where its finiteness and
sign are checked, before any lane runs.  Any other lane runs the loop; a
structured one first expands once.  The loop's regime blocks reassociate
nothing, so they need no guard.  All paths are fuzzed against the oracle
in ``tests/test_pipeline_batch.py`` and ``tests/test_pipeline_grid.py``.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .granularity import GridSeries

__all__ = [
    "PipelineReport",
    "bounded_pipeline_batch",
]

# Granules per ``.tolist()`` segment: a multi-million-granule series never
# exists as boxed Python floats all at once.
_STEP_CHUNK = 4096
# Regime blocks of the loop (see :func:`_loop`), in granules: the first
# block after a switch, the largest block, the shortest tail that tries
# one, and the most granules stepped between tries.
_PROBE = 128
_SLAB = 1 << 14
_MIN_TAIL = 512
_MAX_GAP = 1024
# Granules per array temporary of the (max,+) path: the guard's
# integrality test and the kernel's step-major column copies stay this
# small however long the lane is.
_ARRAY_CHUNK = 1 << 16
# Below this every integer is a double, and so is every sum of them.
_EXACT_LIMIT = 2.0**53
# (max,+) matrices per array temporary of the structured kernel.
_MATRIX_CHUNK = 1 << 12
# A structured lane takes the structured kernel only when the walk has at
# least this many granules per run matrix; below that, the block kernel on
# the expanded grid does less work.
_MIN_COMPRESSION = 32


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


def _steps(
    p: np.ndarray,
    c: np.ndarray,
    window: deque,
    prod_done: float,
    prod_stall: float,
    cons_stall: float,
) -> tuple[float, float, float]:
    """Advance the recurrence granule by granule over ``p``/``c``.

    ``window`` (updated in place) holds the last ``depth`` consumer finish
    times, oldest first; ``window[-1]`` is the current ``cons_done``.
    Returns the new ``(prod_done, prod_stall, cons_stall)``.
    """
    cons_done = window[-1]
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
    return prod_done, prod_stall, cons_stall


def _block(
    p: np.ndarray,
    c: np.ndarray,
    window: deque,
    prod_done: float,
    prod_stall: float,
    cons_stall: float,
) -> tuple[int, float, float, float]:
    """Advance the recurrence over ``p``/``c`` as one regime block.

    The regime is the one the first granule is in: producer-bound (the
    producer does not wait for a bank, the consumer waits for the data) or
    consumer-bound (the reverse); ties fit either.  Every step is computed
    as if the regime held, then checked, and the steps before the first
    that fails a check are kept.  Returns how many were kept (0 when the
    first granule is in neither regime) and the new ``(prod_done,
    prod_stall, cons_stall)``; ``window`` is updated in place, as by
    :func:`_steps`.
    """
    freed, cons_done, first = window[0], window[-1], float(p[0])
    if freed <= prod_done and prod_done + first >= cons_done:
        producer_bound = True
    elif freed >= prod_done and freed + first <= cons_done:
        producer_bound = False
    else:
        return 0, prod_done, prod_stall, cons_stall
    k, depth = len(p), len(window)
    # done[j + 1] is prod_done after granule j, done[0] the state before it.
    done = np.empty(k + 1)
    done[0] = prod_done
    # hist[depth + j] is cons_done after granule j and hist[:depth] the
    # window, so granule j waits for bank hist[j] and for the consumer at
    # hist[depth - 1 + j].
    hist = np.empty(depth + k)
    hist[:depth] = window
    freed, before = hist[:k], hist[depth - 1 : -1]
    stall = np.empty(k + 1)
    if producer_bound:
        done[1:] = p
        np.add.accumulate(done, out=done)
        np.add(done[1:], c, out=hist[depth:])
        ok = (freed <= done[:-1]) & (done[1:] >= before)
        stall[0] = cons_stall
        np.subtract(done[1:], before, out=stall[1:])
    else:
        hist[depth:] = c
        np.add.accumulate(hist[depth - 1 :], out=hist[depth - 1 :])
        np.add(freed, p, out=done[1:])
        ok = (freed >= done[:-1]) & (done[1:] <= before)
        stall[0] = prod_stall
        np.subtract(freed, done[:-1], out=stall[1:])
    kept = k if ok.all() else int(ok.argmin())
    if not math.isfinite(hist[depth - 1 + kept]):
        # The states rise along the lane, so only an overflow makes the
        # last one infinite; a tie of infinities would add a NaN stall.
        return 0, prod_done, prod_stall, cons_stall
    stalled = float(np.add.accumulate(stall[: kept + 1])[-1])
    if producer_bound:
        cons_stall = stalled
    else:
        prod_stall = stalled
    window.extend(hist[kept : kept + depth].tolist())
    return kept, float(done[kept]), prod_stall, cons_stall


def _loop(
    p: np.ndarray, c: np.ndarray, depth: int
) -> tuple[float, list[float], float, float]:
    """Run the recurrence from the zero start state.

    Stretches where one regime holds advance as :func:`_block` blocks of
    ``_PROBE`` granules, doubling while the regime holds, up to ``_SLAB``;
    the granule where it switches, and a tail shorter than ``_MIN_TAIL``,
    step granule by granule.  After a regime that held for less than a
    probe, or none, the granules stepped before the next block double, up
    to ``_MAX_GAP``.  Returns ``(prod_done, window, prod_stall,
    cons_stall)``; ``window`` holds the last ``depth`` consumer finish
    times, oldest first.
    """
    # cons_done of the last ``depth`` granules; window[0] is granule
    # i - depth (0.0 before there is one, which never delays the producer
    # because times are non-negative).
    window = deque([0.0] * depth, maxlen=depth)
    state = (0.0, 0.0, 0.0)  # prod_done, prod_stall, cons_stall
    n, pos = len(p), 0
    size, gap = _PROBE, 0
    while n - pos >= gap + _MIN_TAIL:
        if gap:
            state = _steps(p[pos : pos + gap], c[pos : pos + gap], window, *state)
            pos += gap
        stop = min(n, pos + size)
        kept, *state = _block(p[pos:stop], c[pos:stop], window, *state)
        pos += kept
        if pos == stop:
            size, gap = min(2 * size, _SLAB), 0
        elif kept >= _PROBE:
            size, gap = _PROBE, 1
        else:
            size, gap = _PROBE, min(2 * gap, _MAX_GAP) or 1
    prod_done, prod_stall, cons_stall = _steps(p[pos:], c[pos:], window, *state)
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


def _maxplus_report(
    n: int,
    producer_busy: float,
    consumer_busy: float,
    done: tuple[float, float],
    fill: float,
) -> PipelineReport:
    prod_done, cons_done = done
    return PipelineReport(
        total_cycles=int(np.ceil(cons_done)),
        num_granules=n,
        producer_busy=producer_busy,
        consumer_busy=consumer_busy,
        producer_stall=prod_done - producer_busy,
        consumer_stall=cons_done - consumer_busy,
        fill_cycles=fill,
    )


def _loop_report(
    p: np.ndarray,
    c: np.ndarray,
    depth: int,
    producer_busy: float,
    consumer_busy: float,
) -> PipelineReport:
    _, window, prod_stall, cons_stall = _loop(p, c, depth)
    return PipelineReport(
        total_cycles=int(np.ceil(window[-1])),
        num_granules=len(p),
        producer_busy=producer_busy,
        consumer_busy=consumer_busy,
        producer_stall=prod_stall,
        consumer_stall=cons_stall,
        fill_cycles=float(p[0]),
    )


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
        done = _maxplus_lane(p, c, depth)
        return _maxplus_report(n, producer_busy, consumer_busy, done, float(p[0]))
    return _loop_report(p, c, depth, producer_busy, consumer_busy)


# --- structured (element-grain) lanes ---------------------------------------


def _mp_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(max,+) product ``a ⊗ b`` over the last two axes, batched over the rest."""
    return (a[..., :, :, None] + b[..., None, :, :]).max(axis=-2)


def _transfer(p: np.ndarray, c: np.ndarray, depth: int) -> np.ndarray:
    """Transfer matrices of granules with times ``p``/``c`` (any shape).

    Entry ``(new, old)`` maps the state ``(prod_done, cons_done, cons_done
    one granule back, ...)`` before a granule to the state after it.
    """
    m = np.full(p.shape + (depth + 1, depth + 1), -np.inf)
    both = p + c
    m[..., 0, 0] = m[..., 0, depth] = p  # producer waits for its bank
    m[..., 1, 0] = m[..., 1, depth] = both  # consumer waits for the data
    if depth > 1:
        m[..., 1, 1] = c  # ... or for itself (at depth 1, ``both`` covers it)
        for lag in range(2, depth + 1):
            m[..., lag, lag - 1] = 0.0  # the window shifts
    return m


def _power(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``m ** k`` in the (max,+) semiring for every leading index, by
    repeated squaring (``k >= 1`` broadcasts against ``m.shape[:-2]``)."""
    k = np.broadcast_to(k, m.shape[:-2])[..., None, None]
    identity = np.where(np.eye(m.shape[-1], dtype=bool), 0.0, -np.inf)
    out = np.where((k & 1) == 1, m, identity)
    k = k >> 1
    while k.any():
        m = _mp_mul(m, m)
        out = np.where((k & 1) == 1, _mp_mul(m, out), out)
        k = k >> 1
    return out


def _fold(m: np.ndarray) -> np.ndarray:
    """Walk-order product ``m[-1] ⊗ ... ⊗ m[0]`` along axis -3, pairwise."""
    while m.shape[-3] > 1:
        later = _mp_mul(m[..., 1::2, :, :], m[..., 0:-1:2, :, :])
        if m.shape[-3] % 2:
            later = np.concatenate([later, m[..., -1:, :, :]], axis=-3)
        m = later
    return m[..., 0, :, :]


def _chain(
    make: Callable[[slice], np.ndarray], lengths: np.ndarray, batch: int
) -> np.ndarray:
    """Walk-order product of ``make(s)[..., j] ** lengths[j]`` over every
    run ``j``, ``make(s)`` giving the matrices of the runs in slice ``s``
    (``batch`` of them per run); a bounded slab of runs at a time."""
    step = max(1, _MATRIX_CHUNK // batch)
    out = None
    for first in range(0, len(lengths), step):
        s = slice(first, first + step)
        part = _fold(_power(make(s), lengths[s]))
        out = part if out is None else _mp_mul(part, out)
    return out


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the runs of equal consecutive entries of
    ``keys`` (equal-length 1-D arrays), taken together."""
    n = len(keys[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(starts, append=n)


@dataclass(frozen=True)
class _GridLane:
    """A checked structured lane: ``exact`` says it passed the guard, and
    then ``producer_busy``/``consumer_busy`` are its exact sums."""

    prod: GridSeries
    cons: GridSeries
    exact: bool
    producer_busy: float
    consumer_busy: float


def _run_cells(series: GridSeries) -> tuple[np.ndarray, np.ndarray]:
    """Every value ``series`` holds, once per pair of runs of equal row and
    column shares, and how many granules each pair covers."""
    row_starts, row_counts = _runs(series.r)
    col_starts, col_counts = _runs(series.c)
    cells = series.cells(series.r[row_starts], series.c[col_starts])
    return cells, np.outer(row_counts, col_counts)


def _check_grid(prod: GridSeries, cons: GridSeries) -> _GridLane:
    p, p_counts = _run_cells(prod)
    c, c_counts = _run_cells(cons)
    if not (np.isfinite(p).all() and np.isfinite(c).all()):
        raise ValueError("granule times must be finite")
    if np.any(p < 0) or np.any(c < 0):
        raise ValueError("granule times must be non-negative")
    producer_busy = float((p * p_counts).sum())
    consumer_busy = float((c * c_counts).sum())
    exact = (
        producer_busy + consumer_busy < _EXACT_LIMIT
        and (np.floor(p) == p).all()
        and (np.floor(c) == c).all()
    )
    return _GridLane(prod, cons, bool(exact), producer_busy, consumer_busy)


def _grid_maxplus(
    prod: GridSeries, cons: GridSeries, depth: int
) -> tuple[float, float] | None:
    """``(prod_done, cons_done)`` of the last granule of a structured lane,
    or ``None`` when its runs do not compress the walk enough to pay.

    Exact only under the guard (see the module docstring).
    """
    (p_outer, p_inner), (c_outer, c_inner) = prod.walk(), cons.walk()
    lines, line_of = np.unique(
        np.stack([p_outer, c_outer], axis=1), axis=0, return_inverse=True
    )
    line_of = line_of.reshape(-1)
    starts, run_len = _runs(p_inner, c_inner)
    p_runs, c_runs = p_inner[starts], c_inner[starts]
    if len(lines) * len(run_len) * _MIN_COMPRESSION > len(prod):
        return None
    per_chunk = max(1, _MATRIX_CHUNK // len(run_len))
    line_mats = []
    for first in range(0, len(lines), per_chunk):
        chunk = lines[first : first + per_chunk]
        line_mats.append(
            _chain(
                lambda s: _transfer(
                    prod.cells(chunk[:, 0], p_runs[s]),
                    cons.cells(chunk[:, 1], c_runs[s]),
                    depth,
                ),
                run_len,
                len(chunk),
            )
        )
    line_mat = np.concatenate(line_mats)
    line_starts, line_reps = _runs(line_of)
    walk = line_of[line_starts]
    lane = _chain(lambda s: line_mat[walk[s]], line_reps, 1)
    state = lane.max(axis=-1)  # applied to the zero start state
    return float(state[0]), float(state[1])


def _run_grid_lane(lane: _GridLane, depth: int) -> PipelineReport:
    prod, cons = lane.prod, lane.cons
    if lane.exact and len(prod):
        done = _grid_maxplus(prod, cons, depth)
        if done is not None:
            outer, inner = prod.walk()
            fill = float(prod.cells(outer[:1], inner[:1])[0, 0])
            return _maxplus_report(
                len(prod), lane.producer_busy, lane.consumer_busy, done, fill
            )
    p, c = np.asarray(prod), np.asarray(cons)
    if lane.exact:  # it does not compress: the block kernel retakes the guard
        return _run_lane(p, c, depth)
    return _loop_report(p, c, depth, float(p.sum()), float(c.sum()))


def _check_lane(prod, cons) -> "_GridLane | tuple[np.ndarray, np.ndarray]":
    if (
        isinstance(prod, GridSeries)
        and isinstance(cons, GridSeries)
        and prod.r.size == cons.r.size
        and prod.c.size == cons.c.size
        and prod.row_major == cons.row_major
    ):
        return _check_grid(prod, cons)
    return _check_series(prod, cons)


def bounded_pipeline_batch(
    prod_series: Sequence["np.ndarray | GridSeries"],
    cons_series: Sequence["np.ndarray | GridSeries"],
    *,
    depth: int = 2,
) -> list[PipelineReport]:
    """Run the recurrence for a batch of candidates.

    ``prod_series[b]``/``cons_series[b]`` are candidate ``b``'s per-granule
    production/consumption times in cycles (1-D, finite, non-negative,
    possibly different lengths across the batch, possibly empty), as
    arrays or, for element grain, as a :class:`GridSeries` pair.
    ``depth`` is the number of ping-pong banks (2 in the paper).  Every
    series is checked before any lane runs; the reports come back in
    batch order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(prod_series) != len(cons_series):
        raise ValueError("batch needs one consumer series per producer series")
    lanes = [_check_lane(p, c) for p, c in zip(prod_series, cons_series)]
    return [
        _run_grid_lane(lane, depth)
        if isinstance(lane, _GridLane)
        else _run_lane(*lane, depth)
        for lane in lanes
    ]
