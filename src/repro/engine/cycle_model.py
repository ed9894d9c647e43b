"""Event-driven cycle-accurate micro-simulator (engine validator).

The tile-level engines in :mod:`repro.engine.gemm`/:mod:`repro.engine.spmm`
use closed-form reuse analysis.  This module computes the same quantities
*independently* by walking the actual tiled loop nest step by step:

- it tracks, per temporal step, which operand tiles changed since the
  previous step (=> distinct elements fetched, split into streamed operands
  and serialized stationary loads),
- which output elements completed their contraction (=> elements drained
  through the collection network) and which were interrupted mid-contraction
  (=> partial-sum spill round trips), and
- feeds those per-step element counts through a three-stage elastic
  pipeline (distribution server -> PE wavefront -> collection server) with
  finite bandwidths.

Because it never uses the engines' formulas, agreement between the two is a
meaningful check; the test suite asserts traffic counts match exactly and
cycle counts match up to pipeline fill/rounding.

The loop nest is evaluated as numpy arrays one block of steps at a time:
traffic totals and the pipeline recurrence (:class:`_PipelineScan`) are
reduced per block, so peak memory stays bounded at any graph size, and a
small problem is simply the one-block case.  Blocks are sized from the
:class:`~repro.engine.tilestats.TileStats` byte budget
(``REPRO_TILESTATS_BUDGET``), else 16 MiB.  The interpreted loop walks
that this module is proved against live in ``tests/oracles/``.

Nothing on the production cost-model path imports this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..arch.config import AcceleratorConfig
from ..core.taxonomy import Dim, IntraDataflow, Phase
from ..graphs.csr import CSRGraph
from .gemm import GemmSpec, GemmTiling
from .spmm import SpmmSpec, SpmmTiling
from .tilestats import TileStats, default_byte_budget, resolve_stats

__all__ = [
    "CycleReport",
    "StepGrids",
    "cycle_accurate_gemm",
    "cycle_accurate_spmm",
    "step_grid_chunks",
]

# Streaming block size when no byte budget is set.
_DEFAULT_BLOCK_BYTES = 1 << 24


@dataclass
class CycleReport:
    """Output of the micro-simulation."""

    cycles: int
    steps: int
    gb_reads: dict[str, float] = field(default_factory=dict)
    gb_writes: dict[str, float] = field(default_factory=dict)
    load_stall_cycles: int = 0
    fill_cycles: int = 0  # first-step distribution latency (pipeline fill)

    def read(self, key: str) -> float:
        return self.gb_reads.get(key, 0.0)

    def write(self, key: str) -> float:
        return self.gb_writes.get(key, 0.0)


def _ranges(extent: int, tile: int) -> list[tuple[int, int]]:
    t = min(max(1, tile), extent)
    return [(lo, min(extent, lo + t)) for lo in range(0, extent, t)]


# ----------------------------------------------------------------------
# Elastic three-stage pipeline
# ----------------------------------------------------------------------

class _PipelineScan:
    """The elastic three-stage pipeline, evaluated block by block.

    Distribution and collection are continuous work-conserving servers (up
    to ``bw`` elements per cycle); the PE array retires one tile wavefront
    per cycle once its operands have arrived, and stationary-tile loads
    serialize with compute (no double buffering in the RF).

    All inputs are integer element counts, so the recurrence runs over
    exact scaled-integer numerators with denominator ``bwd * bwr`` and the
    final ``ceil`` is deterministic.  With ``d`` the cumulative
    distribution numerators and ``L`` the scaled per-step compute
    latencies, ``compute[i] = max(compute[i-1], d[i]) + L[i]`` unrolls to
    ``max_j<=i (d[j] + sum(L[j..i]))`` — a running maximum of
    ``d - cumsum(L)`` shifted back by ``cumsum(L)``; the collection server
    is the same scan again, of which only the final value is needed.  Both
    maxima carry across blocks as running state: the cumulative
    stream/latency/drain sums, ``A`` = the running maximum of
    ``dist[j] - cum_lat[j-1]`` (seeding the next block's
    ``maximum.accumulate``), and ``B`` = the running maximum of
    ``compute[i] - cum_w[i-1]``.  Because integer max-plus algebra
    reassociates exactly, feeding the same per-step values in the same
    order through any blocking yields bit-identical ``(cycles, fill)``.
    int64 numerators bound the usable problem size (counts x bandwidths
    below ~9e18).
    """

    def __init__(self, hw: AcceleratorConfig) -> None:
        self.bwd = hw.effective_dist_bw
        self.bwr = hw.effective_red_bw
        self.scale = self.bwd * self.bwr
        self._s = 0  # cumulative streamed elements
        self._l = 0  # cumulative scaled compute latency
        self._w = 0  # cumulative scaled drained elements
        self._a = 0  # running max of dist - prior cum_lat
        self._b: int | None = None  # running max of compute - prior cum_w
        self._fill = 0
        self._seen = False

    def feed(
        self,
        stream: np.ndarray,
        drain: np.ndarray,
        load: np.ndarray | None = None,
    ) -> None:
        s = np.asarray(stream, dtype=np.int64)
        if s.size == 0:
            return
        w = np.asarray(drain, dtype=np.int64)
        if load is None:
            lat = np.full(s.size, self.scale, dtype=np.int64)
        else:
            lat = (1 + np.asarray(load, dtype=np.int64)) * self.scale
        dist = (np.add.accumulate(s) + self._s) * self.bwr
        cum_lat = np.add.accumulate(lat) + self._l
        a = dist - (cum_lat - lat)
        if self._seen:
            a[0] = max(int(a[0]), self._a)
        else:
            self._fill = int(dist[0])
            self._seen = True
        np.maximum.accumulate(a, out=a)
        compute = a + cum_lat
        wd = w * self.bwd
        cum_w = np.add.accumulate(wd) + self._w
        b = int(np.max(compute - (cum_w - wd)))
        self._b = b if self._b is None else max(self._b, b)
        self._a = int(a[-1])
        self._s = int(dist[-1]) // self.bwr
        self._l = int(cum_lat[-1])
        self._w = int(cum_w[-1])

    def finish(self) -> tuple[int, int]:
        """``(total_cycles, fill_cycles)`` of everything fed so far."""
        if not self._seen:
            return 0, 0
        collect_num = int(self._b) + self._w
        return -(-collect_num // self.scale), -(-self._fill // self.scale)


# ----------------------------------------------------------------------
# GEMM micro-simulation
# ----------------------------------------------------------------------

_LEFT_DIMS = (Dim.V, Dim.F)
_RIGHT_DIMS = (Dim.F, Dim.G)
# Per-step working set of one GEMM block: ~12 int64/bool arrays.
_GEMM_STEP_BYTES = 96


def cycle_accurate_gemm(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
    *,
    stats: TileStats | None = None,
) -> CycleReport:
    """Walk the tiled GEMM loop nest step by step.

    Dense GEMM needs no sparsity statistics: ``stats`` (accepted for
    signature symmetry with the SpMM engine) only lends its byte budget to
    size the step blocks.
    """
    budget = stats.byte_budget if stats is not None else default_byte_budget()
    chunk = (budget or _DEFAULT_BLOCK_BYTES) // _GEMM_STEP_BYTES
    return _gemm_blocks(spec, intra, tiling, hw, chunk_steps=chunk)


def _gemm_blocks(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
    *,
    chunk_steps: int,
) -> CycleReport:
    """GEMM micro-simulation over flat-step blocks ``[lo, lo + chunk_steps)``.

    Every per-step quantity is a pure function of the flat step index, so
    each block recomputes its slice of the loop nest and reduces it on the
    fly; peak memory is O(chunk_steps).
    """
    if intra.phase is not Phase.COMBINATION:
        raise ValueError("cycle_accurate_gemm requires a Combination dataflow")
    size = {Dim.V: spec.rows, Dim.F: spec.inner, Dim.G: spec.cols}
    tile = {Dim.V: tiling.t_v, Dim.F: tiling.t_f, Dim.G: tiling.t_g}
    order = intra.order
    ranges = {d: _ranges(size[d], tile[d]) for d in size}
    widths = {
        d: np.asarray([hi - lo for lo, hi in ranges[d]], dtype=np.int64)
        for d in size
    }
    steps = {d: len(ranges[d]) for d in size}
    pos = {d: order.index(d) for d in order}
    extents = tuple(steps[d] for d in order)
    total = extents[0] * extents[1] * extents[2]
    strides = (extents[1] * extents[2], extents[2], 1)
    n_fsteps = steps[Dim.F]

    live = 1
    for d in order[pos[Dim.F] + 1 :]:
        if d in (Dim.V, Dim.G):
            live *= steps[d]
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    spill = n_fsteps > 1 and not psum_resident
    bwd = hw.effective_dist_bw

    roles = {"left": (spec.left_name, _LEFT_DIMS), "right": (spec.right_name, _RIGHT_DIMS)}
    mat_reads = {"left": 0, "right": 0}
    out_writes = 0
    psum_writes = 0
    psum_reads = 0
    load_stalls = 0
    scan = _PipelineScan(hw)

    chunk = max(1, chunk_steps)
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        level_idx = [(flat // strides[p]) % extents[p] for p in range(3)]
        dim_idx = {d: level_idx[pos[d]] for d in order}
        wd = {d: widths[d][dim_idx[d]] for d in order}
        stream = np.zeros(flat.size, dtype=np.int64)
        load = np.zeros(flat.size, dtype=np.int64)
        for role, (_, dims) in roles.items():
            level = max(pos[d] for d in dims)
            elems = wd[dims[0]] * wd[dims[1]]
            # A tile is (re)fetched whenever any loop index at or above its
            # innermost dependence level changed — i.e. whenever the deeper
            # levels' odometer rolled over.
            fetch = (flat % strides[level]) == 0
            mat_reads[role] += int(elems[fetch].sum())
            if level == 2:
                stream += elems  # streamed: fetched every step
            else:
                # Stationary at some level: each tile load serializes with
                # compute (no double buffering in the substrate's RF).
                load[fetch] += -(-elems[fetch] // bwd)
        f_idx = dim_idx[Dim.F]
        completing = f_idx == n_fsteps - 1
        out = wd[Dim.V] * wd[Dim.G]
        out_writes += int(out[completing].sum())
        if spill:
            revisit = f_idx > 0
            drain = out  # every visit drains: out or psum
            psum_writes += int(out[~completing].sum())
            psum_reads += int(out[revisit].sum())
            stream = stream + np.where(revisit, out, 0)
        else:
            drain = np.where(completing, out, 0)
        load_stalls += int(load.sum())
        scan.feed(stream, drain, load)

    gb_reads: dict[str, float] = {
        roles["left"][0]: float(mat_reads["left"]),
    }
    gb_reads[roles["right"][0]] = gb_reads.get(roles["right"][0], 0.0) + float(
        mat_reads["right"]
    )
    gb_writes: dict[str, float] = {spec.out_name: float(out_writes)}
    if spill:
        gb_writes["psum"] = float(psum_writes)
        gb_reads["psum"] = gb_reads.get("psum", 0.0) + float(psum_reads)

    cycles, fill = scan.finish()
    return CycleReport(
        cycles=cycles,
        steps=total,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=load_stalls,
        fill_cycles=fill,
    )


# ----------------------------------------------------------------------
# SpMM step populations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StepGrids:
    """Per-(vertex-tile, neighbor-step) populations for a run of tiles.

    Row ``vi`` describes vertex tile ``vi`` (``T_V`` lanes in lock step);
    column ``ni`` the tile's ``ni``-th neighbor step:

    - ``active[vi, ni]``: lanes still working (``ceil(deg/T_N) > ni``);
    - ``edges[vi, ni]``: real edges consumed across those lanes
      (``min(deg - ni*T_N, T_N)`` summed over active lanes);
    - ``completing[vi, ni]``: lanes finishing their contraction here.

    Spilling lanes are ``active - completing``; psum re-readers are
    ``active`` wherever ``ni > 0``.  Shapes are ``(n_vtiles, max_nsteps)``
    with ``max_nsteps`` the max of ``tile_steps`` over the run.
    """

    active: np.ndarray
    edges: np.ndarray
    completing: np.ndarray
    tile_steps: np.ndarray  # lock-step steps per vertex tile (length n_vtiles)


def _scatter_grids(
    deg: np.ndarray, s: np.ndarray, t_v: int, t_n: int, tile_steps: np.ndarray
) -> StepGrids:
    """Build a :class:`StepGrids` for a contiguous run of vertices.

    ``deg``/``s`` are the run's per-vertex degrees and neighbor-step
    counts; the run's first vertex is lane 0 of tile row 0 (callers slice
    on tile boundaries), and ``tile_steps`` its lock-step maxima.  A lane
    is active on ``[0, steps)``, completes at ``steps - 1``, and consumes
    ``t_n`` edges per step except the remainder ``deg - (steps - 1) * t_n``
    on its last one.
    """
    num_v = int(deg.size)
    n_vtiles = int(tile_steps.size)
    max_nsteps = int(tile_steps.max()) if n_vtiles else 0
    shape = (n_vtiles, max_nsteps)
    active = np.zeros((n_vtiles, max_nsteps + 1), dtype=np.int64)
    completing = np.zeros(shape, dtype=np.int64)
    deficit = np.zeros(shape, dtype=np.int64)
    if num_v:
        vt = np.arange(num_v, dtype=np.int64) // t_v
        # Active lanes: +1 over [0, s_v) per vertex, via a difference
        # array cumsum'd along the step axis.
        np.add.at(active, (vt, np.zeros(num_v, dtype=np.int64)), 1)
        np.add.at(active, (vt, s), -1)
        np.cumsum(active, axis=1, out=active)
        live = s > 0
        last = s[live] - 1
        np.add.at(completing, (vt[live], last), 1)
        # Edge deficit at the completing step: the last step consumes
        # only the remainder, not a full t_n.
        rem = deg[live] - last * t_n
        np.add.at(deficit, (vt[live], last), t_n - rem)
    active = np.ascontiguousarray(active[:, :max_nsteps])
    edges = active * t_n - deficit
    return StepGrids(
        active=active, edges=edges, completing=completing, tile_steps=tile_steps
    )


def step_grid_chunks(
    stats: TileStats, t_v: int, t_n: int, chunk_rows: int
) -> Iterator[StepGrids]:
    """The step populations of ``stats.graph`` as consecutive vtile-row
    slabs of at most ``chunk_rows`` rows each.

    Slabs are built on the fly from the O(V) per-vertex
    :class:`~repro.engine.tilestats.TileStats` entries and never cached,
    so peak memory is ``O(chunk_rows x slab max_nsteps)`` regardless of
    graph size.  Each slab's step axis ends at its own tiles' maximum, so
    masking by ``tile_steps`` yields exactly the whole graph's cells.
    """
    s = stats.per_v_steps(t_n)
    tile_steps = stats.vtile_steps(t_v, t_n)
    deg = stats.graph.degrees
    num_v = stats.graph.num_vertices
    for row_lo in range(0, int(tile_steps.size), chunk_rows):
        row_hi = row_lo + chunk_rows
        v_lo, v_hi = row_lo * t_v, min(row_hi * t_v, num_v)
        yield _scatter_grids(
            deg[v_lo:v_hi], s[v_lo:v_hi], t_v, t_n, tile_steps[row_lo:row_hi]
        )


# ----------------------------------------------------------------------
# SpMM micro-simulation
# ----------------------------------------------------------------------

def _expand_f_mid(seg_lengths: np.ndarray, n_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Emission indices for an F-middle loop over segmented cells.

    Cells arrive as consecutive segments (one per outer-loop iteration:
    a vertex tile's neighbor steps, or one neighbor step's active tiles);
    the F loop sits between the two, so each segment is replayed ``n_f``
    times before the next begins.  Returns ``(cell_sel, fi)`` arrays of
    length ``sum(seg_lengths) * n_f`` in exact nest order.
    """
    seg_lengths = np.asarray(seg_lengths, dtype=np.int64)
    em_per_seg = seg_lengths * n_f
    total = int(em_per_seg.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    seg_off = np.cumsum(seg_lengths) - seg_lengths
    em_off = np.cumsum(em_per_seg) - em_per_seg
    seg_id = np.repeat(np.arange(seg_lengths.size, dtype=np.int64), em_per_seg)
    local = np.arange(total, dtype=np.int64) - em_off[seg_id]
    m = seg_lengths[seg_id]
    fi = local // m
    sel = seg_off[seg_id] + local % m
    return sel, fi


def _chunk_cells(
    grids: StepGrids,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unmasked cells of one vtile-row slab in (vi asc, ni asc) order.

    Returns ``(act, edg, comp, ni, seg_lengths)`` where ``seg_lengths``
    is the per-tile cell count (= ``tile_steps``), the segmentation an
    F-middle loop replays.
    """
    ts = grids.tile_steps
    total = int(ts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, ts
    vloc = np.repeat(np.arange(ts.size, dtype=np.int64), ts)
    offs = np.cumsum(ts) - ts
    ni = np.arange(total, dtype=np.int64) - offs[vloc]
    return (
        grids.active[vloc, ni],
        grids.edges[vloc, ni],
        grids.completing[vloc, ni],
        ni,
        ts,
    )


def _band_cells(
    active_idx: np.ndarray,
    s: np.ndarray,
    deg: np.ndarray,
    tile_steps: np.ndarray,
    t_v: int,
    t_n: int,
    c0: int,
    c1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of neighbor-step columns ``[c0, c1)`` in (ni asc, vi asc)
    order, built band-locally with :func:`_scatter_grids`' math.

    ``active_idx`` pre-selects the vertices with ``s > c0`` (callers take
    it from a presorted suffix); memory is O(n_vtiles x band width).
    Returns ``(act, edg, comp, ni, seg_lengths)`` with one segment per
    column (the active-tile count an F-middle loop replays).
    """
    n_vtiles = int(tile_steps.size)
    bandw = c1 - c0
    active = np.zeros((n_vtiles, bandw + 1), dtype=np.int64)
    completing = np.zeros((n_vtiles, bandw), dtype=np.int64)
    deficit = np.zeros((n_vtiles, bandw), dtype=np.int64)
    if active_idx.size:
        vt = active_idx // t_v
        end = np.minimum(s[active_idx], c1) - c0
        np.add.at(active, (vt, np.zeros(vt.size, dtype=np.int64)), 1)
        np.add.at(active, (vt, end), -1)
        np.cumsum(active, axis=1, out=active)
        fin = s[active_idx] <= c1  # contraction completes inside the band
        idx_f = active_idx[fin]
        last = s[idx_f] - 1 - c0
        np.add.at(completing, (vt[fin], last), 1)
        rem = deg[idx_f] - (s[idx_f] - 1) * t_n
        np.add.at(deficit, (vt[fin], last), t_n - rem)
    active = active[:, :bandw]
    edges = active * t_n - deficit
    # Column-major active cells: tile vi participates in column ni iff its
    # lock-step pass is still running there.
    colmask = (tile_steps[:, None] > np.arange(c0, c1)[None, :]).T
    cols, vis = np.nonzero(colmask)
    return (
        active[vis, cols],
        edges[vis, cols],
        completing[vis, cols],
        c0 + cols,
        colmask.sum(axis=1).astype(np.int64),
    )


def cycle_accurate_spmm(
    spec: SpmmSpec,
    intra: IntraDataflow,
    tiling: SpmmTiling,
    hw: AcceleratorConfig,
    *,
    stats: TileStats | None = None,
) -> CycleReport:
    """Walk the tiled SpMM loop nest step by step (CSR-driven N loop).

    Lock-step semantics: a (vtile, ftile) pass takes as many neighbor steps
    as its longest row needs; lanes whose rows finished early sit idle and
    produce no traffic.  ``stats`` is an optional
    :class:`~repro.engine.tilestats.TileStats` handle for the spec's graph;
    sharing one across candidates amortizes the per-tiling sparsity scans,
    and its byte budget sizes the blocks.

    Cells are produced in exact nest order without ever materializing the
    whole ``(n_vtiles, max_nsteps)`` population grids or flat loop-nest
    index arrays — vtile-row slabs (:func:`step_grid_chunks`) when V
    precedes N in the loop order, neighbor-step column bands otherwise —
    and the F loop's position picks one of three emission expansions
    (outer passes, per-segment replay, per-cell repeat).  Peak memory is
    O(block x n_ftiles) at any graph size.
    """
    if intra.phase is not Phase.AGGREGATION:
        raise ValueError("cycle_accurate_spmm requires an Aggregation dataflow")
    g: CSRGraph = spec.graph
    stats = resolve_stats(stats, g)
    num_v = g.num_vertices
    feat = spec.feat
    t_v = min(tiling.t_v, max(1, num_v))
    t_f = min(tiling.t_f, feat)
    t_n = max(1, tiling.t_n)
    s = stats.per_v_steps(t_n)
    tile_steps = stats.vtile_steps(t_v, t_n)
    n_vtiles = int(tile_steps.size)
    max_nsteps = int(s.max()) if num_v and s.size else 0
    f_ranges = _ranges(feat, t_f)
    n_ftiles = len(f_ranges)
    f_widths = np.asarray([hi - lo for lo, hi in f_ranges], dtype=np.int64)
    order = intra.order
    pos = {d: order.index(d) for d in order}
    live = 1
    for d in order[pos[Dim.N] + 1 :]:
        if d is Dim.V:
            live *= n_vtiles
        elif d is Dim.F:
            live *= n_ftiles
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    f_latched = pos[Dim.F] == 2  # F innermost: edge index latched across f

    scan = _PipelineScan(hw)
    steps = 0
    x_reads = 0
    adj_extra = 0
    out_writes = 0
    psum_writes = 0
    psum_reads = 0

    def consume(act, edg, comp, ni, sel, fi) -> None:
        """Reduce one emission block (``sel``/``fi`` index the cells)."""
        nonlocal steps, x_reads, adj_extra, out_writes, psum_writes, psum_reads
        if sel.size == 0:
            return
        steps += int(sel.size)
        act_e = act[sel]
        edg_e = edg[sel]
        comp_e = comp[sel]
        fw = f_widths[fi]
        edge_fw = edg_e * fw
        x_reads += int(edge_fw.sum())
        adj_extra += int(edg_e[fi == 0].sum() if f_latched else edg_e.sum())
        comp_fw = comp_e * fw
        out_writes += int(comp_fw.sum())
        stream = edge_fw
        drain = comp_fw
        if not psum_resident:
            spill_fw = (act_e - comp_e) * fw
            psum_writes += int(spill_fw.sum())
            drain = drain + spill_fw
            cont_fw = np.where(ni[sel] > 0, act_e, 0) * fw
            psum_reads += int(cont_fw.sum())
            stream = stream + cont_fw
        scan.feed(stream, drain)

    def emit(act, edg, comp, ni, seg_lengths, f_pass: int | None) -> None:
        """Expand one cell block per the F loop's position and reduce it."""
        n_cells = int(act.size)
        if f_pass is not None:  # F outermost: one pass per f tile
            sel = np.arange(n_cells, dtype=np.int64)
            fi = np.full(n_cells, f_pass, dtype=np.int64)
        elif f_latched:  # F innermost: each cell repeats across f tiles
            sel = np.repeat(np.arange(n_cells, dtype=np.int64), n_ftiles)
            fi = np.tile(np.arange(n_ftiles, dtype=np.int64), n_cells)
        else:  # F middle: each segment replays per f tile
            sel, fi = _expand_f_mid(seg_lengths, n_ftiles)
        consume(act, edg, comp, ni, sel, fi)

    v_major = pos[Dim.V] < pos[Dim.N]
    f_passes: list[int | None] = (
        list(range(n_ftiles)) if pos[Dim.F] == 0 else [None]
    )
    if v_major:
        chunk_rows = _spmm_chunk_rows(stats, max_nsteps, n_ftiles)
        for f_pass in f_passes:
            for grids in step_grid_chunks(stats, t_v, t_n, chunk_rows):
                emit(*_chunk_cells(grids), f_pass)
    elif max_nsteps:
        bandw = _spmm_band_width(stats, n_vtiles, n_ftiles)
        # Presort by step count: each band's active vertices are a suffix.
        s_order = np.argsort(s, kind="stable").astype(np.int64)
        s_sorted = s[s_order]
        deg = g.degrees
        for f_pass in f_passes:
            for c0 in range(0, max_nsteps, bandw):
                c1 = min(c0 + bandw, max_nsteps)
                start = int(np.searchsorted(s_sorted, c0, side="right"))
                cells = _band_cells(
                    s_order[start:], s, deg, tile_steps, t_v, t_n, c0, c1
                )
                emit(*cells, f_pass)

    gb_reads: dict[str, float] = {"adj": float(num_v + 1)}
    gb_writes: dict[str, float] = {}
    if steps:
        gb_reads[spec.x_name] = float(x_reads)
        gb_reads["adj"] += float(adj_extra)
    if out_writes:
        gb_writes[spec.out_name] = float(out_writes)
    if not psum_resident and steps:
        if psum_writes:
            gb_writes["psum"] = float(psum_writes)
        if psum_reads:
            gb_reads["psum"] = float(psum_reads)

    # Zero-degree rows never enter the loop but their (all-zero) output
    # rows are still flushed once, as in the engine's V x feat write count.
    zero_rows = stats.zero_degree_rows
    if zero_rows:
        gb_writes[spec.out_name] = (
            gb_writes.get(spec.out_name, 0.0) + zero_rows * feat
        )

    cycles, fill = scan.finish()
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=0,
        fill_cycles=fill,
    )


def _spmm_chunk_rows(stats: TileStats, max_nsteps: int, n_ftiles: int) -> int:
    """Vtile rows per slab: sized so the slab grids plus their F-expanded
    emission arrays fit comfortably inside the byte budget."""
    target = _spmm_block_bytes(stats)
    per_row = 8 * max(1, max_nsteps) * (3 + 4 * max(1, n_ftiles))
    return max(1, target // per_row)


def _spmm_band_width(stats: TileStats, n_vtiles: int, n_ftiles: int) -> int:
    """Neighbor-step columns per band (same sizing rule)."""
    target = _spmm_block_bytes(stats)
    per_col = 8 * max(1, n_vtiles) * (3 + 4 * max(1, n_ftiles))
    return max(1, target // per_col)


def _spmm_block_bytes(stats: TileStats) -> int:
    budget = stats.byte_budget
    if budget is None:
        return _DEFAULT_BLOCK_BYTES
    return max(budget // 4, 1 << 16)
