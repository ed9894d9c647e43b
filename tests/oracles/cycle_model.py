"""Interpreted cycle-accurate oracles: the original loop-nest walks.

These are the semantic specification :mod:`repro.engine.cycle_model` is
proved against.  They walk the tiled SpMM/GEMM loop nests one step at a
time in plain Python and feed the per-step element counts through the
scalar elastic-pipeline recurrence, so they are slow but obviously
faithful.  Only the tests call them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.core.taxonomy import Dim, IntraDataflow, Phase
from repro.engine.cycle_model import CycleReport, _ranges
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling
from repro.graphs.csr import CSRGraph


def pipeline_reference(
    stream_elems: list[float],
    drain_elems: list[float],
    load_cycles: list[int],
    hw: AcceleratorConfig,
) -> tuple[int, int]:
    """Elastic 3-stage pipeline; returns (total_cycles, fill_cycles).

    Distribution and collection are continuous work-conserving servers (up
    to ``bw`` elements per cycle); the PE array retires one tile wavefront
    per cycle once its operands have arrived, and stationary-tile loads
    serialize with compute (no double buffering in the RF).

    All inputs are integer element counts, so the recurrence is evaluated
    in exact rational arithmetic with denominator ``bwd * bwr`` (Python
    ints never overflow): the final ``ceil`` is then deterministic, where
    the historical per-step float accumulation rounded nondeterministically
    when the true value landed on a cycle boundary — and, crucially, the
    chunked scan (:class:`repro.engine.cycle_model._PipelineScan`) computes
    bit-identical results because integer max-plus algebra reassociates
    exactly.
    """
    bwd = hw.effective_dist_bw
    bwr = hw.effective_red_bw
    scale = bwd * bwr
    dist_num = 0  # numerators over `scale`
    compute_num = 0
    collect_num = 0
    fill_num = 0
    for i, (s, w, l) in enumerate(zip(stream_elems, drain_elems, load_cycles)):
        dist_num += int(s) * bwr
        if i == 0:
            fill_num = dist_num
        compute_num = max(compute_num, dist_num) + (1 + l) * scale
        collect_num = max(collect_num, compute_num) + int(w) * bwd
    return -(-collect_num // scale), -(-fill_num // scale)


def cycle_accurate_gemm_reference(
    spec: GemmSpec,
    intra: IntraDataflow,
    tiling: GemmTiling,
    hw: AcceleratorConfig,
) -> CycleReport:
    """Walk the tiled GEMM loop nest step by step (interpreted reference)."""
    if intra.phase is not Phase.COMBINATION:
        raise ValueError("cycle_accurate_gemm requires a Combination dataflow")
    sizes = {Dim.V: spec.rows, Dim.F: spec.inner, Dim.G: spec.cols}
    tiles = {Dim.V: tiling.t_v, Dim.F: tiling.t_f, Dim.G: tiling.t_g}
    ranges = {d: _ranges(sizes[d], tiles[d]) for d in sizes}
    order = intra.order
    pos = {d: order.index(d) for d in order}
    mat_dims = {
        spec.left_name: (Dim.V, Dim.F),
        spec.right_name: (Dim.F, Dim.G),
    }
    mat_level = {
        name: max(pos[d] for d in dims) for name, dims in mat_dims.items()
    }
    n_fsteps = len(ranges[Dim.F])
    live = 1
    for d in order[pos[Dim.F] + 1 :]:
        if d in (Dim.V, Dim.G):
            live *= len(ranges[d])
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    spill = n_fsteps > 1 and not psum_resident

    gb_reads: dict[str, float] = {}
    gb_writes: dict[str, float] = {}
    stream_list: list[float] = []
    drain_list: list[float] = []
    load_list: list[int] = []
    last_fetch_key: dict[str, tuple | None] = {n: None for n in mat_dims}
    f_visits: dict[tuple[int, int], int] = {}
    total_load_stalls = 0
    bwd = hw.effective_dist_bw

    steps = 0
    for i0 in range(len(ranges[order[0]])):
        for i1 in range(len(ranges[order[1]])):
            for i2 in range(len(ranges[order[2]])):
                steps += 1
                tidx = {order[0]: i0, order[1]: i1, order[2]: i2}
                bounds = {d: ranges[d][tidx[d]] for d in sizes}
                widths = {d: bounds[d][1] - bounds[d][0] for d in sizes}
                stream = 0.0
                load = 0
                for name, dims in mat_dims.items():
                    # A tile is (re)fetched whenever any loop index at or
                    # above its innermost dependence level changed.
                    key = tuple(tidx[order[i]] for i in range(mat_level[name] + 1))
                    if last_fetch_key[name] != key:
                        last_fetch_key[name] = key
                        elems = widths[dims[0]] * widths[dims[1]]
                        gb_reads[name] = gb_reads.get(name, 0.0) + elems
                        if mat_level[name] == 2:
                            stream += elems
                        else:
                            load += math.ceil(elems / bwd)
                out_tile = (tidx[Dim.V], tidx[Dim.G])
                out_elems = widths[Dim.V] * widths[Dim.G]
                visits = f_visits.get(out_tile, 0) + 1
                f_visits[out_tile] = visits
                drain = 0.0
                if visits == n_fsteps:
                    gb_writes[spec.out_name] = (
                        gb_writes.get(spec.out_name, 0.0) + out_elems
                    )
                    drain += out_elems
                elif spill:
                    gb_writes["psum"] = gb_writes.get("psum", 0.0) + out_elems
                    drain += out_elems
                if visits > 1 and spill:
                    gb_reads["psum"] = gb_reads.get("psum", 0.0) + out_elems
                    stream += out_elems
                stream_list.append(stream)
                drain_list.append(drain)
                load_list.append(load)
                total_load_stalls += load

    cycles, fill = pipeline_reference(stream_list, drain_list, load_list, hw)
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=total_load_stalls,
        fill_cycles=fill,
    )


def cycle_accurate_spmm_reference(
    spec: SpmmSpec,
    intra: IntraDataflow,
    tiling: SpmmTiling,
    hw: AcceleratorConfig,
) -> CycleReport:
    """Walk the tiled SpMM loop nest step by step (interpreted reference).

    Lock-step semantics: a (vtile, ftile) pass takes as many neighbor steps
    as its longest row needs; lanes whose rows finished early sit idle and
    produce no traffic.
    """
    if intra.phase is not Phase.AGGREGATION:
        raise ValueError("cycle_accurate_spmm requires an Aggregation dataflow")
    g: CSRGraph = spec.graph
    num_v = g.num_vertices
    feat = spec.feat
    t_v = min(tiling.t_v, max(1, num_v))
    t_f = min(tiling.t_f, feat)
    t_n = max(1, tiling.t_n)
    deg = g.degrees
    v_ranges = _ranges(num_v, t_v)
    f_ranges = _ranges(feat, t_f)
    per_v_steps = np.ceil(deg / t_n).astype(np.int64)
    order = intra.order
    pos = {d: order.index(d) for d in order}
    live = 1
    for d in order[pos[Dim.N] + 1 :]:
        if d is Dim.V:
            live *= len(v_ranges)
        elif d is Dim.F:
            live *= len(f_ranges)
    psum_resident = hw.supports_temporal_reduction and live <= hw.pe_accumulators
    max_nsteps = int(per_v_steps.max()) if num_v and deg.size else 0
    f_latched = pos[Dim.F] == 2  # F innermost: edge index latched across f

    gb_reads: dict[str, float] = {"adj": float(num_v + 1)}
    gb_writes: dict[str, float] = {}
    stream_list: list[float] = []
    drain_list: list[float] = []

    spaces = {
        Dim.V: range(len(v_ranges)),
        Dim.F: range(len(f_ranges)),
        Dim.N: range(max(1, max_nsteps)),
    }
    steps = 0
    for a in spaces[order[0]]:
        for b in spaces[order[1]]:
            for c in spaces[order[2]]:
                tidx = {order[0]: a, order[1]: b, order[2]: c}
                vi, fi, ni = tidx[Dim.V], tidx[Dim.F], tidx[Dim.N]
                v0, v1 = v_ranges[vi]
                f0, f1 = f_ranges[fi]
                tile_steps = int(per_v_steps[v0:v1].max()) if v1 > v0 else 0
                if ni >= tile_steps:
                    continue  # lock-step pass already finished for the tile
                steps += 1
                fw = f1 - f0
                stream = 0.0
                drain = 0.0
                active_edges = 0
                completing = 0
                active = 0
                continuing_in = 0  # lanes reading psums back (visit > 1)
                for v in range(v0, v1):
                    sv = int(per_v_steps[v])
                    if ni >= sv:
                        continue
                    active += 1
                    lo = g.vertex_ptr[v] + ni * t_n
                    hi = min(g.vertex_ptr[v + 1], lo + t_n)
                    active_edges += int(hi - lo)
                    if ni == sv - 1:
                        completing += 1
                    if ni > 0:
                        continuing_in += 1
                gb_reads[spec.x_name] = (
                    gb_reads.get(spec.x_name, 0.0) + active_edges * fw
                )
                stream += active_edges * fw
                if not f_latched or fi == 0:
                    gb_reads["adj"] = gb_reads.get("adj", 0.0) + active_edges
                if completing:
                    gb_writes[spec.out_name] = (
                        gb_writes.get(spec.out_name, 0.0) + completing * fw
                    )
                    drain += completing * fw
                if not psum_resident:
                    spilling = active - completing
                    if spilling > 0:
                        gb_writes["psum"] = (
                            gb_writes.get("psum", 0.0) + spilling * fw
                        )
                        drain += spilling * fw
                    if continuing_in > 0:
                        gb_reads["psum"] = (
                            gb_reads.get("psum", 0.0) + continuing_in * fw
                        )
                        stream += continuing_in * fw
                stream_list.append(stream)
                drain_list.append(drain)

    # Zero-degree rows never enter the loop but their (all-zero) output
    # rows are still flushed once, as in the engine's V x feat write count.
    zero_rows = int((deg == 0).sum()) if num_v else 0
    if zero_rows:
        gb_writes[spec.out_name] = (
            gb_writes.get(spec.out_name, 0.0) + zero_rows * feat
        )

    cycles, fill = pipeline_reference(
        stream_list, drain_list, [0] * len(stream_list), hw
    )
    return CycleReport(
        cycles=cycles,
        steps=steps,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        load_stall_cycles=0,
        fill_cycles=fill,
    )
