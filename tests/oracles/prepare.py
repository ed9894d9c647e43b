"""Per-candidate phase preparation: tile, concretise, run both engines.

The form :func:`repro.core.omega.prepare_block` replaced: every candidate
selects both phases' tiles, applies the SP shared-axis coupling inline,
concretises both intras into a new ``Dataflow``, partitions the array for
PP, and runs (or fetches) both engines on its own.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.omega import phase_specs
from repro.core.taxonomy import Annot, Dim, InterPhase, PhaseOrder, SPVariant
from repro.core.tiling import TileHint, choose_phase_tiles, concretize_intra
from repro.engine.gemm import GemmTiling, simulate_gemm
from repro.engine.spmm import SpmmTiling, simulate_spmm


def choose_tiles_reference(df, wl, hw, hint=None):
    h = hint if hint is not None else TileHint()
    ca = df.order is PhaseOrder.CA
    if df.inter is InterPhase.PP:
        agg_pes = max(1, min(hw.num_pes - 1, round(hw.num_pes * df.pe_split)))
        cmb_pes = max(1, hw.num_pes - agg_pes)
    else:
        agg_pes = cmb_pes = hw.num_pes

    agg_tiles = choose_phase_tiles(df.agg, wl, agg_pes, h, ca_order=ca)
    cmb_tiles = choose_phase_tiles(df.cmb, wl, cmb_pes, h)

    if df.inter is InterPhase.SP:
        cmb_tiles[Dim.V] = agg_tiles[Dim.V]
        if not ca:
            cmb_tiles[Dim.F] = agg_tiles[Dim.F]
            budget = max(1, cmb_pes // max(1, cmb_tiles[Dim.V] * cmb_tiles[Dim.F]))
            cmb_tiles[Dim.G] = min(
                wl.out_features
                if df.cmb.annotation_of(Dim.G) is not Annot.TEMPORAL
                else 1,
                budget,
            )
            if df.sp_variant is SPVariant.OPTIMIZED:
                cmb_tiles[Dim.G] = 1
                agg_tiles[Dim.N] = 1
        else:
            cmb_tiles[Dim.G] = agg_tiles[Dim.F]

    spmm = SpmmTiling(agg_tiles[Dim.V], agg_tiles[Dim.F], agg_tiles[Dim.N])
    gemm = GemmTiling(cmb_tiles[Dim.V], cmb_tiles[Dim.F], cmb_tiles[Dim.G])
    concrete = replace(
        df,
        agg=concretize_intra(df.agg, agg_tiles),
        cmb=concretize_intra(df.cmb, cmb_tiles),
    )
    return spmm, gemm, concrete


def prepare_phases_reference(
    wl, df, hw, *, hint=None, spmm_tiling=None, gemm_tiling=None,
    stats=None, cache=None,
):
    if spmm_tiling is None or gemm_tiling is None:
        auto_s, auto_g, df = choose_tiles_reference(df, wl, hw, hint)
        spmm_tiling = spmm_tiling if spmm_tiling is not None else auto_s
        gemm_tiling = gemm_tiling if gemm_tiling is not None else auto_g
    elif not df.is_concrete:
        raise ValueError(
            "explicit tilings require a concrete dataflow (no 'x' wildcards)"
        )

    if df.inter is InterPhase.PP:
        agg_pes = max(1, min(hw.num_pes - 1, round(hw.num_pes * df.pe_split)))
        hw_agg = hw.partition(agg_pes)
        hw_cmb = hw.partition(hw.num_pes - agg_pes)
    else:
        hw_agg = hw_cmb = hw

    spmm_spec, gemm_spec = phase_specs(wl, df.order)
    if cache is not None:
        agg_res = cache.spmm(spmm_spec, df.agg, spmm_tiling, hw_agg, stats=stats)
        cmb_res = cache.gemm(gemm_spec, df.cmb, gemm_tiling, hw_cmb, stats=stats)
    else:
        agg_res = simulate_spmm(spmm_spec, df.agg, spmm_tiling, hw_agg, stats=stats)
        cmb_res = simulate_gemm(gemm_spec, df.cmb, gemm_tiling, hw_cmb, stats=stats)
    return df, agg_res, cmb_res
