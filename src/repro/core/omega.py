"""OMEGA front-end: run one GNN layer under one dataflow (paper Fig. 10).

``run_gnn_dataflow`` is the library's main entry point.  It mirrors the
paper's toolflow: translate the mapping into per-phase SpMM/GEMM runs
(STONNE's role, here the tile-level engines), collect per-phase statistics
and timestamps, and feed them to the inter-phase cost model.

>>> from repro import load_dataset, AcceleratorConfig, parse_dataflow
>>> from repro.core.omega import run_gnn_dataflow
>>> from repro.core.workload import workload_from_dataset
>>> wl = workload_from_dataset(load_dataset("mutag"))
>>> res = run_gnn_dataflow(wl, parse_dataflow("Seq_AC(VxFxNt, VxGxFx)"),
...                        AcceleratorConfig())
>>> res.total_cycles > 0
True
"""

from __future__ import annotations

from dataclasses import replace

from ..arch.config import AcceleratorConfig
from ..engine.gemm import GemmResult, GemmSpec, GemmTiling, simulate_gemm
from ..engine.phasecache import PhaseEngineCache
from ..engine.spmm import SpmmResult, SpmmSpec, SpmmTiling, simulate_spmm
from ..engine.tilestats import TileStats
from .interphase import RunResult, compose
from .legality import LegalityError
from .taxonomy import Dataflow, Dim, InterPhase, IntraDataflow, Phase, PhaseOrder, SPVariant
# choose_tiles is the one-candidate form of the steps prepare_block runs
# once per phase mapping; it stays importable here under its own name.
from .tiling import (
    TileHint,
    choose_phase_tiles,
    choose_tiles,
    concretize_intra,
    couple_sp_tiles,
    pp_budgets,
)
from .workload import GNNWorkload

__all__ = [
    "run_gnn_dataflow",
    "prepare_block",
    "prepare_phases",
    "prepare_phase",
    "phase_specs",
]


def phase_specs(wl: GNNWorkload, order: PhaseOrder) -> tuple[SpmmSpec, GemmSpec]:
    """Build the SpMM/GEMM problem shapes with paper-consistent operand
    names (Fig. 13 categories) for the given phase order."""
    if order is PhaseOrder.AC:
        spmm = SpmmSpec(
            graph=wl.graph,
            feat=wl.in_features,
            x_name="input",
            out_name="intermediate",
        )
        gemm = GemmSpec(
            rows=wl.num_vertices,
            inner=wl.in_features,
            cols=wl.out_features,
            left_name="intermediate",
            right_name="weight",
            out_name="output",
        )
    else:
        spmm = SpmmSpec(
            graph=wl.graph,
            feat=wl.out_features,
            x_name="intermediate",
            out_name="output",
        )
        gemm = GemmSpec(
            rows=wl.num_vertices,
            inner=wl.in_features,
            cols=wl.out_features,
            left_name="input",
            right_name="weight",
            out_name="intermediate",
        )
    return spmm, gemm


class _Phase:
    """One phase mapping realised on one choice of tiles.

    Holds the concretised intra (or the text of the error concretisation
    raised), the engine tiling and, once a candidate needs it, the engine
    result.
    """

    __slots__ = ("tiles", "intra", "error", "tiling", "result")

    def __init__(self, intra: IntraDataflow, tiles: dict[Dim, int]) -> None:
        self.tiles = tiles
        self.result = None
        try:
            self.intra = concretize_intra(intra, tiles)
            self.error = None
        except ValueError as exc:
            self.intra = None
            self.error = str(exc)
        if intra.phase is Phase.AGGREGATION:
            self.tiling = SpmmTiling(tiles[Dim.V], tiles[Dim.F], tiles[Dim.N])
        else:
            self.tiling = GemmTiling(tiles[Dim.V], tiles[Dim.F], tiles[Dim.G])


def _run_engine(
    specs: tuple[SpmmSpec, GemmSpec],
    intra: IntraDataflow,
    tiling: SpmmTiling | GemmTiling,
    hw: AcceleratorConfig,
    stats: "TileStats | None",
    cache: "PhaseEngineCache | None",
):
    """Run (or fetch from ``cache``) the engine of ``intra``'s phase."""
    if intra.phase is Phase.AGGREGATION:
        if cache is not None:
            return cache.spmm(specs[0], intra, tiling, hw, stats=stats)
        return simulate_spmm(specs[0], intra, tiling, hw, stats=stats)
    if cache is not None:
        return cache.gemm(specs[1], intra, tiling, hw, stats=stats)
    return simulate_gemm(specs[1], intra, tiling, hw, stats=stats)


def prepare_phase(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    order: PhaseOrder,
    intra: IntraDataflow,
    num_pes: int,
    *,
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
) -> SpmmResult | GemmResult | None:
    """One phase of a hint-less mapping at one PE budget: tile, concretise,
    take the sub-array and run (or fetch) the engine.

    Returns ``None`` when the budget cannot realise the mapping's
    annotations.  The engine run is the one a composed candidate with this
    phase mapping makes, so it lands in (or comes from) the same cache
    entry.
    """
    agg = intra.phase is Phase.AGGREGATION
    tiles = choose_phase_tiles(
        intra, wl, num_pes, TileHint(), ca_order=agg and order is PhaseOrder.CA
    )
    phase = _Phase(intra, tiles)
    if phase.error is not None:
        return None
    sub = hw if num_pes == hw.num_pes else hw.partition(num_pes)
    return _run_engine(
        phase_specs(wl, order), phase.intra, phase.tiling, sub, stats, cache
    )


class _Block:
    """The memo of one :func:`prepare_block` call.

    Everything a candidate's preparation reads that depends on less than
    the whole candidate is computed once per call: the phase specs per
    phase order, the PP sub-arrays per partition size, and per phase
    mapping (intra, PE budget, phase order, hint) its tiles, concretised
    intra, tiling and engine result.  Keys hold object identities, not
    values: the call's items keep every keyed object alive, and hashing
    whole intras or dataflows per candidate costs more than the work it
    would save.
    """

    def __init__(self, wl, hw, stats, cache) -> None:
        self.wl = wl
        self.hw = hw
        self.stats = stats
        self.cache = cache
        self.default_hint = TileHint()
        self.specs: dict = {}  # order -> (SpmmSpec, GemmSpec)
        self.subs: dict = {}  # partition size -> sub-array | partition error
        self.tiles: dict = {}  # (id(intra), budget, ca, id(hint)) -> tiles
        self.phases: dict = {}  # (id(intra), id(order), size, id(hint)) -> _Phase
        self.coupled: dict = {}  # (id(intra), id(order), *tiles) -> _Phase (SP)

    def phase_specs(self, order: PhaseOrder) -> tuple[SpmmSpec, GemmSpec]:
        specs = self.specs.get(order)
        if specs is None:
            specs = self.specs[order] = phase_specs(self.wl, order)
        return specs

    def sub_array(self, size: int | None) -> AcceleratorConfig:
        """The whole array (``size`` None) or PP's partition of ``size`` PEs."""
        if size is None:
            return self.hw
        sub = self.subs.get(size)
        if sub is None:
            try:
                sub = self.hw.partition(size)
            except ValueError as exc:
                sub = str(exc)
            self.subs[size] = sub
        if isinstance(sub, str):
            raise ValueError(sub)
        return sub

    def phase(self, intra, order, size, hint) -> _Phase:
        """``intra`` tiled on the whole array (``size`` None) or on a PP
        partition of ``size`` PEs."""
        key = (id(intra), id(order), size, id(hint))
        phase = self.phases.get(key)
        if phase is None:
            budget = self.hw.num_pes if size is None else max(1, size)
            ca = intra.phase is Phase.AGGREGATION and order is PhaseOrder.CA
            tiles_key = (id(intra), budget, ca, id(hint))
            tiles = self.tiles.get(tiles_key)
            if tiles is None:
                tiles = self.tiles[tiles_key] = choose_phase_tiles(
                    intra, self.wl, budget,
                    self.default_hint if hint is None else hint,
                    ca_order=ca,
                )
            phase = self.phases[key] = _Phase(intra, tiles)
        return phase

    def coupled_phase(self, intra, order, tiles) -> _Phase:
        """``intra`` on one SP pair's coupled tiles (whole array)."""
        key = (id(intra), id(order), *(tiles[dim] for dim in intra.order))
        phase = self.coupled.get(key)
        if phase is None:
            phase = self.coupled[key] = _Phase(intra, tiles)
        return phase

    def couple(self, df: Dataflow, agg: _Phase, cmb: _Phase):
        agg_tiles = dict(agg.tiles)
        cmb_tiles = dict(cmb.tiles)
        optimized = df.sp_variant is SPVariant.OPTIMIZED
        couple_sp_tiles(
            agg_tiles, cmb_tiles, df.cmb, self.wl.out_features, self.hw.num_pes,
            ca_order=df.order is PhaseOrder.CA, optimized=optimized,
        )
        if optimized:
            # T_N = 1 changes the Aggregation tiling: concretise it again.
            agg = self.coupled_phase(df.agg, df.order, agg_tiles)
        return agg, self.coupled_phase(df.cmb, df.order, cmb_tiles)

    def result(self, phase: _Phase, order, hw, pinned):
        """``phase``'s engine result, on the ``pinned`` tiling if one is set."""
        if pinned is not None:
            return _run_engine(
                self.phase_specs(order), phase.intra, pinned, hw, self.stats, self.cache
            )
        if phase.result is None:
            phase.result = _run_engine(
                self.phase_specs(order), phase.intra, phase.tiling, hw,
                self.stats, self.cache,
            )
        elif self.cache is not None:
            # The cache would have answered this lookup: count it there, so
            # its hit rate still reads per candidate.
            self.cache.hits += 1
        return phase.result

    def prepare(self, df: Dataflow, hint, spmm_tiling, gemm_tiling):
        """One candidate's ``(concrete_df, agg_res, cmb_res)``; raises the
        candidate's error."""
        order = df.order
        if df.inter is InterPhase.PP:
            agg_size, cmb_size = pp_budgets(self.hw.num_pes, df.pe_split)
        else:
            agg_size = cmb_size = None

        if spmm_tiling is not None and gemm_tiling is not None:
            if not df.is_concrete:
                raise ValueError(
                    "explicit tilings require a concrete dataflow (no 'x' wildcards)"
                )
            specs = self.phase_specs(order)
            hw_agg = self.sub_array(agg_size)
            hw_cmb = self.sub_array(cmb_size)
            return (
                df,
                _run_engine(specs, df.agg, spmm_tiling, hw_agg, self.stats, self.cache),
                _run_engine(specs, df.cmb, gemm_tiling, hw_cmb, self.stats, self.cache),
            )

        agg = self.phase(df.agg, order, agg_size, hint)
        cmb = self.phase(df.cmb, order, cmb_size, hint)
        if df.inter is InterPhase.SP:
            agg, cmb = self.couple(df, agg, cmb)
        if agg.error is not None:
            raise ValueError(agg.error)
        if cmb.error is not None:
            raise ValueError(cmb.error)
        hw_agg = self.sub_array(agg_size)
        hw_cmb = self.sub_array(cmb_size)
        agg_res = self.result(agg, order, hw_agg, spmm_tiling)
        cmb_res = self.result(cmb, order, hw_cmb, gemm_tiling)
        if agg.intra is not df.agg or cmb.intra is not df.cmb:
            df = replace(df, agg=agg.intra, cmb=cmb.intra)
        return df, agg_res, cmb_res


def prepare_block(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    items,
    *,
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
) -> list:
    """Resolve tilings/partitions and run (or fetch) both phase engines for
    a whole batch of candidates.

    The intra-phase half of :func:`run_gnn_dataflow`, everything *before*
    inter-phase composition.  ``items`` holds ``(dataflow, hint,
    spmm_tiling, gemm_tiling)`` tuples; a pinned tiling replaces the
    automatic one for its phase.  Returns, in item order, each candidate's
    ``(concrete_df, agg_res, cmb_res)`` or its error text
    (``"ValueError: ..."``).

    Tiles, concretised intras, tilings and engine results are computed
    once per distinct phase mapping in the batch, not once per candidate.
    A candidate fails on the first of: Aggregation concretisation,
    Combination concretisation, PP partitioning, the SpMM engine, the GEMM
    engine.  ``cache`` is an optional
    :class:`~repro.engine.phasecache.PhaseEngineCache` shared across
    calls: candidates whose realized phase inputs match (same mapping,
    tiling, substrate, and workload face) share one engine run, and the
    shared result's memoized per-unit cycle views.
    """
    block = _Block(wl, hw, stats, cache)
    out: list = []
    for df, hint, spmm_tiling, gemm_tiling in items:
        try:
            out.append(block.prepare(df, hint, spmm_tiling, gemm_tiling))
        except (LegalityError, ValueError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def prepare_phases(
    wl: GNNWorkload,
    df: Dataflow,
    hw: AcceleratorConfig,
    *,
    hint: TileHint | None = None,
    spmm_tiling: SpmmTiling | None = None,
    gemm_tiling: GemmTiling | None = None,
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
) -> tuple[Dataflow, SpmmResult, GemmResult]:
    """:func:`prepare_block` for one candidate; raises its error."""
    return _Block(wl, hw, stats, cache).prepare(df, hint, spmm_tiling, gemm_tiling)


def run_gnn_dataflow(
    wl: GNNWorkload,
    df: Dataflow,
    hw: AcceleratorConfig,
    *,
    hint: TileHint | None = None,
    spmm_tiling: SpmmTiling | None = None,
    gemm_tiling: GemmTiling | None = None,
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
    partition=None,
) -> RunResult:
    """Cost one GNN layer under ``df`` on ``hw``.

    Tile sizes are chosen automatically (~100% static utilization, §V-A3)
    unless both tilings are supplied.  For PP, each phase runs on its PE
    partition with proportionally-shared GB bandwidth (§V-C3).

    ``stats`` is an optional
    :class:`~repro.engine.tilestats.TileStats` handle for ``wl.graph``;
    the evaluation service threads one per workload so every candidate of
    a session shares the same sparsity scans.  ``cache`` is an optional
    :class:`~repro.engine.phasecache.PhaseEngineCache` deduplicating
    whole engine runs across candidates that share a phase mapping.

    ``partition`` switches to block-partitioned evaluation (see
    :mod:`repro.core.partitioned`): an int block count, a
    ``{"blocks": k}`` / ``{"budget_bytes": n}`` dict, or a pre-resolved
    :class:`~repro.core.partitioned.PartitionPlan`.  Explicit tilings are
    incompatible with partitioning (each block tiles for its own shape).
    """
    if partition is not None:
        from .partitioned import resolve_partition, run_partitioned

        plan = resolve_partition(wl, hw, partition)
        if plan is not None:
            if spmm_tiling is not None or gemm_tiling is not None:
                raise ValueError(
                    "explicit tilings are incompatible with partitioned "
                    "evaluation"
                )
            return run_partitioned(wl, df, hw, plan, hint=hint, cache=cache)
    df, agg_res, cmb_res = prepare_phases(
        wl,
        df,
        hw,
        hint=hint,
        spmm_tiling=spmm_tiling,
        gemm_tiling=gemm_tiling,
        stats=stats,
        cache=cache,
    )
    return compose(df, wl, hw, agg_res, cmb_res)
