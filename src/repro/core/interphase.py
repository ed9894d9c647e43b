"""Inter-phase cost composition (paper §IV, Table III).

Combines the two intra-phase engine results into a whole-layer cost under
the chosen inter-phase dataflow:

============  =========================  ==================================
dataflow      intermediate buffering     runtime
============  =========================  ==================================
Seq           ``V x F`` (DRAM if big)    ``t_AGG + t_CMB`` (+ spill xfer)
SP-Generic    ``Pel``                    ``t_AGG + t_CMB``
SP-Optimized  0 (stays in PE RF)         ``t_AGG + t_CMB - t_load``
PP            ``2 x Pel`` ping-pong      bounded-pipeline recurrence
============  =========================  ==================================

Energy follows the access counts: Seq/SP-Generic stage the intermediate
through the global buffer; SP-Optimized turns that traffic into register
file accesses; PP charges it to the small dedicated ping-pong partition
(lower per-access energy, §V-B2); Seq spills the overflow to DRAM when the
global buffer is finite.

:func:`compose_batch` is the one composition path: :func:`compose` is a
batch of one, and the evaluator composes whole dispatch groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from typing import Sequence

from ..arch.config import AcceleratorConfig
from ..arch.energy import EnergyBreakdown
from ..arch.memory import DramModel, SpillReport
from ..engine.gemm import GemmResult
from ..engine.spmm import SpmmResult
from ..engine.stats import PhaseStats, merge_counts
from .granularity import GranuleSpec, granule_series, make_granule_spec
from .legality import LegalityError, validate_dataflow
from .pipeline import PipelineReport, bounded_pipeline_batch
from .taxonomy import (
    Dataflow,
    Granularity,
    InterPhase,
    PhaseOrder,
    SPVariant,
)
from .workload import GNNWorkload

__all__ = ["RunResult", "compose", "compose_batch"]

# One compose_batch item: (dataflow, workload, hw, agg_result, cmb_result) —
# the argument tuple of one compose() call.
ComposeItem = "tuple[Dataflow, GNNWorkload, AcceleratorConfig, SpmmResult, GemmResult]"

# Granule budget per recurrence sub-batch: bounds how many series are
# materialized simultaneously (a series is one float64 per granule, twice
# over).  A single over-budget series still runs, alone in its sub-batch.
_MAX_BATCH_GRANULES = 8_000_000


@dataclass
class RunResult:
    """Whole-layer cost of one dataflow on one workload.

    ``gb_reads``/``gb_writes`` are element counts *after* redirection: the
    intermediate's traffic is removed for SP-Optimized (RF-resident) and PP
    (ping-pong buffer) and reported in ``rf_*`` / ``intermediate_*``
    instead.  ``energy`` prices every pool at its level's per-access cost.
    """

    dataflow: Dataflow
    workload: GNNWorkload
    hw: AcceleratorConfig
    total_cycles: int
    agg: PhaseStats
    cmb: PhaseStats
    gb_reads: dict[str, float]
    gb_writes: dict[str, float]
    rf_reads: float
    rf_writes: float
    intermediate_reads: float  # through the PP ping-pong buffer
    intermediate_writes: float
    intermediate_buffer_elements: int  # Table III "Intermediate Buffering"
    energy: EnergyBreakdown
    granularity: Granularity | None = None
    pel: int | None = None
    pipeline: PipelineReport | None = None
    spill: SpillReport | None = None
    notes: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_gb_accesses(self) -> float:
        return float(sum(self.gb_reads.values()) + sum(self.gb_writes.values()))

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    def gb_breakdown(self) -> dict[str, float]:
        """Fig. 13-style operand breakdown (reads + writes, elements)."""
        out: dict[str, float] = {}
        for d in (self.gb_reads, self.gb_writes):
            for k, v in d.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def summary(self) -> dict:
        return {
            "dataflow": self.dataflow.name or str(self.dataflow),
            "workload": self.workload.name,
            "cycles": self.total_cycles,
            "energy_pj": self.energy_pj,
            "gb_accesses": self.total_gb_accesses,
            "intermediate_buffer": self.intermediate_buffer_elements,
            "granularity": self.granularity.value if self.granularity else None,
        }


def _roofline(
    steps: int, reads: float, writes: float, hw: AcceleratorConfig, stalls: int
) -> int:
    """Steady-state roofline matching the engines: compute + serialized
    stationary loads vs pipelined distribution vs collection."""
    dist = math.ceil(reads / hw.effective_dist_bw)
    red = math.ceil(writes / hw.effective_red_bw)
    return max(steps + stalls, dist, red)


def _energy_from_counts(
    gb_reads: dict[str, float],
    gb_writes: dict[str, float],
    rf_reads: float,
    rf_writes: float,
    int_reads: float,
    int_writes: float,
    int_buffer_bytes: float,
    spill: SpillReport | None,
    hw: AcceleratorConfig,
) -> EnergyBreakdown:
    e = hw.energy
    int_pj = e.buffer_pj(int_buffer_bytes)
    out = EnergyBreakdown(
        gb_read_pj=sum(gb_reads.values()) * e.gb_pj,
        gb_write_pj=sum(gb_writes.values()) * e.gb_pj,
        rf_read_pj=rf_reads * e.rf_pj,
        rf_write_pj=rf_writes * e.rf_pj,
        intermediate_pj=(int_reads + int_writes) * int_pj,
        dram_pj=(
            (spill.dram_reads + spill.dram_writes) * e.dram_pj if spill else 0.0
        ),
    )
    return out


def _seq_spill(
    wl: GNNWorkload, df: Dataflow, hw: AcceleratorConfig
) -> SpillReport | None:
    """Seq only: intermediate overflow to DRAM when the GB is finite."""
    if hw.gb_bytes is None:
        return None
    ac = df.order is PhaseOrder.AC
    int_elems = wl.intermediate_elements(ac)
    resident = (
        wl.num_edges  # adjacency values/indices
        + (wl.num_vertices + 1)  # row pointers
        + wl.num_vertices * wl.in_features  # X0
        + wl.in_features * wl.out_features  # W
        + wl.num_vertices * wl.out_features  # X1
    )
    free = hw.gb_bytes // hw.bytes_per_element - resident
    return DramModel().spill(int_elems, free)


def compose(
    df: Dataflow,
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
) -> RunResult:
    """Compose the two phases' results under ``df``'s inter-phase strategy.

    The engines must already have been run on the correct substrate: the
    full array for Seq/SP, the respective partitions for PP (handled by
    :func:`repro.core.omega.run_gnn_dataflow`).  A batch of one through
    :func:`compose_batch`.
    """
    return compose_batch([(df, wl, hw, agg_res, cmb_res)])[0]


def compose_batch(items: "Sequence[ComposeItem]") -> list[RunResult]:
    """Compose many candidates at once: the one composition path, used by
    :func:`compose` (a batch of one) and the evaluator alike.

    Candidates sharing the same phase-result pair, phase order, producer
    mapping, and granularity (e.g. the pe_split sweep of one PP mapping,
    or phase-cache-mates) build their producer/consumer granule series
    once and run the PP recurrence once; the deduplicated series go
    through :func:`bounded_pipeline_batch` in sub-batches of at most
    ``_MAX_BATCH_GRANULES`` granules.

    The first item (in item order) whose composition is illegal raises;
    composition is side-effect free, so nothing is observable of the
    items after it.
    """
    results, errors = _compose_batch(items)
    if errors:
        raise errors[0][1]
    return results  # type: ignore[return-value]


def _compose_batch(
    items: "Sequence[ComposeItem]",
) -> tuple[list["RunResult | None"], list[tuple[int, Exception]]]:
    """Shared core of :func:`compose_batch`: per-item results + captured
    per-item failures (``(item_index, exception)``, in item order) so the
    evaluation service can report illegal candidates individually."""
    n = len(items)
    grans: list[Granularity | None] = [None] * n
    errors: list[tuple[int, Exception]] = []
    failed: set[int] = set()
    # PP granule specs, deduplicated: series_of maps item index -> slot.
    # Specs are cheap (tile-size arithmetic); the series themselves are
    # built lazily below, one bounded sub-batch at a time, because an
    # element-granularity series can run to millions of granules and a
    # whole batch of them must never be resident at once.
    series_key: dict[tuple, int] = {}
    series_of: dict[int, int] = {}
    pp_specs: list[GranuleSpec] = []
    pp_args: list[tuple] = []  # (df, wl, agg_res, cmb_res) per slot
    for i, (df, wl, hw, agg_res, cmb_res) in enumerate(items):
        try:
            gran = validate_dataflow(df)
            grans[i] = gran
            if df.inter is InterPhase.PP:
                assert gran is not None
                # Everything the spec/series derivation reads, by identity:
                # shared phase results (the cache returns one object per
                # distinct engine run) collapse to one series build.
                key = (id(wl), id(agg_res), id(cmb_res), df.order, gran, df.producer)
                slot = series_key.get(key)
                if slot is None:
                    slot = len(pp_specs)
                    pp_specs.append(
                        make_granule_spec(df, wl, gran, agg_res, cmb_res)
                    )
                    pp_args.append((df, wl, agg_res, cmb_res))
                    series_key[key] = slot
                series_of[i] = slot
        except (LegalityError, ValueError) as exc:
            errors.append((i, exc))
            failed.add(i)

    reports: list[PipelineReport | None] = [None] * len(pp_specs)
    sub: list[int] = []
    sub_elems = 0
    for slot in range(len(pp_specs) + 1):
        flush = slot == len(pp_specs) or (
            sub and sub_elems + pp_specs[slot].num_granules > _MAX_BATCH_GRANULES
        )
        if flush and sub:
            prod_series = []
            cons_series = []
            for s in sub:
                df, wl, agg_res, cmb_res = pp_args[s]
                prod, cons = granule_series(df, pp_specs[s], agg_res, cmb_res)
                prod_series.append(prod)
                cons_series.append(cons)
            batch_reports = bounded_pipeline_batch(
                prod_series, cons_series, depth=2
            )
            for s, report in zip(sub, batch_reports):
                reports[s] = report
            sub = []
            sub_elems = 0
        if slot < len(pp_specs):
            sub.append(slot)
            sub_elems += pp_specs[slot].num_granules

    results: list[RunResult | None] = [None] * n
    for i, (df, wl, hw, agg_res, cmb_res) in enumerate(items):
        if i in failed:
            continue
        pp = None
        if i in series_of:
            slot = series_of[i]
            pp = (pp_specs[slot], reports[slot])
        try:
            results[i] = _finish_compose(
                df, wl, hw, agg_res, cmb_res, grans[i], pp
            )
        except (LegalityError, ValueError) as exc:
            errors.append((i, exc))
    errors.sort(key=lambda pair: pair[0])
    return results, errors


def _finish_compose(
    df: Dataflow,
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
    gran: Granularity | None,
    pp: "tuple[GranuleSpec, PipelineReport] | None",
) -> RunResult:
    """Inter-phase accounting for one candidate, given its PP granule
    spec and recurrence report (``None`` for Seq/SP)."""
    agg = agg_res.stats
    cmb = cmb_res.stats
    ac = df.order is PhaseOrder.AC
    notes: list[str] = []

    gb_reads = merge_counts(agg.gb_reads, cmb.gb_reads)
    gb_writes = merge_counts(agg.gb_writes, cmb.gb_writes)
    rf_reads = agg.rf_reads + cmb.rf_reads
    rf_writes = agg.rf_writes + cmb.rf_writes
    int_reads = int_writes = 0.0
    int_buffer_elems = 0
    pel: int | None = None
    pipeline: PipelineReport | None = None
    spill: SpillReport | None = None

    if df.inter is InterPhase.SEQ:
        spill = _seq_spill(wl, df, hw)
        total = agg.cycles + cmb.cycles
        int_buffer_elems = wl.intermediate_elements(ac)
        if spill and spill.spilled:
            total += spill.transfer_cycles
            # The spilled portion's GB traffic happens in DRAM instead.
            gb_reads["intermediate"] = max(
                0.0, gb_reads.get("intermediate", 0.0) - spill.spilled_elements
            )
            gb_writes["intermediate"] = max(
                0.0, gb_writes.get("intermediate", 0.0) - spill.spilled_elements
            )
            notes.append(
                f"Seq intermediate spilled {spill.spilled_elements} elements to DRAM"
            )

    elif df.inter is InterPhase.SP and df.sp_variant is SPVariant.OPTIMIZED:
        if not hw.supports_temporal_reduction:
            raise LegalityError(
                "SP-Optimized needs temporal reduction support (paper §V-D)"
            )
        # Producer keeps the intermediate in RF: its GB writes become RF
        # writes and its collection roofline shrinks accordingly.
        prod, cons = (agg, cmb) if ac else (cmb, agg)
        prod_int_writes = prod.gb_writes.get("intermediate", 0.0)
        cons_int_reads = cons.gb_reads.get("intermediate", 0.0)
        prod_cycles = _roofline(
            prod.compute_steps,
            prod.streamed_reads,
            prod.total_gb_writes - prod_int_writes,
            hw,
            prod.load_stall_cycles,
        )
        # Consumer reads the intermediate from the RF where it already
        # lives: drop its streamed intermediate reads (if it streamed them)
        # and its stationary-load stalls for the intermediate (t_load).
        cons_streamed = cons.streamed_reads
        if "intermediate" in cons.streamed_operands:
            cons_streamed -= cons_int_reads
        cons_cycles = _roofline(
            cons.compute_steps,
            cons_streamed,
            cons.total_gb_writes,
            hw,
            cons.load_stall_cycles - cons.intermediate_load_stall_cycles,
        )
        total = prod_cycles + cons_cycles
        t_load_saved = (agg.cycles + cmb.cycles) - total
        notes.append(f"SP-Optimized saved {t_load_saved} cycles of t_load/staging")
        gb_writes["intermediate"] = (
            gb_writes.get("intermediate", 0.0) - prod_int_writes
        )
        gb_reads["intermediate"] = gb_reads.get("intermediate", 0.0) - cons_int_reads
        rf_writes += prod_int_writes
        rf_reads += cons_int_reads
        int_buffer_elems = 0
        pel = 0

    elif df.inter is InterPhase.SP:  # SP-Generic
        assert gran is not None
        spec = make_granule_spec(df, wl, gran, agg_res, cmb_res)
        pel = spec.pel
        int_buffer_elems = spec.pel
        total = agg.cycles + cmb.cycles
        notes.append(
            f"SP-Generic staged {spec.num_granules} granules of {spec.pel} elements"
        )

    else:  # PP
        assert pp is not None
        spec, pipeline = pp
        pel = spec.pel
        int_buffer_elems = spec.buffering_elements
        total = pipeline.total_cycles
        # Intermediate traffic moves to the dedicated ping-pong partition.
        prod, cons = (agg, cmb) if ac else (cmb, agg)
        int_writes = prod.gb_writes.get("intermediate", 0.0)
        int_reads = cons.gb_reads.get("intermediate", 0.0)
        gb_writes["intermediate"] = (
            gb_writes.get("intermediate", 0.0) - int_writes
        )
        gb_reads["intermediate"] = gb_reads.get("intermediate", 0.0) - int_reads

    # Drop zeroed operand entries for clean reports.
    gb_reads = {k: v for k, v in gb_reads.items() if v > 0}
    gb_writes = {k: v for k, v in gb_writes.items() if v > 0}

    energy = _energy_from_counts(
        gb_reads,
        gb_writes,
        rf_reads,
        rf_writes,
        int_reads,
        int_writes,
        int_buffer_elems * hw.bytes_per_element,
        spill,
        hw,
    )
    return RunResult(
        dataflow=df,
        workload=wl,
        hw=hw,
        total_cycles=int(total),
        agg=agg,
        cmb=cmb,
        gb_reads=gb_reads,
        gb_writes=gb_writes,
        rf_reads=rf_reads,
        rf_writes=rf_writes,
        intermediate_reads=int_reads,
        intermediate_writes=int_writes,
        intermediate_buffer_elements=int(int_buffer_elems),
        energy=energy,
        granularity=gran,
        pel=pel,
        pipeline=pipeline,
        spill=spill,
        notes=notes,
    )
