"""Factored Pareto search over the paper's 6,656-point design space.

The full space is a product: (48 concrete Aggregation intras) x (48
concrete Combination intras) x (inter-phase strategy x phase order), with
legality filtering on the pipelined strategies.  Exhaustive sweeps walk
all 6,656 compositions even though the cost of a composition is largely
determined by its two *phase* costs — Seq totals are phase sums, SP/PP
totals are phase sums/overlaps under coupled or partitioned substrates.

This module exploits that factorization (the Timeloop/MAESTRO pruned-
mapper lineage, ISSUE 5):

1. **Probe** every intra-phase mapping once per (phase order, PE budget)
   through the evaluator's :class:`~repro.engine.phasecache.PhaseEngineCache`
   — 48 engine runs per phase per order at the full array (Seq/SP) plus
   the PP partition budgets.  Probes are engine runs, not candidate
   evaluations, and they seed the same cache the composed candidates hit.
2. **Per-phase Pareto fronts** over (cycles, GB traffic, RF traffic).
   Dominance is *enumeration-order aware*: among metric ties the earliest
   intra survives, so the lexicographically-first optimum of the
   exhaustive sweep is always composable from front members.
3. **Compose** only front members across inter-phase strategies — all
   front x front Seq pairs, and per legal loop-order pair the annotation
   fronts for SP/PP — and evaluate just those candidates through
   :meth:`~repro.core.evaluator.DataflowEvaluator.evaluate`, in the
   design-space enumeration order so tie-breaking matches the sweep.

Full-sweep result quality from a fraction of the candidates: the golden
tests assert the Pareto search reproduces the exhaustive optimum on
MUTAG/CiteSeer while evaluating <= 25% of the space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

# Not called here: perfbench/layers.py patches the engines at every module
# that imported them by value.
from ..engine.gemm import simulate_gemm  # noqa: F401
from ..engine.spmm import simulate_spmm  # noqa: F401
from .enumeration import _order_pair_granularity, all_concrete_intra, pair_mask
from .omega import prepare_phase
from .optimizer import SearchResult, _collect
from .taxonomy import (
    Dataflow,
    InterPhase,
    IntraDataflow,
    Phase,
    PhaseOrder,
    SPVariant,
)
from .tiling import pp_budgets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evaluator import DataflowEvaluator

__all__ = [
    "DESIGN_SPACE_SIZE",
    "PhasePoint",
    "ParetoReport",
    "pareto_front",
    "select_pareto_candidates",
    "pareto_search",
]

# The paper's headline count (Seq 4,608 + SP 1,024 + PP 1,024); the 25%
# evaluation budget the search targets is measured against it.
DESIGN_SPACE_SIZE = 6656
DEFAULT_MAX_EVALS = DESIGN_SPACE_SIZE // 4

_ANNOTS_PER_ORDER = 8


@dataclass(frozen=True)
class PhasePoint:
    """One intra-phase mapping's probed cost at one (order, budget)."""

    idx: int  # index into all_concrete_intra(phase)
    cycles: float
    gb: float  # total global-buffer accesses (reads + writes)
    rf: float  # total register-file accesses


def _dominates(q: PhasePoint, p: PhasePoint) -> bool:
    """Enumeration-order-aware Pareto dominance.

    ``q`` beats ``p`` when it is no worse on every metric and either
    strictly faster or — on a cycles tie — earlier in enumeration order
    with no-worse traffic.  The tie rule is what lets the composed subset
    always contain the exhaustive sweep's *first* optimum: a later intra
    can never evict an earlier one it merely ties.
    """
    return (
        q.cycles <= p.cycles
        and q.gb <= p.gb
        and q.rf <= p.rf
        and (q.cycles < p.cycles or q.idx < p.idx)
    )


def pareto_front(points: Iterable[PhasePoint]) -> list[PhasePoint]:
    """Non-dominated subset, in enumeration (idx) order."""
    pts = sorted(points, key=lambda p: p.idx)
    return [
        p
        for p in pts
        if not any(q is not p and _dominates(q, p) for q in pts)
    ]


# ----------------------------------------------------------------------
# Per-phase probing
# ----------------------------------------------------------------------

def _probe_phase(
    ev: "DataflowEvaluator",
    order: PhaseOrder,
    intra: IntraDataflow,
    num_pes: int,
    idx: int,
) -> PhasePoint | None:
    """Cost one intra-phase mapping at one PE budget via the phase cache.

    :func:`~repro.core.omega.prepare_phase` is the per-phase step of
    :func:`~repro.core.omega.prepare_block`, so the engine run lands in (or
    comes from) the same cache entry the composed candidates use.  Returns
    ``None`` when the budget cannot realize the mapping's annotations
    (those candidates fail evaluation too).
    """
    res = prepare_phase(
        ev.wl, ev.hw, order, intra, num_pes,
        stats=ev.tilestats, cache=ev.phase_cache,
    )
    if res is None:
        return None
    s = res.stats
    return PhasePoint(
        idx=idx,
        cycles=float(s.cycles),
        gb=sum(s.gb_reads.values()) + sum(s.gb_writes.values()),
        rf=float(s.rf_reads) + float(s.rf_writes),
    )


# ----------------------------------------------------------------------
# Candidate selection
# ----------------------------------------------------------------------

@dataclass
class ParetoReport:
    """What one factored search did, beyond the result itself."""

    result: SearchResult | None
    candidates: list[Dataflow]
    probes: int  # per-phase probe runs performed (engine-level)
    # Candidates this search evaluated that its evaluator had not seen:
    # cost-model runs, or answers from the store's warm cache, so a resumed
    # campaign reports the same number as the run that filled the store.
    evaluated_delta: int
    front_sizes: dict[str, int] = field(default_factory=dict)
    design_space: int = DESIGN_SPACE_SIZE

    @property
    def evaluated_fraction(self) -> float:
        return self.evaluated_delta / self.design_space


def _phase_points(
    ev: "DataflowEvaluator",
    order: PhaseOrder,
    phase: Phase,
    num_pes: int,
    counter: list[int],
) -> list[PhasePoint]:
    points = []
    for idx, intra in enumerate(all_concrete_intra(phase)):
        counter[0] += 1
        p = _probe_phase(ev, order, intra, num_pes, idx)
        if p is not None:
            points.append(p)
    return points


def select_pareto_candidates(
    ev: "DataflowEvaluator",
    *,
    include_sp_optimized: bool = False,
    pe_split: float = 0.5,
    report: ParetoReport | None = None,
) -> list[Dataflow]:
    """Probe phases, build fronts, and list the compositions worth costing.

    Candidates come back in design-space enumeration order (Seq blocks,
    then SP [+SP-Optimized], then PP; lexicographic (agg, cmb) within a
    block), so downstream first-minimum selection tie-breaks exactly like
    the exhaustive sweep.
    """
    agg_all = all_concrete_intra(Phase.AGGREGATION)
    cmb_all = all_concrete_intra(Phase.COMBINATION)
    probes = [0]
    front_sizes: dict[str, int] = {}

    # -- probe stage ---------------------------------------------------
    full = ev.hw.num_pes
    agg_pes, cmb_pes = pp_budgets(full, pe_split)
    full_points: dict[tuple[PhaseOrder, Phase], list[PhasePoint]] = {}
    pp_points: dict[tuple[PhaseOrder, Phase], list[PhasePoint]] = {}
    for order in PhaseOrder:
        full_points[(order, Phase.AGGREGATION)] = _phase_points(
            ev, order, Phase.AGGREGATION, full, probes
        )
        full_points[(order, Phase.COMBINATION)] = _phase_points(
            ev, order, Phase.COMBINATION, full, probes
        )
        if cmb_pes == 0:
            # A 1-PE array has no Combination share to partition off, so
            # PP has no probe points and no candidates (every PP grid point
            # fails evaluation there too).
            pp_points[(order, Phase.AGGREGATION)] = []
            pp_points[(order, Phase.COMBINATION)] = []
            continue
        pp_points[(order, Phase.AGGREGATION)] = (
            full_points[(order, Phase.AGGREGATION)]
            if agg_pes == full
            else _phase_points(ev, order, Phase.AGGREGATION, agg_pes, probes)
        )
        pp_points[(order, Phase.COMBINATION)] = (
            full_points[(order, Phase.COMBINATION)]
            if cmb_pes == full
            else _phase_points(ev, order, Phase.COMBINATION, cmb_pes, probes)
        )

    def by_loop_order(points: list[PhasePoint]) -> dict[int, list[PhasePoint]]:
        out: dict[int, list[PhasePoint]] = {}
        for p in points:
            out.setdefault(p.idx // _ANNOTS_PER_ORDER, []).append(p)
        return out

    candidates: list[Dataflow] = []

    # -- Seq: front x front over the whole 48-point phase spaces -------
    for order in PhaseOrder:
        fa = pareto_front(full_points[(order, Phase.AGGREGATION)])
        fc = pareto_front(full_points[(order, Phase.COMBINATION)])
        front_sizes[f"Seq_{order.value}"] = len(fa) * len(fc)
        for pa in fa:
            for pc in fc:
                candidates.append(
                    Dataflow(
                        inter=InterPhase.SEQ,
                        order=order,
                        agg=agg_all[pa.idx],
                        cmb=cmb_all[pc.idx],
                    )
                )

    # -- SP / PP: per legal loop-order pair, annotation fronts ---------
    def pipelined(
        inter: InterPhase,
        order: PhaseOrder,
        points: dict[tuple[PhaseOrder, Phase], list[PhasePoint]],
        sp_variant: SPVariant | None,
    ) -> list[Dataflow]:
        table = _order_pair_granularity(order)
        agg_fronts = {
            o: pareto_front(pts)
            for o, pts in by_loop_order(points[(order, Phase.AGGREGATION)]).items()
        }
        cmb_fronts = {
            o: pareto_front(pts)
            for o, pts in by_loop_order(points[(order, Phase.COMBINATION)]).items()
        }
        pairs: list[tuple[int, int]] = []
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                if table[i, j] >= 0:
                    pairs.append((i, j))
        out: list[tuple[int, int]] = []
        for i, j in pairs:
            for pa in agg_fronts.get(i, ()):
                for pc in cmb_fronts.get(j, ()):
                    out.append((pa.idx, pc.idx))
        out.sort()  # lexicographic (agg, cmb): the block's enumeration order
        return [
            Dataflow(
                inter=inter,
                order=order,
                agg=agg_all[ia],
                cmb=cmb_all[ic],
                sp_variant=sp_variant,
                pe_split=pe_split if inter is InterPhase.PP else 0.5,
            )
            for ia, ic in out
        ]

    for order in PhaseOrder:
        block = pipelined(InterPhase.SP, order, full_points, SPVariant.GENERIC)
        front_sizes[f"SP_{order.value}"] = len(block)
        candidates.extend(block)
        if include_sp_optimized:
            # Only 16 SP-Optimized points exist; compose them all exactly.
            mask = pair_mask(InterPhase.SP, order, SPVariant.OPTIMIZED)
            ii, jj = np.nonzero(mask)
            opt = [
                Dataflow(
                    inter=InterPhase.SP,
                    order=order,
                    agg=agg_all[i],
                    cmb=cmb_all[j],
                    sp_variant=SPVariant.OPTIMIZED,
                )
                for i, j in zip(ii.tolist(), jj.tolist())
            ]
            front_sizes[f"SP-Opt_{order.value}"] = len(opt)
            candidates.extend(opt)
    for order in PhaseOrder:
        block = pipelined(InterPhase.PP, order, pp_points, None)
        front_sizes[f"PP_{order.value}"] = len(block)
        candidates.extend(block)

    if report is not None:
        report.probes = probes[0]
        report.front_sizes = front_sizes
        report.candidates = candidates
    return candidates


def pareto_search(
    ev: "DataflowEvaluator",
    *,
    objective: str = "cycles",
    max_evals: int | None = None,
    include_sp_optimized: bool = False,
    pe_split: float = 0.5,
) -> ParetoReport:
    """Run the factored search end to end; returns result + accounting.

    ``max_evals`` bounds the number of composed candidates submitted for
    evaluation (default: 25% of the design space).  The report's
    ``evaluated_delta`` counts the candidates this search evaluated, fresh
    or from the store's warm cache, via
    :class:`~repro.core.evaluator.EvalStats` — the number the acceptance
    tests bound.
    """
    budget = DEFAULT_MAX_EVALS if max_evals is None else max_evals
    report = ParetoReport(
        result=None, candidates=[], probes=0, evaluated_delta=0
    )
    candidates = select_pareto_candidates(
        ev,
        include_sp_optimized=include_sp_optimized,
        pe_split=pe_split,
        report=report,
    )
    stats = ev.stats
    before = stats.evaluated + stats.warm_hits
    outcomes = ev.evaluate(
        ((df, None) for df in candidates), budget=budget
    )
    report.evaluated_delta = stats.evaluated + stats.warm_hits - before
    report.result = _collect(outcomes, objective)
    return report
