"""Mapping optimizer / design-space exploration on top of OMEGA.

The paper (§VI, "Mapping Optimizer") anticipates a mapper that searches the
multiphase dataflow space using OMEGA as its cost model.  This module
implements three complementary strategies:

- :func:`search_paper_configs` — the ten Table V configurations (a strong,
  cheap baseline sweep);
- :meth:`MappingOptimizer.exhaustive` — every pipeline-legal loop-order
  pair x inter-phase strategy x a hint portfolio, bounded by a budget;
- :meth:`MappingOptimizer.random_search` and
  :meth:`MappingOptimizer.refine_tiles` — randomized exploration plus a
  factor-of-two hill climb on explicit tile sizes.

All strategies — including the hill climb's explicit-tiling candidates,
via :class:`~repro.core.evaluator.ExplicitTiles` — route through the
:class:`~repro.core.evaluator.DataflowEvaluator` service, so searches are
memoized and — when the evaluator's session carries a
:class:`~repro.analysis.store.ResultStore` — persisted and resumable
across processes: a second optimizer run against the same store performs
zero duplicate cost-model evaluations, scoring candidates from the
persisted records instead.

Evaluation is *batched*: the evaluator groups each streamed batch by
(Aggregation mapping, Combination mapping) before dispatch, so candidates
differing only in inter-phase strategy, granularity, or PE split share
one engine run per phase through the session's
:class:`~repro.engine.phasecache.PhaseEngineCache` and compose together
(one PP recurrence per batch).  :meth:`MappingOptimizer.cache_counters`
exposes the resulting hit/miss accounting.

Objectives: ``cycles``, ``energy`` or ``edp`` (energy-delay product).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from ..arch.config import AcceleratorConfig
from ..engine.gemm import GemmTiling
from ..engine.spmm import SpmmTiling
from .configs import PAPER_CONFIGS
from .enumeration import table_ii_order_pairs
from .evaluator import (
    CandidateStream,
    DataflowEvaluator,
    EvalOutcome,
    ExplicitTiles,
)
from .interphase import RunResult
from .legality import LegalityError
from .taxonomy import (
    Annot,
    Dataflow,
    Dim,
    InterPhase,
    IntraDataflow,
    Phase,
    PhaseOrder,
    SPVariant,
)
from .tiling import TileHint
from .workload import GNNWorkload

__all__ = [
    "Objective",
    "SearchResult",
    "MappingOptimizer",
    "outcome_score",
    "paper_candidates",
    "paper_config_stream",
    "search_paper_configs",
]

Objective = Callable[[RunResult], float]

# The single source of truth for objectives.  Entries must score through
# the ``total_cycles`` / ``energy_pj`` accessors only, which both
# :class:`RunResult` and :class:`EvalOutcome` expose — so the same
# registry serves live results and warm-cache-backed outcomes.
OBJECTIVES: dict[str, Objective] = {
    "cycles": lambda r: float(r.total_cycles),
    "energy": lambda r: r.energy_pj,
    "edp": lambda r: float(r.total_cycles) * r.energy_pj,
}


def outcome_score(outcome: EvalOutcome, objective: str) -> float:
    """Score an outcome under a registered objective, from whichever
    backing it has (a live :class:`RunResult` or a warm-cache record)."""
    try:
        score = OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        ) from None
    return score(outcome)


@dataclass
class SearchResult:
    """Outcome of one search: the best candidate plus the evaluation trace.

    ``best_outcome`` may be warm-cache-backed (no live
    :class:`RunResult`) when the search resumed from a persisted store;
    ``best`` is then ``None`` while ``best_dataflow``/``best_score`` keep
    working from the record.
    """

    best_outcome: EvalOutcome
    objective: str
    evaluated: int
    history: list[tuple[str, float]] = field(default_factory=list)

    @property
    def best(self) -> RunResult | None:
        return self.best_outcome.result

    @property
    def best_dataflow(self) -> Dataflow:
        return self.best_outcome.dataflow

    @property
    def best_score(self) -> float:
        return outcome_score(self.best_outcome, self.objective)

    def top(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.history, key=lambda t: t[1])[:k]


def _collect(
    outcomes: Iterable[EvalOutcome], objective: str
) -> SearchResult:
    """Fold evaluator outcomes into a :class:`SearchResult`.

    Illegal candidates (outcome.error set) are excluded from the history,
    matching the optimizer's historical skip-on-LegalityError semantics.
    """
    best: EvalOutcome | None = None
    best_score = float("inf")
    history: list[tuple[str, float]] = []
    for outcome in outcomes:
        if not outcome.ok:
            continue
        s = outcome_score(outcome, objective)
        history.append((outcome.label, s))
        if best is None or s < best_score:
            best, best_score = outcome, s
    if best is None:
        raise LegalityError("no legal candidate dataflow found")
    return SearchResult(
        best_outcome=best,
        objective=objective,
        evaluated=len(history),
        history=history,
    )


def paper_candidates() -> Iterator[tuple]:
    """The ten Table V configurations as a lazy candidate source."""
    for name, cfg in PAPER_CONFIGS.items():
        yield cfg.dataflow(), cfg.hint, {"config": name}


def paper_config_stream(evaluator: DataflowEvaluator) -> CandidateStream:
    """The Table V baseline as a fingerprinted, re-iterable stream."""
    return evaluator.stream(paper_candidates, label="paper")


def search_paper_configs(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    *,
    objective: str = "cycles",
    evaluator: DataflowEvaluator | None = None,
) -> SearchResult:
    """Evaluate the ten Table V configurations and pick the winner.

    Pass ``evaluator`` to share its memo, caches and store."""
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    ev = evaluator if evaluator is not None else DataflowEvaluator(wl, hw)
    outcomes = ev.evaluate(paper_config_stream(ev))
    for outcome in outcomes:
        if not outcome.ok:  # Table V rows are all legal by construction
            raise LegalityError(f"{outcome.label}: {outcome.error}")
    return _collect(outcomes, objective)


def _hint_portfolio() -> list[TileHint]:
    """A small diverse set of tile-selection strategies."""
    hints = [TileHint()]
    hints.append(TileHint(agg_priority=(Dim.V, Dim.F, Dim.N)))
    hints.append(
        TileHint(
            agg_priority=(Dim.V, Dim.F, Dim.N),
            caps={(Phase.AGGREGATION, Dim.V): 64},
        )
    )
    hints.append(TileHint(agg_priority=(Dim.N, Dim.F, Dim.V)))
    hints.append(
        TileHint(
            cmb_priority=(Dim.V, Dim.G, Dim.F),
            caps={(Phase.COMBINATION, Dim.V): 64},
        )
    )
    return hints


class MappingOptimizer:
    """Searches multiphase dataflows for one workload on one substrate.

    All candidate evaluations flow through a single
    :class:`DataflowEvaluator`, shared across this optimizer's searches:
    repeated or overlapping searches hit its memo instead of re-running
    the cost model.  Pass ``session=`` to draw the evaluator from a shared
    :class:`~repro.campaign.session.ExplorationSession` (one set of memos
    and caches across many workloads); a session with a store persists
    every evaluated mapping and answers a later optimizer run's repeated
    candidates from disk.  Without a session the optimizer uses a private
    one with no store.
    """

    def __init__(
        self,
        wl: GNNWorkload,
        hw: AcceleratorConfig,
        *,
        objective: str = "cycles",
        session: "Any | None" = None,
        record_extra: Mapping[str, Any] | None = None,
        partition=None,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
            )
        self.wl = wl
        self.hw = hw
        self.objective = objective
        self._score = OBJECTIVES[objective]
        self.last_pareto_report: "Any | None" = None
        self.evaluator = DataflowEvaluator(
            wl, hw, record_extra=record_extra, session=session,
            partition=partition,
        )

    def cache_counters(self) -> dict:
        """Phase-engine cache efficacy across this optimizer's searches.

        ``phase_hits`` counts engine runs answered from the per-context
        result cache, ``phase_misses`` the runs
        actually simulated — the redundancy factor the batched evaluator
        eliminates relative to one-engine-run-per-candidate.
        """
        stats = self.evaluator.stats
        return {
            "phase_hits": stats.phase_hits,
            "phase_misses": stats.phase_misses,
        }

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        candidates: Iterable[tuple[Dataflow, TileHint | None]],
        budget: int | None,
    ) -> SearchResult:
        outcomes = self.evaluator.evaluate(candidates, budget=budget)
        return _collect(outcomes, self.objective)

    # ------------------------------------------------------------------
    def _pipeline_candidates(self) -> Iterator[tuple[Dataflow, TileHint | None]]:
        """All SP/PP loop-order pairs (Table II rows 2-9) x hint portfolio."""
        hints = _hint_portfolio()
        for order in PhaseOrder:
            pairs = table_ii_order_pairs(InterPhase.PP, order)
            for agg_order, cmb_order in sorted(pairs, key=str):
                agg = IntraDataflow(
                    Phase.AGGREGATION, agg_order, (Annot.EITHER,) * 3
                )
                cmb = IntraDataflow(
                    Phase.COMBINATION, cmb_order, (Annot.EITHER,) * 3
                )
                for hint in hints:
                    for inter, variant, split in (
                        (InterPhase.SP, SPVariant.GENERIC, 0.5),
                        (InterPhase.SP, SPVariant.OPTIMIZED, 0.5),
                        (InterPhase.PP, None, 0.25),
                        (InterPhase.PP, None, 0.5),
                        (InterPhase.PP, None, 0.75),
                    ):
                        try:
                            df = Dataflow(
                                inter=inter,
                                order=order,
                                agg=agg,
                                cmb=cmb,
                                sp_variant=variant,
                                pe_split=split,
                            )
                        except ValueError:
                            continue
                        yield df, hint

    def _seq_candidates(self) -> Iterator[tuple[Dataflow, TileHint | None]]:
        """A representative Seq sample: canonical orders x hint portfolio."""
        hints = _hint_portfolio()
        agg_orders = [
            (Dim.V, Dim.F, Dim.N),
            (Dim.F, Dim.V, Dim.N),
            (Dim.V, Dim.N, Dim.F),
        ]
        cmb_orders = [
            (Dim.V, Dim.G, Dim.F),
            (Dim.V, Dim.F, Dim.G),
            (Dim.G, Dim.V, Dim.F),
        ]
        for order in PhaseOrder:
            for ao, co in itertools.product(agg_orders, cmb_orders):
                agg = IntraDataflow(Phase.AGGREGATION, ao, (Annot.EITHER,) * 3)
                cmb = IntraDataflow(Phase.COMBINATION, co, (Annot.EITHER,) * 3)
                for hint in hints:
                    yield Dataflow(
                        inter=InterPhase.SEQ, order=order, agg=agg, cmb=cmb
                    ), hint

    def _random_candidates(
        self, n: int, seed: int
    ) -> Iterator[tuple[Dataflow, TileHint | None]]:
        """``n`` uniform draws without replacement, without materializing
        the pool.

        Two cheap enumeration passes replace the historical full-list
        build: one to count the pool, one to collect just the drawn
        candidates (O(n) memory).  Draw order — and therefore the search
        trace — is bit-identical to the eager implementation's
        ``(pool[i] for i in rng.choice(...))``.
        """

        def pool_iter() -> Iterator[tuple[Dataflow, TileHint | None]]:
            yield from self._pipeline_candidates()
            yield from self._seq_candidates()

        total = sum(1 for _ in pool_iter())
        rng = np.random.default_rng(seed)
        idx = rng.choice(total, size=min(n, total), replace=False)
        wanted = {int(i) for i in idx}
        picked: dict[int, tuple[Dataflow, TileHint | None]] = {}
        for i, candidate in enumerate(pool_iter()):
            if i in wanted:
                picked[i] = candidate
                if len(picked) == len(wanted):
                    break
        for i in idx:
            yield picked[int(i)]

    def candidate_stream(
        self,
        strategy: str = "exhaustive",
        *,
        n: int | None = None,
        seed: int = 0,
    ) -> CandidateStream:
        """One search strategy's candidates as a lazy fingerprinted stream.

        ``strategy`` is ``"paper"`` (the Table V baseline),
        ``"exhaustive"`` (Seq samples plus every pipeline-legal pair),
        ``"random"`` (``n`` uniform draws under ``seed``), or
        ``"pareto"`` (the factored per-phase Pareto-front compositions of
        :mod:`repro.core.search`).  Streams are re-iterable and — except
        for ``"pareto"``, whose probe stage runs once on first iteration —
        materialize nothing; the evaluator filters their warm-cache /
        memo hits during batch assembly, before the cost model sees
        anything.
        """
        if strategy == "paper":
            return paper_config_stream(self.evaluator)
        if strategy == "pareto":
            selected: list = []

            def pareto_source():
                if not selected:
                    from .search import select_pareto_candidates

                    selected.append(
                        [
                            (df, None)
                            for df in select_pareto_candidates(self.evaluator)
                        ]
                    )
                return iter(selected[0])

            return self.evaluator.stream(pareto_source, label="pareto")
        if strategy == "exhaustive":
            return self.evaluator.stream(
                lambda: itertools.chain(
                    self._seq_candidates(), self._pipeline_candidates()
                ),
                label="exhaustive",
            )
        if strategy == "random":
            draws = 64 if n is None else n
            return self.evaluator.stream(
                lambda: self._random_candidates(draws, seed),
                label=f"random-{draws}@{seed}",
            )
        raise ValueError(
            f"unknown strategy {strategy!r}; pick from "
            "['exhaustive', 'pareto', 'paper', 'random']"
        )

    def exhaustive(self, *, budget: int | None = None) -> SearchResult:
        """Sweep Seq samples plus every pipeline-legal pair (bounded)."""
        return self._evaluate(self.candidate_stream("exhaustive"), budget)

    def random_search(self, n: int, *, seed: int = 0) -> SearchResult:
        """Uniform random draws from the pipeline candidate pool."""
        return self._evaluate(
            self.candidate_stream("random", n=n, seed=seed), None
        )

    def pareto(self, *, max_evals: int | None = None) -> SearchResult:
        """Factored Pareto search over the paper's full design space.

        Probes each phase's 48 concrete mappings through the phase-engine
        cache, keeps the per-phase Pareto fronts over (cycles, GB
        traffic, RF traffic), and evaluates only front x front
        compositions — reproducing the exhaustive design-space optimum
        (same dataflow, same score, same tie-breaking) from a few percent
        of the 6,656 candidate evaluations.  The full accounting of the
        last run (probe count, front sizes, evaluated fraction) is kept
        on ``last_pareto_report``.
        """
        from .search import pareto_search

        report = pareto_search(
            self.evaluator, objective=self.objective, max_evals=max_evals
        )
        self.last_pareto_report = report
        return report.result

    # ------------------------------------------------------------------
    def refine_tiles(
        self,
        df: Dataflow,
        spmm_tiling: SpmmTiling,
        gemm_tiling: GemmTiling,
        *,
        max_steps: int = 32,
    ) -> tuple[EvalOutcome, SpmmTiling, GemmTiling]:
        """Factor-of-two hill climb on explicit tile sizes.

        Neighbor moves halve one tile dimension and double another within
        the same phase (preserving the PE budget).  Stops at a local
        optimum or after ``max_steps`` improvements.

        Every probed tiling routes through the evaluator as an
        :class:`ExplicitTiles` candidate, so climbs memoize, persist to
        the store, and — on a warm session — resume from disk.  The
        returned best is an :class:`EvalOutcome` (its ``total_cycles`` /
        ``energy_pj`` accessors work from either backing).
        """

        def concretized(st: SpmmTiling, gt: GemmTiling) -> Dataflow:
            # Re-derive s/t annotations from the tile sizes so halving a
            # spatial dim to 1 legally turns it temporal (paper Fig. 4).
            from .tiling import concretize_intra

            agg = replace(df.agg, annot=(Annot.EITHER,) * 3)
            cmb = replace(df.cmb, annot=(Annot.EITHER,) * 3)
            return replace(
                df,
                agg=concretize_intra(
                    agg, {Dim.V: st.t_v, Dim.F: st.t_f, Dim.N: st.t_n}
                ),
                cmb=concretize_intra(
                    cmb, {Dim.V: gt.t_v, Dim.F: gt.t_f, Dim.G: gt.t_g}
                ),
            )

        def probe(st: SpmmTiling, gt: GemmTiling) -> EvalOutcome | None:
            try:
                cand = concretized(st, gt)
            except (LegalityError, ValueError):
                return None
            outcome = self.evaluator.evaluate_one(cand, ExplicitTiles(st, gt))
            return outcome if outcome.ok else None

        cur = probe(spmm_tiling, gemm_tiling)
        if cur is None:
            raise LegalityError(f"initial tiling is illegal for {df}")
        cur_s, cur_g = spmm_tiling, gemm_tiling

        def neighbors(
            st: SpmmTiling, gt: GemmTiling
        ) -> Iterator[tuple[SpmmTiling, GemmTiling]]:
            s_dims = [st.t_v, st.t_f, st.t_n]
            for i, j in itertools.permutations(range(3), 2):
                if s_dims[i] >= 2:
                    nd = list(s_dims)
                    nd[i] //= 2
                    nd[j] *= 2
                    yield SpmmTiling(*nd), gt
            g_dims = [gt.t_v, gt.t_f, gt.t_g]
            for i, j in itertools.permutations(range(3), 2):
                if g_dims[i] >= 2:
                    nd = list(g_dims)
                    nd[i] //= 2
                    nd[j] *= 2
                    yield st, GemmTiling(*nd)

        cur_score = outcome_score(cur, self.objective)
        for _ in range(max_steps):
            improved = False
            for st, gt in neighbors(cur_s, cur_g):
                res = probe(st, gt)
                if res is not None and outcome_score(res, self.objective) < cur_score:
                    cur, cur_s, cur_g = res, st, gt
                    cur_score = outcome_score(res, self.objective)
                    improved = True
                    break
            if not improved:
                break
        return cur, cur_s, cur_g
