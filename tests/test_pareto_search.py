"""Search-quality guarantees of the factored Pareto search.

The factored search must reproduce the *exact* exhaustive design-space
optimum — same dataflow, same score, same first-minimum tie-breaking —
while evaluating at most 25% of the 6,656 candidates: on the golden
workloads (MUTAG and CiteSeer, the two datasets archived in
``tests/golden/table5_mutag_citeseer.jsonl``) and on every other Table IV
dataset but Reddit-BIN, whose full sweep is too slow for tier-1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.export import read_records
from repro.arch.config import AcceleratorConfig
from repro.core.enumeration import design_space_stream
from repro.core.evaluator import DataflowEvaluator
from repro.core.optimizer import MappingOptimizer, _collect
from repro.core.search import (
    DESIGN_SPACE_SIZE,
    PhasePoint,
    pareto_front,
    pareto_search,
)
from repro.core.taxonomy import InterPhase
from repro.core.workload import workload_from_dataset
from repro.graphs.datasets import load_dataset

GOLDEN = Path(__file__).parent / "golden" / "table5_mutag_citeseer.jsonl"
EVAL_BUDGET = DESIGN_SPACE_SIZE // 4  # the acceptance bound: <= 25%


def _workload(name):
    return workload_from_dataset(load_dataset(name))


@pytest.fixture(scope="module")
def mutag_reference():
    """One full 6,656-candidate sweep; _collect slices it per objective."""
    wl = _workload("mutag")
    hw = AcceleratorConfig(num_pes=512)
    ev = DataflowEvaluator(wl, hw)
    outcomes = ev.evaluate(design_space_stream(ev))
    return wl, hw, outcomes


class TestExhaustiveEquivalenceMutag:
    @pytest.mark.parametrize("objective", ["cycles", "energy", "edp"])
    def test_matches_exhaustive_optimum(self, mutag_reference, objective):
        wl, hw, outcomes = mutag_reference
        ref = _collect(outcomes, objective)
        ev = DataflowEvaluator(wl, hw)
        report = pareto_search(ev, objective=objective)
        res = report.result
        assert res.best_outcome.label == ref.best_outcome.label
        assert res.best_score == ref.best_score
        assert report.evaluated_delta <= EVAL_BUDGET
        assert report.evaluated_fraction <= 0.25

    def test_probe_accounting(self, mutag_reference):
        wl, hw, _ = mutag_reference
        ev = DataflowEvaluator(wl, hw)
        report = pareto_search(ev)
        # 2 phase orders x 2 phases x 48 intras at the full array, plus
        # the same grid again at the PP partition budgets.
        assert report.probes == 2 * 2 * 48 * 2
        assert report.front_sizes  # per-block accounting present
        assert len(report.candidates) == report.evaluated_delta


@pytest.mark.slow
class TestExhaustiveEquivalenceTableIV:
    @pytest.mark.parametrize(
        "dataset", ["citeseer", "proteins", "imdb-bin", "collab", "cora", "reddit-bin"]
    )
    def test_matches_exhaustive_optimum(self, dataset):
        wl = _workload(dataset)
        hw = AcceleratorConfig(num_pes=512)
        ev = DataflowEvaluator(wl, hw)
        report = pareto_search(ev, objective="cycles")
        outcomes = ev.evaluate(design_space_stream(ev))
        ref = _collect(outcomes, "cycles")
        res = report.result
        assert res.best_outcome.label == ref.best_outcome.label
        assert res.best_score == ref.best_score
        assert report.evaluated_delta <= EVAL_BUDGET


class TestGoldenBaselineCrossCheck:
    """The search must dominate every archived Table V configuration."""

    @pytest.mark.parametrize("dataset", ["mutag", "citeseer"])
    def test_beats_golden_table5(self, dataset):
        golden = [
            r for r in read_records(GOLDEN) if r["dataset"] == dataset
        ]
        assert golden, "golden records missing"
        best_cfg = min(r["cycles"] for r in golden)
        wl = _workload(dataset)
        ev = DataflowEvaluator(wl, AcceleratorConfig(num_pes=512))
        report = pareto_search(ev, objective="cycles")
        assert report.result.best_score <= best_cfg


class TestOptimizerIntegration:
    def test_pareto_method_and_report(self, mutag_reference):
        wl, hw, outcomes = mutag_reference
        ref = _collect(outcomes, "cycles")
        opt = MappingOptimizer(wl, hw, objective="cycles")
        res = opt.pareto()
        rep = opt.last_pareto_report
        assert res.best_outcome.label == ref.best_outcome.label
        assert res.best_score == ref.best_score
        assert rep is not None and rep.evaluated_fraction <= 0.25

    def test_candidate_stream_strategy(self, mutag_reference):
        wl, hw, outcomes = mutag_reference
        ref = _collect(outcomes, "cycles")
        opt = MappingOptimizer(wl, hw)
        stream = opt.candidate_stream("pareto")
        outs = opt.evaluator.evaluate(stream)
        res = _collect(outs, "cycles")
        assert res.best_outcome.label == ref.best_outcome.label
        assert res.best_score == ref.best_score

    def test_unknown_strategy_lists_pareto(self, mutag_reference):
        wl, hw, _ = mutag_reference
        opt = MappingOptimizer(wl, hw)
        with pytest.raises(ValueError, match="pareto"):
            opt.candidate_stream("bogus")

    def test_max_evals_truncates(self, mutag_reference):
        wl, hw, _ = mutag_reference
        ev = DataflowEvaluator(wl, hw)
        report = pareto_search(ev, max_evals=10)
        assert report.result is not None
        assert len(report.result.history) <= 10


class TestOnePeArray:
    def test_no_pp_partition_means_no_pp_candidates(self):
        """``pp_budgets(1, 0.5)`` leaves the Combination phase 0 PEs, so the
        search probes and proposes no PP point (the grid sweep reports
        every PP point as an error there) instead of raising."""
        wl = _workload("mutag")
        hw = AcceleratorConfig(num_pes=1)
        report = pareto_search(DataflowEvaluator(wl, hw), objective="cycles")
        assert report.result is not None
        assert report.candidates
        assert not any(df.inter is InterPhase.PP for df in report.candidates)
        assert report.probes == 2 * 2 * 48
        ev = DataflowEvaluator(wl, hw)
        ok = [o for o in ev.evaluate(design_space_stream(ev)) if o.ok]
        assert report.result.best_score == min(
            float(o.result.total_cycles) for o in ok
        )


class TestFrontSemantics:
    def test_enumeration_order_aware_dominance(self):
        # Equal metrics: the earlier point survives, the later is pruned.
        a = PhasePoint(idx=0, cycles=10, gb=5, rf=5)
        b = PhasePoint(idx=1, cycles=10, gb=5, rf=5)
        assert pareto_front([a, b]) == [a]
        # A cycles tie with worse traffic later: pruned only by the
        # earlier point; a *later* traffic-better point cannot evict an
        # earlier one (first-minimum tie-breaking needs it alive).
        c = PhasePoint(idx=2, cycles=10, gb=4, rf=4)
        assert pareto_front([a, c]) == [a, c]
        # Strictly dominated points are pruned regardless of order.
        d = PhasePoint(idx=3, cycles=9, gb=4, rf=4)
        assert d in pareto_front([a, c, d])
        assert pareto_front([d, a]) == [d]

    def test_front_is_idx_sorted(self):
        pts = [
            PhasePoint(idx=5, cycles=1, gb=9, rf=1),
            PhasePoint(idx=1, cycles=9, gb=1, rf=1),
            PhasePoint(idx=3, cycles=5, gb=5, rf=5),
        ]
        front = pareto_front(pts)
        assert [p.idx for p in front] == sorted(p.idx for p in front)


class TestCampaignAndApi:
    def test_api_search_pareto_strategy(self, tmp_path):
        import repro.api as api

        report = api.search("mutag", strategy="pareto", budget=None)
        row = report.units[0].rows[0]
        assert "pareto" in row
        acct = row["pareto"]
        assert acct["evaluated_fraction"] <= 0.25
        assert acct["design_space"] == DESIGN_SPACE_SIZE
        assert row["search_score"] <= row["paper_best"][1]
