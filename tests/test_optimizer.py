"""Tests for the mapping optimizer (paper §VI future-work extension)."""

from __future__ import annotations

import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.optimizer import (
    OBJECTIVES,
    MappingOptimizer,
    search_paper_configs,
)
from repro.core.taxonomy import parse_dataflow
from repro.core.workload import GNNWorkload
from repro.engine.gemm import GemmTiling
from repro.engine.spmm import SpmmTiling


@pytest.fixture
def hw():
    return AcceleratorConfig(num_pes=64)


@pytest.fixture
def wl(er_graph):
    return GNNWorkload(er_graph, in_features=24, out_features=6, name="er")


class TestPaperSweep:
    def test_covers_all_configs(self, wl, hw):
        r = search_paper_configs(wl, hw)
        assert r.evaluated == 9
        assert len(r.history) == 9

    def test_best_is_minimum(self, wl, hw):
        r = search_paper_configs(wl, hw, objective="cycles")
        assert r.best_score == min(s for _, s in r.history)

    def test_energy_objective(self, wl, hw):
        r = search_paper_configs(wl, hw, objective="energy")
        assert r.best_score == min(s for _, s in r.history)

    def test_top_k_sorted(self, wl, hw):
        r = search_paper_configs(wl, hw)
        top = r.top(3)
        assert len(top) == 3
        assert top[0][1] <= top[1][1] <= top[2][1]


class TestOptimizer:
    def test_unknown_objective(self, wl, hw):
        with pytest.raises(ValueError):
            MappingOptimizer(wl, hw, objective="speed")

    def test_exhaustive_beats_paper_sweep(self, wl, hw):
        """A broader search can only improve on the fixed Table V set."""
        paper = search_paper_configs(wl, hw)
        opt = MappingOptimizer(wl, hw)
        full = opt.exhaustive(budget=250)
        assert full.best_score <= paper.best_score * 1.001

    def test_budget_respected(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        r = opt.exhaustive(budget=20)
        assert r.evaluated <= 20

    def test_random_search_reproducible(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        a = opt.random_search(25, seed=3)
        b = opt.random_search(25, seed=3)
        assert [h for h in a.history] == [h for h in b.history]

    def test_all_evaluated_are_legal(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        r = opt.exhaustive(budget=100)
        assert r.evaluated > 0
        assert all(s > 0 for _, s in r.history)

    def test_edp_objective_combines(self, wl, hw):
        opt = MappingOptimizer(wl, hw, objective="edp")
        r = opt.exhaustive(budget=40)
        best = r.best
        assert r.best_score == pytest.approx(
            best.total_cycles * best.energy_pj
        )


class TestRefineTiles:
    def test_refinement_never_worse(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        df = parse_dataflow("Seq_AC(VsFsNt, VsGsFt)")
        st, gt = SpmmTiling(4, 8, 1), GemmTiling(8, 1, 6)
        from repro.core.omega import run_gnn_dataflow

        start = run_gnn_dataflow(wl, df, hw, spmm_tiling=st, gemm_tiling=gt)
        refined, rst, rgt = opt.refine_tiles(df, st, gt)
        assert refined.total_cycles <= start.total_cycles

    def test_refinement_respects_budget(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        df = parse_dataflow("Seq_AC(VsFsNt, VsGsFt)")
        _, rst, rgt = opt.refine_tiles(
            df, SpmmTiling(4, 8, 1), GemmTiling(8, 1, 6)
        )
        assert rst.t_v * rst.t_f * rst.t_n <= hw.num_pes
        assert rgt.t_v * rgt.t_f * rgt.t_g <= hw.num_pes


class TestWarmRestart:
    """Cross-session incremental search: a second optimizer against the
    same store performs zero duplicate cost-model evaluations."""

    def test_exhaustive_resumes_from_store(self, wl, hw, tmp_path):
        from repro.analysis.store import ResultStore
        from repro.campaign.session import ExplorationSession

        path = tmp_path / "search.jsonl"
        with ResultStore(path) as store:
            opt = MappingOptimizer(
                wl, hw, session=ExplorationSession(store=store)
            )
            first = opt.exhaustive(budget=40)
        with ResultStore(path) as store:
            opt2 = MappingOptimizer(
                wl, hw, session=ExplorationSession(store=store)
            )
            second = opt2.exhaustive(budget=40)
            assert opt2.evaluator.stats.evaluated == 0
            assert opt2.evaluator.stats.warm_hits > 0
        assert second.best_score == first.best_score
        assert str(second.best_dataflow) == str(first.best_dataflow)
        assert second.history == first.history
        assert second.best is None  # warm-backed: record, not RunResult

    def test_refine_tiles_resumes_from_store(self, wl, hw, tmp_path):
        from repro.analysis.store import ResultStore
        from repro.campaign.session import ExplorationSession

        df = parse_dataflow("Seq_AC(VsFsNt, VsGsFt)")
        st, gt = SpmmTiling(4, 8, 1), GemmTiling(8, 1, 6)
        path = tmp_path / "refine.jsonl"
        with ResultStore(path) as store:
            opt = MappingOptimizer(
                wl, hw, session=ExplorationSession(store=store)
            )
            refined, rst, rgt = opt.refine_tiles(df, st, gt)
            climbed = opt.evaluator.stats.evaluated
        assert climbed > 0
        with ResultStore(path) as store:
            opt2 = MappingOptimizer(
                wl, hw, session=ExplorationSession(store=store)
            )
            refined2, rst2, rgt2 = opt2.refine_tiles(df, st, gt)
            # every explicit-tiling probe answered from disk
            assert opt2.evaluator.stats.evaluated == 0
        assert (rst2, rgt2) == (rst, rgt)
        assert refined2.total_cycles == refined.total_cycles

    def test_refine_tiles_memoizes_within_session(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        df = parse_dataflow("Seq_AC(VsFsNt, VsGsFt)")
        st, gt = SpmmTiling(4, 8, 1), GemmTiling(8, 1, 6)
        opt.refine_tiles(df, st, gt)
        evaluated = opt.evaluator.stats.evaluated
        opt.refine_tiles(df, st, gt)
        assert opt.evaluator.stats.evaluated == evaluated
        assert opt.evaluator.stats.cache_hits > 0


def test_objectives_registry():
    assert set(OBJECTIVES) == {"cycles", "energy", "edp"}
