"""Tests for the batched design-space evaluation service."""

from __future__ import annotations

import pytest

from repro.analysis.store import ResultStore
from repro.arch.config import AcceleratorConfig
from repro.campaign.session import ExplorationSession
from repro.core.configs import PAPER_CONFIGS
from repro.core.evaluator import DataflowEvaluator, candidate_fingerprint
from repro.core.legality import LegalityError, validate_dataflow
from repro.core.taxonomy import (
    Annot,
    Dim,
    InterPhase,
    IntraDataflow,
    Phase,
    PhaseOrder,
    Dataflow,
)
from repro.core.tiling import TileHint
from repro.core.workload import GNNWorkload


@pytest.fixture
def hw():
    return AcceleratorConfig(num_pes=64)


@pytest.fixture
def wl(er_graph):
    return GNNWorkload(er_graph, in_features=24, out_features=6, name="er")


@pytest.fixture
def paper_candidates():
    return [
        (cfg.dataflow(), cfg.hint, {"config": name})
        for name, cfg in PAPER_CONFIGS.items()
    ]


def illegal_pp_dataflow() -> Dataflow:
    """A PP pair whose producer completes the intermediate only at the end
    (its contraction-free N loop outermost), which cannot pipeline."""
    df = Dataflow(
        inter=InterPhase.PP,
        order=PhaseOrder.AC,
        agg=IntraDataflow(
            Phase.AGGREGATION,
            (Dim.N, Dim.V, Dim.F),
            (Annot.TEMPORAL, Annot.SPATIAL, Annot.SPATIAL),
        ),
        cmb=IntraDataflow(
            Phase.COMBINATION,
            (Dim.V, Dim.G, Dim.F),
            (Annot.SPATIAL, Annot.SPATIAL, Annot.TEMPORAL),
        ),
    )
    with pytest.raises(LegalityError):
        validate_dataflow(df)
    return df


class TestFingerprint:
    def test_stable_and_name_insensitive(self, wl, hw):
        cfg = PAPER_CONFIGS["Seq1"]
        a = candidate_fingerprint(wl, cfg.dataflow(), hw, cfg.hint)
        b = candidate_fingerprint(wl, cfg.dataflow().with_name("renamed"), hw, cfg.hint)
        assert a == b

    def test_hint_sensitive(self, wl, hw):
        df = PAPER_CONFIGS["Seq1"].dataflow()
        a = candidate_fingerprint(wl, df, hw, TileHint())
        b = candidate_fingerprint(
            wl, df, hw, TileHint(caps={(Phase.AGGREGATION, Dim.V): 8})
        )
        assert a != b

    def test_hardware_sensitive(self, wl, hw):
        df = PAPER_CONFIGS["Seq1"].dataflow()
        a = candidate_fingerprint(wl, df, hw)
        b = candidate_fingerprint(wl, df, AcceleratorConfig(num_pes=128))
        assert a != b


class TestOrder:
    def test_order_preserved(self, wl, hw, paper_candidates):
        # The batch is evaluated sorted by mapping group; outcomes come
        # back in candidate order regardless.
        ev = DataflowEvaluator(wl, hw)
        outcomes = ev.evaluate(paper_candidates)
        assert [o.label for o in outcomes] == list(PAPER_CONFIGS)
        assert [o.index for o in outcomes] == list(range(len(paper_candidates)))


class TestLifecycle:
    def test_context_manager_is_a_no_op(self, wl, hw, paper_candidates):
        """An evaluator holds only process memory: leaving a ``with`` block
        releases nothing, so the evaluator keeps working after it."""
        with DataflowEvaluator(wl, hw) as ev:
            ev.evaluate(paper_candidates)
        again = ev.evaluate(paper_candidates)
        assert all(o.cached for o in again)


class TestTileStatsFootprint:
    def test_one_array_per_tile_key_on_the_full_design_space(self):
        """The sparsity cache grows with the set of tile sizes a sweep
        visits, never with the number of candidates: every miss adds one
        array that then stays, and MUTAG's whole 6,656-point design space
        at 512 PEs visits 14 tile keys, two of them neighbor-tile sizes."""
        from repro.core.enumeration import design_space_stream
        from repro.core.workload import workload_from_dataset
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        ev = DataflowEvaluator(wl, AcceleratorConfig(num_pes=512))
        assert len(ev.evaluate(design_space_stream(ev))) == 6656
        stats = ev.tilestats
        entries = len(stats._per_v_steps) + len(stats._vtile_steps)
        assert entries == stats.misses == 14
        assert set(stats._per_v_steps) == {1, 2}
        assert all(
            not a.flags.writeable
            for a in (*stats._per_v_steps.values(), *stats._vtile_steps.values())
        )


class TestMemoization:
    def test_cache_hits_skip_reevaluation(self, wl, hw, paper_candidates):
        ev = DataflowEvaluator(wl, hw)
        first = ev.evaluate(paper_candidates)
        assert ev.stats.evaluated == len(paper_candidates)
        assert ev.stats.cache_hits == 0
        second = ev.evaluate(paper_candidates)
        assert ev.stats.evaluated == len(paper_candidates)  # unchanged
        assert ev.stats.cache_hits == len(paper_candidates)
        assert all(not o.cached for o in first)
        assert all(o.cached for o in second)
        assert [o.fingerprint for o in first] == [o.fingerprint for o in second]

    def test_duplicates_within_one_batch(self, wl, hw):
        cfg = PAPER_CONFIGS["Seq1"]
        dup = [(cfg.dataflow(), cfg.hint)] * 3
        ev = DataflowEvaluator(wl, hw)
        outcomes = ev.evaluate(dup)
        assert ev.stats.evaluated == 1
        assert ev.stats.cache_hits == 2
        cycles = {o.result.total_cycles for o in outcomes}
        assert len(cycles) == 1


class TestErrors:
    def test_legality_errors_reported_not_dropped(self, wl, hw):
        cfg = PAPER_CONFIGS["Seq1"]
        candidates = [
            (cfg.dataflow(), cfg.hint),
            (illegal_pp_dataflow(), None),
            (PAPER_CONFIGS["PP1"].dataflow(), PAPER_CONFIGS["PP1"].hint),
        ]
        ev = DataflowEvaluator(wl, hw)
        outcomes = ev.evaluate(candidates)
        assert len(outcomes) == 3
        assert outcomes[0].ok and outcomes[2].ok
        bad = outcomes[1]
        assert not bad.ok
        assert bad.result is None
        assert "LegalityError" in bad.error
        assert ev.stats.errors == 1

    def test_to_record_refuses_failed_outcome(self, wl, hw):
        ev = DataflowEvaluator(wl, hw)
        outcome = ev.evaluate_one(illegal_pp_dataflow())
        with pytest.raises(ValueError):
            ev.to_record(outcome)

    def test_budget_stops_evaluation_at_budget(
        self, wl, hw, paper_candidates, tmp_path
    ):
        """A budgeted run pulls one candidate at a time: it evaluates,
        persists and returns exactly ``budget`` successes, and nothing
        past them."""
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            ev = ExplorationSession(store=store).evaluator(wl, hw)
            outcomes = ev.evaluate(paper_candidates, budget=2)
            assert len(outcomes) == 2
            assert all(o.ok for o in outcomes)
            assert ev.stats.evaluated == 2
            assert ev.stats.persisted == 2

    def test_budget_counts_only_legal(self, wl, hw):
        cfg = PAPER_CONFIGS["Seq1"]
        candidates = [
            (illegal_pp_dataflow(), None),
            (cfg.dataflow(), cfg.hint),
            (PAPER_CONFIGS["Seq2"].dataflow(), PAPER_CONFIGS["Seq2"].hint),
            (PAPER_CONFIGS["SP1"].dataflow(), PAPER_CONFIGS["SP1"].hint),
        ]
        ev = DataflowEvaluator(wl, hw)
        outcomes = ev.evaluate(candidates, budget=2)
        assert sum(o.ok for o in outcomes) == 2
        # the illegal candidate was still reported along the way
        assert sum(not o.ok for o in outcomes) == 1


class TestStoreStreaming:
    def test_streams_records_and_warm_resumes(
        self, wl, hw, paper_candidates, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            ev = ExplorationSession(store=store).evaluator(wl, hw)
            ev.evaluate(paper_candidates)
            assert ev.stats.persisted == len(paper_candidates)
        assert len(ResultStore(path)) == len(paper_candidates)

        # A fresh evaluator (cold memo) against the same store answers
        # every candidate from the warm cache: zero cost-model runs, and
        # nothing new to persist.
        with ResultStore(path) as store:
            ev2 = ExplorationSession(store=store).evaluator(wl, hw)
            outcomes = ev2.evaluate(paper_candidates)
            assert ev2.stats.evaluated == 0
            assert ev2.stats.warm_hits == len(paper_candidates)
            assert ev2.stats.persisted == 0
            assert all(o.ok and o.record is not None for o in outcomes)
        assert len(ResultStore(path)) == len(paper_candidates)

    def test_record_extras_merged(self, wl, hw, tmp_path):
        cfg = PAPER_CONFIGS["Seq1"]
        store = ResultStore(tmp_path / "r.jsonl")
        ev = ExplorationSession(store=store).evaluator(
            wl, hw, record_extra={"dataset": "er"}
        )
        ev.evaluate([(cfg.dataflow(), cfg.hint, {"config": "Seq1"})])
        (record,) = store.records()
        assert record["dataset"] == "er"
        assert record["config"] == "Seq1"
        assert record["fingerprint"] == ev.fingerprint(cfg.dataflow(), cfg.hint)


class TestSweepIntegration:
    def test_pe_allocation_store_records_all_tagged(self, wl, hw, tmp_path):
        from repro.analysis.sweep import sweep_pe_allocation

        store = ResultStore(tmp_path / "fig14.jsonl")
        rows = sweep_pe_allocation(
            wl, hw, session=ExplorationSession(store=store)
        )
        store.close()
        records = store.records()
        # the 50-50 baseline dedups against its swept twin, yet every
        # archived record still carries its sweep coordinates
        assert len(records) == len(rows)
        assert all("config" in r and "pe_split" in r for r in records)

    def test_bandwidth_store_records_all_tagged(self, wl, tmp_path):
        from repro.analysis.sweep import sweep_bandwidth

        store = ResultStore(tmp_path / "fig16.jsonl")
        rows = sweep_bandwidth(
            wl, bandwidths=(64, 32), num_pes=64,
            session=ExplorationSession(store=store),
        )
        store.close()
        records = store.records()
        assert len(records) == len(rows)  # baseline was a memo hit, not a row
        assert all("config" in r and "bandwidth" in r for r in records)


class TestSweepLegality:
    def test_illegal_baseline_raises_clear_error(self, wl):
        from repro.analysis.sweep import SweepBaselineError, sweep_pe_allocation

        # 1 PE: the PP baseline cannot split the array at all.
        with pytest.raises(SweepBaselineError, match="normalization baseline"):
            sweep_pe_allocation(wl, AcceleratorConfig(num_pes=1))

    def test_illegal_swept_point_raises_clear_error(self, wl):
        from repro.analysis.sweep import SweepError, sweep_pe_allocation

        # 2 PEs: the 50-50 baseline is realizable but skewed splits are not.
        with pytest.raises(SweepError, match="swept point"):
            sweep_pe_allocation(wl, AcceleratorConfig(num_pes=2))


class TestExplicitTiles:
    def test_fingerprint_distinguishes_tilings(self, wl, hw):
        from repro.core.evaluator import ExplicitTiles
        from repro.engine.gemm import GemmTiling
        from repro.engine.spmm import SpmmTiling

        df = PAPER_CONFIGS["Seq1"].dataflow()
        a = candidate_fingerprint(
            wl, df, hw, ExplicitTiles(SpmmTiling(4, 8, 1), GemmTiling(8, 1, 6))
        )
        b = candidate_fingerprint(
            wl, df, hw, ExplicitTiles(SpmmTiling(8, 4, 1), GemmTiling(8, 1, 6))
        )
        c = candidate_fingerprint(wl, df, hw, TileHint())
        assert len({a, b, c}) == 3


class TestOptimizerIntegration:
    def test_search_reuses_memo_across_calls(self, wl, hw):
        from repro.core.optimizer import MappingOptimizer

        opt = MappingOptimizer(wl, hw)
        opt.exhaustive(budget=40)
        evaluated = opt.evaluator.stats.evaluated
        opt.exhaustive(budget=40)
        assert opt.evaluator.stats.evaluated == evaluated
        assert opt.evaluator.stats.cache_hits > 0
