"""Batched candidate evaluation: phase-engine cache + compose_batch.

Proves end to end that the batch-aware evaluator — phase-engine result
cache, mapping-grouped dispatch, and batched PP composition with shared
granule series — produces outcomes *byte-identical* to the reference
path (the ``tests/oracles/`` enumeration, fingerprints and array-form PP
recurrence, with the phase cache disabled), including over the paper's
full 6,656-point enumeration.
"""

from __future__ import annotations

import json

import pytest

import repro.core.enumeration as enumeration
import repro.core.interphase as interphase
from repro.arch.config import AcceleratorConfig
from repro.analysis.export import run_result_to_record
from repro.campaign.session import ExplorationSession
from repro.core.enumeration import design_space_stream, enumerate_design_space
from repro.core.evaluator import DataflowEvaluator, _group_key
from repro.core.interphase import compose, compose_batch
from repro.core.legality import LegalityError
from repro.core.omega import prepare_phases, run_gnn_dataflow
from repro.core.optimizer import MappingOptimizer
from repro.core.taxonomy import InterPhase
from repro.core.workload import workload_from_dataset
from repro.engine.phasecache import PhaseEngineCache
from repro.graphs.datasets import load_dataset

from oracles.design_space import (
    bounded_pipeline_batch_reference,
    enumerate_design_space_reference,
    fingerprint_reference,
)


@pytest.fixture(scope="module")
def wl():
    return workload_from_dataset(load_dataset("mutag"))


@pytest.fixture(scope="module")
def hw():
    return AcceleratorConfig()


def record_bytes(result) -> bytes:
    """Canonical byte serialization of one RunResult (export schema)."""
    return json.dumps(
        run_result_to_record(result), sort_keys=True, separators=(",", ":")
    ).encode()


class TestPhaseEngineCache:
    def test_same_inputs_share_one_engine_run(self, wl, hw):
        cache = PhaseEngineCache()
        df = next(iter(enumerate_design_space()))
        _, agg1, cmb1 = prepare_phases(wl, df, hw, cache=cache)
        _, agg2, cmb2 = prepare_phases(wl, df, hw, cache=cache)
        # Identity, not equality: the second candidate reuses the objects
        # (and therefore their memoized per-unit cycle views).
        assert agg1 is agg2 and cmb1 is cmb2
        assert cache.counters() == (2, 2)
        assert len(cache) == 2

    def test_partitioned_hw_never_aliases_full_array(self, wl, hw):
        """A PP candidate's partition engines must not collide with a Seq
        candidate's full-array engines for the same mapping."""
        cache = PhaseEngineCache()
        space = enumerate_design_space()
        seq_df = next(df for df in space if df.inter is InterPhase.SEQ)
        pp_df = next(
            df
            for df in enumerate_design_space()
            if df.inter is InterPhase.PP and str(df.agg) == str(seq_df.agg)
        )
        prepare_phases(wl, seq_df, hw, cache=cache)
        before = cache.hits
        prepare_phases(wl, pp_df, hw, cache=cache)
        assert cache.hits == before  # nothing aliased

    def test_cached_view_arrays_are_read_only(self, wl, hw):
        cache = PhaseEngineCache()
        df = next(
            df for df in enumerate_design_space() if df.inter is InterPhase.PP
        )
        _, agg, cmb = prepare_phases(wl, df, hw, cache=cache)
        for arr in (
            agg.per_unit_cycles("row"),
            agg.per_unit_cycles("col"),
            agg.consumption_per_unit_rows(),
            cmb.per_unit_cycles("row"),
        ):
            assert not arr.flags.writeable
        # Second call returns the same memoized object.
        assert agg.per_unit_cycles("row") is agg.per_unit_cycles("row")


class TestComposeBatch:
    def sample_items(self, wl, hw, step=97):
        cache = PhaseEngineCache()
        items = []
        for i, df in enumerate(enumerate_design_space()):
            if i % step:
                continue
            try:
                cdf, agg, cmb = prepare_phases(wl, df, hw, cache=cache)
            except (LegalityError, ValueError):
                continue
            items.append((cdf, wl, hw, agg, cmb))
        assert len(items) > 20
        return items

    def test_equals_scalar_compose_loop(self, wl, hw):
        items = self.sample_items(wl, hw)
        batch = compose_batch(items)
        for item, got in zip(items, batch):
            expected = compose(*item)
            assert record_bytes(got) == record_bytes(expected)
            assert got.pipeline == expected.pipeline
            assert got.notes == expected.notes

    def test_raises_first_item_error_in_order(self, wl, hw):
        items = self.sample_items(wl, hw)
        rigid = AcceleratorConfig(supports_spatial_reduction=True,
                                  supports_temporal_reduction=False)
        sp_opt = next(
            df
            for df in enumerate_design_space(include_sp_optimized=True)
            if df.inter is InterPhase.SP and df.sp_variant is not None
            and df.sp_variant.value == "optimized"
        )
        cdf, agg, cmb = prepare_phases(wl, sp_opt, hw)
        bad = (cdf, wl, rigid, agg, cmb)
        with pytest.raises(LegalityError):
            compose_batch([bad] + items)
        # Error position does not matter: the scalar loop would also raise.
        with pytest.raises(LegalityError):
            compose_batch(items[:3] + [bad] + items[3:])


class TestBatchedEvaluatorEquality:
    def test_full_design_space_byte_identical_to_scalar_path(
        self, wl, hw, monkeypatch
    ):
        """The acceptance gate: all 6,656 points, batched vs scalar."""
        ev = DataflowEvaluator(wl, hw)
        batched = ev.evaluate(design_space_stream(ev))
        assert len(batched) == 6656
        hits, misses = ev.stats.phase_hits, ev.stats.phase_misses
        # phase cache collapses ~12k engine runs into a few hundred
        assert misses < 1000
        assert hits / (hits + misses) >= 0.9

        monkeypatch.setattr(
            interphase, "bounded_pipeline_batch", bounded_pipeline_batch_reference
        )
        monkeypatch.setattr(
            enumeration, "enumerate_design_space", enumerate_design_space_reference
        )
        monkeypatch.setattr(
            DataflowEvaluator,
            "fingerprint",
            lambda self, df, hint=None: fingerprint_reference(
                self._ctx_signature, df, hint
            ),
        )
        monkeypatch.setattr(
            ExplorationSession, "phase_cache_for", lambda self, ctx_key: None
        )
        session = ExplorationSession()
        ref_ev = session.evaluator(wl, hw)
        assert ref_ev.phase_cache is None
        reference = ref_ev.evaluate(design_space_stream(ref_ev))
        assert ref_ev.stats.phase_hits == 0 and ref_ev.stats.phase_misses == 0

        for got, want in zip(batched, reference):
            assert got.fingerprint == want.fingerprint
            assert got.error == want.error
            if want.result is not None:
                assert record_bytes(got.result) == record_bytes(want.result)

    def test_workers_match_serial_with_grouped_dispatch(self, wl, hw):
        with MappingOptimizer(wl, hw, workers=2) as par:
            par_res = par.exhaustive()
            counters = par.cache_counters()
        with MappingOptimizer(wl, hw) as ser:
            ser_res = ser.exhaustive()
        assert par_res.history == ser_res.history
        assert par_res.best_score == ser_res.best_score
        # Worker-side phase-cache deltas flowed back into EvalStats.
        assert counters["phase_hits"] + counters["phase_misses"] > 0

    def test_budgeted_serial_evaluation_unchanged(self, wl, hw):
        """Budgeted serial runs keep the historical exact-budget pull."""
        ev = DataflowEvaluator(wl, hw)
        outcomes = ev.evaluate(design_space_stream(ev), budget=10)
        assert sum(1 for o in outcomes if o.ok) == 10
        assert ev.stats.evaluated == len(outcomes)


class TestDispatchGrouping:
    def test_pack_groups_respects_mapping_boundaries(self, wl, hw):
        pending = []
        for i, df in enumerate(enumerate_design_space()):
            if i >= 64:
                break
            pending.append((i, df, None))
        groups = DataflowEvaluator._pack_groups(pending, 8)
        # Every candidate lands in exactly one group, order within a
        # mapping preserved; indices cover the batch exactly.
        flat = [idx for group in groups for idx, _, _ in group]
        assert sorted(flat) == list(range(64))
        for group in groups:
            assert len(group) <= 32  # 4 x target cap
            keys = [_group_key(df) for _, df, _ in group]
            # groups are key-sorted runs: at most a trailing key change
            # when a short mapping run was packed with the next one
            assert keys == sorted(keys)

    def test_group_key_separates_pe_splits(self, wl):
        pps = [df for df in enumerate_design_space() if df.inter is InterPhase.PP]
        df = pps[0]
        from dataclasses import replace

        assert _group_key(df) != _group_key(replace(df, pe_split=0.25))


class TestRunGnnDataflowCache:
    def test_run_gnn_dataflow_accepts_cache(self, wl, hw):
        df = next(iter(enumerate_design_space()))
        cache = PhaseEngineCache()
        first = run_gnn_dataflow(wl, df, hw, cache=cache)
        second = run_gnn_dataflow(wl, df, hw, cache=cache)
        assert cache.hits == 2
        assert record_bytes(first) == record_bytes(second)
        assert first.agg is second.agg  # shared PhaseStats via shared result
