"""Batch phase preparation equals per-candidate preparation.

:func:`repro.core.omega.prepare_block` tiles, concretises and fetches
engine results once per phase mapping per batch.  These tests hold it to
the per-candidate form in ``tests/oracles/prepare.py`` on error text and
on the composed export record of every candidate, over the whole grid
(SP-Optimized included) at several array sizes, off-grid PP splits, every
Table V hint with its wildcard intras, explicit tilings and a 1-PE array;
and they check that a full sweep really does the per-mapping work once.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest

import repro.core.evaluator as evaluator
import repro.core.omega as omega
import repro.core.tiling as tiling
from repro.analysis.export import run_result_to_record
from repro.analysis.store import ResultStore
from repro.arch.config import AcceleratorConfig
from repro.campaign.session import ExplorationSession
from repro.core.configs import PAPER_CONFIGS
from repro.core.enumeration import candidate_grid, design_space_stream
from repro.core.evaluator import DataflowEvaluator
from repro.core.interphase import _compose_batch
from repro.core.legality import LegalityError
from repro.core.omega import prepare_block, prepare_phases
from repro.core.taxonomy import InterPhase, PhaseOrder, SPVariant, parse_dataflow
from repro.core.workload import workload_from_dataset
from repro.engine.gemm import GemmTiling
from repro.engine.phasecache import PhaseEngineCache
from repro.engine.spmm import SpmmTiling
from repro.graphs.datasets import load_dataset

from oracles.prepare import prepare_phases_reference


@pytest.fixture(scope="module")
def workloads():
    return {
        name: workload_from_dataset(load_dataset(name))
        for name in ("mutag", "citeseer")
    }


def grid_items(*, pe_splits=()):
    """Every grid candidate (SP-Optimized included), hint-less, plus the PP
    blocks again at each extra ``pe_split``."""
    items = []
    for block in candidate_grid(include_sp_optimized=True):
        items += [(df, None, None, None) for df in block.dataflows()]
        if block.inter is InterPhase.PP:
            items += [
                (replace(df, pe_split=split), None, None, None)
                for split in pe_splits
                for df in block.dataflows()
            ]
    return items


def reference_prepare(wl, hw, items):
    cache = PhaseEngineCache()
    out = []
    for df, hint, st, gt in items:
        try:
            out.append(prepare_phases_reference(
                wl, df, hw, hint=hint, spmm_tiling=st, gemm_tiling=gt, cache=cache,
            ))
        except (LegalityError, ValueError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def outcomes(wl, hw, prepared):
    """Each item's error text, or its composed record as canonical JSON."""
    ok = [entry for entry in prepared if not isinstance(entry, str)]
    results, errors = _compose_batch([(cdf, wl, hw, a, c) for cdf, a, c in ok])
    failed = dict(errors)
    composed = iter(range(len(ok)))
    out = []
    for entry in prepared:
        if isinstance(entry, str):
            out.append(entry)
            continue
        i = next(composed)
        if i in failed:
            out.append(f"compose {type(failed[i]).__name__}: {failed[i]}")
        else:
            out.append(json.dumps(run_result_to_record(results[i]), sort_keys=True))
    return out


def assert_matches_reference(wl, hw, items):
    got = prepare_block(wl, hw, items, cache=PhaseEngineCache())
    want = reference_prepare(wl, hw, items)
    for (df, *_), g, w in zip(items, got, want):
        assert isinstance(g, str) == isinstance(w, str), df
        if not isinstance(g, str):
            assert g[0] == w[0], df
    assert outcomes(wl, hw, got) == outcomes(wl, hw, want)
    return got


class TestEquivalence:
    @pytest.mark.parametrize("name", ["mutag", "citeseer"])
    @pytest.mark.parametrize("num_pes", [256, 512, 1024])
    def test_whole_grid(self, workloads, name, num_pes):
        pe_splits = (0.25, 0.75) if (name, num_pes) == ("mutag", 512) else ()
        got = assert_matches_reference(
            workloads[name], AcceleratorConfig(num_pes=num_pes),
            grid_items(pe_splits=pe_splits),
        )
        assert any(isinstance(entry, str) for entry in got)

    @pytest.mark.parametrize("num_pes", [64, 512])
    def test_paper_hints_with_wildcard_intras(self, workloads, num_pes):
        items = []
        for cfg in PAPER_CONFIGS.values():
            for split in (0.25, 0.5, 0.75):
                df = cfg.dataflow(pe_split=split)
                items += [(df, cfg.hint, None, None), (df, None, None, None)]
        # SP-Optimized coupling sets T_N = 1: it resolves or contradicts a
        # non-temporal N that the uncoupled tiles made spatial.
        for notation in ("SP_AC(VxFxNx, VxFxGx)", "SP_AC(VsFxNs, VsFxGx)"):
            df = parse_dataflow(notation, sp_variant=SPVariant.OPTIMIZED)
            items += [(df, cfg.hint, None, None) for cfg in PAPER_CONFIGS.values()]
        assert any(not df.is_concrete for df, *_ in items)
        for wl in workloads.values():
            assert_matches_reference(wl, AcceleratorConfig(num_pes=num_pes), items)

    def test_explicit_tilings(self, workloads):
        wl = workloads["mutag"]
        hw = AcceleratorConfig(num_pes=64)
        wild = PAPER_CONFIGS["Seq1"].dataflow()
        items = [(wild, None, SpmmTiling(4, 4, 1), GemmTiling(4, 1, 4))]
        for block in candidate_grid(include_sp_optimized=True):
            for df in block.dataflows()[::37]:
                items += [
                    (df, None, SpmmTiling(4, 4, 1), GemmTiling(4, 1, 4)),
                    (df, None, SpmmTiling(8, 16, 1), GemmTiling(2, 1, 2)),
                    (df, None, SpmmTiling(2, 2, 2), None),
                    (df, None, None, GemmTiling(1, 1, 1)),
                ]
        got = assert_matches_reference(wl, hw, items)
        assert got[0].startswith("ValueError: explicit tilings require")
        assert any("PEs but only" in entry for entry in got if isinstance(entry, str))

    def test_one_pe_array(self, workloads):
        hw = AcceleratorConfig(num_pes=1)
        got = assert_matches_reference(workloads["mutag"], hw, grid_items())
        assert any(
            entry == "ValueError: partition size 0 outside [1, 1]"
            for entry in got
        )

    def test_prepare_phases_raises_the_block_error(self, workloads):
        wl = workloads["mutag"]
        hw = AcceleratorConfig(num_pes=1)
        df = next(df for df, *_ in grid_items() if df.inter is InterPhase.PP)
        (error,) = prepare_block(wl, hw, [(df, None, None, None)])
        with pytest.raises(ValueError) as info:
            prepare_phases(wl, df, hw)
        assert f"ValueError: {info.value}" == error


class TestWorkDoneOnce:
    def test_full_sweep_tiles_each_mapping_once_and_never_replaces(
        self, workloads, monkeypatch
    ):
        calls: list[list] = []
        real_group = evaluator._evaluate_group
        real_tiles = omega.choose_phase_tiles

        def group(*args, **kwargs):
            calls.append([])
            return real_group(*args, **kwargs)

        def tiles(intra, wl, num_pes, hint, *, ca_order=False):
            calls[-1].append((intra, num_pes, ca_order))
            return real_tiles(intra, wl, num_pes, hint, ca_order=ca_order)

        replaced = []

        def spy_replace(obj, **changes):
            replaced.append(type(obj).__name__)
            return dataclasses.replace(obj, **changes)

        monkeypatch.setattr(evaluator, "_evaluate_group", group)
        monkeypatch.setattr(omega, "choose_phase_tiles", tiles)
        monkeypatch.setattr(omega, "replace", spy_replace)
        monkeypatch.setattr(tiling, "replace", spy_replace)

        ev = DataflowEvaluator(workloads["mutag"], AcceleratorConfig(num_pes=512))
        out = ev.evaluate(design_space_stream(ev, include_sp_optimized=True))
        assert len(out) == 6672
        assert len(calls) == -(-6672 // evaluator._BATCH_SIZE)
        for group_calls in calls:
            assert len(group_calls) == len(set(group_calls))
        assert replaced == []

    def test_grid_intras_come_back_as_the_candidates_own_dataflow(self, workloads):
        wl = workloads["mutag"]
        items = grid_items()
        got = prepare_block(wl, AcceleratorConfig(num_pes=512), items)
        assert all(
            entry[0] is df
            for (df, *_), entry in zip(items, got)
            if not isinstance(entry, str)
        )


class TestBudgetedBatches:
    @pytest.mark.parametrize("budget", [1, 7, 300, 10_000])
    def test_same_outcomes_and_store_bytes_as_one_at_a_time(
        self, workloads, tmp_path, monkeypatch, budget
    ):
        wl = workloads["mutag"]
        hw = AcceleratorConfig(num_pes=256)
        # Failing, duplicate and repeated candidates: the budget counts
        # successes only, and a duplicate answers from the memo.
        grid = [df for df, *_ in grid_items()]
        candidates = [(df, None) for df in grid[:40] + grid[4560:4860] + grid[:10]]
        candidates += [(df, None) for df in grid[6000:6656:3]]

        def run(path):
            with ResultStore(path) as store:
                ev = ExplorationSession(store=store).evaluator(wl, hw)
                got = ev.evaluate(iter(candidates), budget=budget)
                stats = ev.stats.as_dict()
            errors = store.errors_path
            return got, stats, path.read_bytes(), (
                errors.read_bytes() if errors.exists() else b""
            )

        batched = run(tmp_path / "batched.jsonl")
        monkeypatch.setattr(evaluator, "_BATCH_SIZE", 1)
        serial = run(tmp_path / "serial.jsonl")

        (b_out, b_stats, b_store, b_err), (s_out, s_stats, s_store, s_err) = (
            batched, serial,
        )
        assert [(o.index, o.fingerprint, o.error, o.cached) for o in b_out] == [
            (o.index, o.fingerprint, o.error, o.cached) for o in s_out
        ]
        assert sum(o.ok for o in b_out) == min(budget, sum(o.ok for o in s_out))
        assert b_stats == s_stats
        assert b_store == s_store and b_err == s_err
        assert bool(b_err) == (budget > 40)  # failures past the first 40 persist


def test_phase_orders_keep_their_own_specs(workloads):
    """AC and CA candidates of one batch share Combination tiles but not
    engine results (the operand names differ)."""
    wl = workloads["mutag"]
    items = [
        (df, None, None, None)
        for block in candidate_grid()
        if block.inter is InterPhase.SEQ
        for df in block.dataflows()[:1]
    ]
    assert {df.order for df, *_ in items} == set(PhaseOrder)
    ac, ca = prepare_block(wl, AcceleratorConfig(num_pes=512), items)
    assert ac[2].spec != ca[2].spec
