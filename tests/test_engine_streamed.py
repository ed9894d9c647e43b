"""Validator-vs-oracle suite, part 2: block boundaries and the byte budget.

The validator streams the loop nest in blocks (``step_grid_chunks`` slabs,
neighbor-step bands, flat GEMM step ranges); it must produce *identical*
``CycleReport``\\ s to the interpreted oracles in ``tests/oracles/`` —
cycles, steps, traffic dictionaries, and fill, exactly — across random
CSR graphs (including hub rows and zero-degree rows), every loop order,
tiny byte budgets, and chunk sizes of 1, a prime, and larger-than-total.
Also covers the ``TileStats`` byte-budget LRU (eviction accounting,
honest overshoot, counter monotonicity).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.engine.cycle_model as cycle_model
from repro.arch.config import AcceleratorConfig
from repro.core.taxonomy import Annot, Dim, IntraDataflow, Phase
from repro.engine.cycle_model import (
    _gemm_blocks,
    cycle_accurate_spmm,
    step_grid_chunks,
)
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling
from repro.engine.tilestats import TileStats
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi_graph, hub_thread_graph

from oracles.cycle_model import (
    cycle_accurate_gemm_reference,
    cycle_accurate_spmm_reference,
)

SPMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.N)))
GEMM_ORDERS = list(itertools.permutations((Dim.V, Dim.F, Dim.G)))
BWS = [(16, 16), (3, 5), (7, 12), (64, 64)]


def _annot(order, tiles_by_dim):
    return tuple(
        Annot.SPATIAL if tiles_by_dim[d] > 1 else Annot.TEMPORAL for d in order
    )


def _report_tuple(rep):
    return (
        rep.cycles,
        rep.steps,
        rep.gb_reads,
        rep.gb_writes,
        rep.load_stall_cycles,
        rep.fill_cycles,
    )


def _assert_identical(ref, streamed, context):
    assert _report_tuple(ref) == _report_tuple(streamed), (
        f"{context}\n ref={ref}\n streamed={streamed}"
    )


def _random_graph(rng: np.random.Generator) -> CSRGraph:
    kind = rng.integers(0, 4)
    if kind == 0:
        n = int(rng.integers(2, 40))
        e = int(rng.integers(1, 4 * n))
        return erdos_renyi_graph(rng, n, e)
    if kind == 1:
        n = int(rng.integers(8, 48))
        e = int(rng.integers(n, 5 * n))
        return hub_thread_graph(rng, n, e, num_hubs=int(rng.integers(1, 3)))
    if kind == 2:
        n = int(rng.integers(3, 24))
        deg = rng.integers(0, 6, size=n)
        deg[rng.integers(0, n)] = 0
        vptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=vptr[1:])
        dst = rng.integers(0, n, size=int(vptr[-1])).astype(np.int64)
        return CSRGraph(vptr, np.sort(dst), n)
    n = int(rng.integers(1, 8))
    return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), n)


def _dense_populations(g: CSRGraph, t_v: int, t_n: int):
    """Per-(vtile, nstep) populations by direct per-vertex iteration."""
    deg = g.degrees
    s = -(-deg // t_n)
    n_vtiles = -(-g.num_vertices // t_v) if g.num_vertices else 0
    tile_steps = np.zeros(n_vtiles, dtype=np.int64)
    for v in range(g.num_vertices):
        tile_steps[v // t_v] = max(tile_steps[v // t_v], s[v])
    width = int(tile_steps.max()) if n_vtiles else 0
    active = np.zeros((n_vtiles, width), dtype=np.int64)
    edges = np.zeros((n_vtiles, width), dtype=np.int64)
    completing = np.zeros((n_vtiles, width), dtype=np.int64)
    for v in range(g.num_vertices):
        for ni in range(int(s[v])):
            active[v // t_v, ni] += 1
            edges[v // t_v, ni] += min(int(deg[v]) - ni * t_n, t_n)
        if s[v]:
            completing[v // t_v, s[v] - 1] += 1
    return active, edges, completing, tile_steps


class TestStepGridChunks:
    @pytest.mark.parametrize("seed", range(6))
    def test_chunks_reassemble_dense_grids(self, seed):
        """Concatenated slabs must equal the whole-graph populations cell
        for cell, for chunk sizes 1, a prime, and larger than the vtile
        count."""
        rng = np.random.default_rng(700 + seed)
        g = _random_graph(rng)
        stats = TileStats(g)
        t_v = int(rng.integers(1, 8))
        t_n = int(rng.integers(1, 5))
        active, edges, completing, tile_steps = _dense_populations(g, t_v, t_n)
        n_vtiles = int(tile_steps.size)
        for chunk_rows in (1, 7, n_vtiles + 13):
            rows_seen = 0
            for grids in step_grid_chunks(stats, t_v, t_n, chunk_rows):
                lo, hi = rows_seen, rows_seen + grids.tile_steps.size
                assert 0 < hi - lo <= chunk_rows
                width = grids.active.shape[1]
                assert np.array_equal(grids.active, active[lo:hi, :width])
                assert np.array_equal(grids.edges, edges[lo:hi, :width])
                assert np.array_equal(
                    grids.completing, completing[lo:hi, :width]
                )
                assert np.array_equal(grids.tile_steps, tile_steps[lo:hi])
                # Nothing beyond the slab's own max is ever populated.
                assert not active[lo:hi, width:].any()
                rows_seen = hi
            assert rows_seen == n_vtiles

    def test_chunks_are_never_cached(self):
        rng = np.random.default_rng(7)
        g = erdos_renyi_graph(rng, 30, 120)
        stats = TileStats(g)
        list(step_grid_chunks(stats, 4, 2, 3))
        before = stats.nbytes()
        misses = stats.misses
        list(step_grid_chunks(stats, 4, 2, 3))
        assert stats.nbytes() == before  # only the O(V) helpers are held
        assert stats.misses == misses  # ... and they are reused


class TestSpmmStreamedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_exact(self, seed):
        rng = np.random.default_rng(5000 + seed)
        for _ in range(6):
            g = _random_graph(rng)
            feat = int(rng.integers(1, 20))
            spec = SpmmSpec(graph=g, feat=feat)
            tv = int(rng.integers(1, 10))
            tf = int(rng.integers(1, 8))
            tn = int(rng.integers(1, 6))
            order = SPMM_ORDERS[int(rng.integers(0, len(SPMM_ORDERS)))]
            bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
            hw = AcceleratorConfig(
                num_pes=4096,
                dist_bw=bwd,
                red_bw=bwr,
                pe_accumulators=int(rng.integers(1, 4)),
                supports_temporal_reduction=bool(rng.integers(0, 2)),
            )
            tiles = SpmmTiling(tv, tf, tn)
            intra = IntraDataflow(
                Phase.AGGREGATION,
                order,
                _annot(order, {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
            )
            ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
            streamed = cycle_accurate_spmm(
                spec, intra, tiles, hw, stats=TileStats(g)
            )
            _assert_identical(
                ref, streamed,
                f"g=V{g.num_vertices}/E{g.num_edges} {intra} {tiles} "
                f"bw=({bwd},{bwr})",
            )

    @pytest.mark.parametrize(
        "order", SPMM_ORDERS, ids=lambda o: "".join(d.value for d in o)
    )
    def test_tiny_budget_forces_single_row_chunks(self, order, monkeypatch):
        """One-row slabs and one-column bands (the block size floors at
        64 KiB for real budgets, so it is shrunk here directly) plus a
        constantly evicting stats cache change no number."""
        monkeypatch.setattr(cycle_model, "_spmm_block_bytes", lambda stats: 1)
        rng = np.random.default_rng(41)
        g = hub_thread_graph(rng, 40, 220, num_hubs=2)
        spec = SpmmSpec(graph=g, feat=6)
        hw = AcceleratorConfig(num_pes=256, dist_bw=7, red_bw=12)
        tiles = SpmmTiling(3, 2, 2)
        intra = IntraDataflow(
            Phase.AGGREGATION, order,
            _annot(order, {Dim.V: 3, Dim.F: 2, Dim.N: 2}),
        )
        ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
        tight = TileStats(g, byte_budget=1)
        streamed = cycle_accurate_spmm(spec, intra, tiles, hw, stats=tight)
        _assert_identical(ref, streamed, f"{intra} tight budget")

    def test_zero_degree_rows_exact(self):
        hw = AcceleratorConfig(num_pes=64, dist_bw=7, red_bw=12)
        g = CSRGraph(np.array([0, 0, 3, 3, 5, 5]), np.array([0, 1, 2, 0, 4]), 5)
        spec = SpmmSpec(graph=g, feat=4)
        for order in SPMM_ORDERS:
            for tv, tf, tn in [(1, 1, 1), (2, 2, 2), (5, 4, 1)]:
                tiles = SpmmTiling(tv, tf, tn)
                intra = IntraDataflow(
                    Phase.AGGREGATION, order,
                    _annot(order, {Dim.V: tv, Dim.F: tf, Dim.N: tn}),
                )
                ref = cycle_accurate_spmm_reference(spec, intra, tiles, hw)
                streamed = cycle_accurate_spmm(
                    spec, intra, tiles, hw, stats=TileStats(g)
                )
                _assert_identical(ref, streamed, f"{intra} {tiles}")


class TestGemmStreamedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes_exact(self, seed):
        rng = np.random.default_rng(6000 + seed)
        for _ in range(6):
            spec = GemmSpec(
                rows=int(rng.integers(1, 24)),
                inner=int(rng.integers(1, 16)),
                cols=int(rng.integers(1, 16)),
            )
            tiles = GemmTiling(
                int(rng.integers(1, 10)),
                int(rng.integers(1, 8)),
                int(rng.integers(1, 8)),
            )
            order = GEMM_ORDERS[int(rng.integers(0, len(GEMM_ORDERS)))]
            bwd, bwr = BWS[int(rng.integers(0, len(BWS)))]
            hw = AcceleratorConfig(
                num_pes=4096,
                dist_bw=bwd,
                red_bw=bwr,
                pe_accumulators=int(rng.integers(1, 4)),
                supports_temporal_reduction=bool(rng.integers(0, 2)),
            )
            intra = IntraDataflow(
                Phase.COMBINATION,
                order,
                _annot(
                    order, {Dim.V: tiles.t_v, Dim.F: tiles.t_f, Dim.G: tiles.t_g}
                ),
            )
            ref = cycle_accurate_gemm_reference(spec, intra, tiles, hw)
            for chunk in (1, 13, 1 << 20):
                streamed = _gemm_blocks(
                    spec, intra, tiles, hw, chunk_steps=chunk
                )
                _assert_identical(
                    ref, streamed,
                    f"{spec.rows}x{spec.inner}x{spec.cols} {intra} {tiles} "
                    f"chunk={chunk}",
                )


class TestByteBudgetLRU:
    def test_budget_evicts_lru_and_counts(self):
        rng = np.random.default_rng(22)
        g = erdos_renyi_graph(rng, 60, 400)
        one_entry = TileStats(g).per_v_steps(1).nbytes
        # Room for roughly two per-vertex entries: the third must evict.
        stats = TileStats(g, byte_budget=int(2.5 * one_entry))
        for t_n in (1, 2, 3, 4):
            stats.per_v_steps(t_n)
            assert stats.nbytes() <= stats.byte_budget
        assert stats.evictions > 0
        # Peak records the honest pre-eviction high-water mark: at most
        # the budget plus the entry whose admission triggered eviction.
        assert stats.peak_nbytes <= stats.byte_budget + one_entry
        assert stats.misses == 4
        # An evicted entry is rebuilt on demand (miss, not an error).
        stats.per_v_steps(1)
        assert stats.misses == 5
        # Recently used entries survive: the last one admitted is a hit.
        stats.per_v_steps(1)
        assert stats.misses == 5

    def test_oversized_protected_entry_overshoots_honestly(self):
        """A single entry larger than the whole budget is kept (evicting
        it would force an immediate rebuild) and peak_nbytes records the
        overshoot instead of hiding it."""
        rng = np.random.default_rng(23)
        g = erdos_renyi_graph(rng, 40, 200)
        stats = TileStats(g, byte_budget=8)
        tile_steps = stats.vtile_steps(3, 1)
        assert tile_steps.nbytes > stats.byte_budget
        assert stats.nbytes() == tile_steps.nbytes  # per_v_steps evicted
        assert stats.peak_nbytes >= tile_steps.nbytes

    def test_unbudgeted_cache_never_evicts(self, monkeypatch):
        monkeypatch.delenv("REPRO_TILESTATS_BUDGET", raising=False)
        rng = np.random.default_rng(24)
        g = erdos_renyi_graph(rng, 30, 150)
        stats = TileStats(g)
        for t_v in range(1, 8):
            stats.vtile_steps(t_v, 2)
        assert stats.evictions == 0
        assert stats.peak_nbytes == stats.nbytes()

    def test_env_budget_read_at_construction(self, monkeypatch):
        rng = np.random.default_rng(25)
        g = erdos_renyi_graph(rng, 10, 30)
        monkeypatch.setenv("REPRO_TILESTATS_BUDGET", "12345")
        assert TileStats(g).byte_budget == 12345
        monkeypatch.setenv("REPRO_TILESTATS_BUDGET", "0")
        assert TileStats(g).byte_budget is None  # non-positive = unbounded
        monkeypatch.delenv("REPRO_TILESTATS_BUDGET")
        assert TileStats(g).byte_budget is None
        assert TileStats(g, byte_budget=99).byte_budget == 99


class TestStreamedDispatch:
    def test_per_v_steps_integer_ceil(self):
        """The hottest stats kernel must match ceil-division exactly for
        every t_n, including hub degrees."""
        rng = np.random.default_rng(33)
        g = hub_thread_graph(rng, 50, 400, num_hubs=3)
        stats = TileStats(g)
        deg = g.degrees
        for t_n in (1, 2, 3, 7, 64):
            s = stats.per_v_steps(t_n)
            assert s.dtype == np.int64
            assert np.array_equal(s, -(-deg // t_n))
