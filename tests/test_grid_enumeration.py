"""Equivalence of the grid candidate generator with the legacy scalar path.

The vectorized generation layer (candidate-grid masks + lazy Dataflow
construction + the fingerprint factory + the tile-geometry memo) must be
*observationally identical* to the reference implementations it replaced:
same candidate sequence, byte-identical fingerprints, same tile choices.
The legacy paths live in ``tests/oracles/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import AcceleratorConfig
from repro.core.enumeration import (
    GridBlock,
    all_concrete_intra,
    candidate_grid,
    count_design_space,
    enumerate_design_space,
    pair_mask,
)
from repro.core.evaluator import (
    ExplicitTiles,
    FingerprintFactory,
    _context_signature,
)
from repro.core.legality import sp_optimized_ok, validate_dataflow
from repro.core.taxonomy import (
    Dataflow,
    Dim,
    InterPhase,
    Phase,
    PhaseOrder,
    SPVariant,
)
from repro.core.tiling import TileHint, choose_phase_tiles
from repro.core.workload import GNNWorkload
from repro.engine.gemm import GemmTiling
from repro.engine.spmm import SpmmTiling
from repro.graphs.generators import molecular_graph

from oracles.design_space import (
    enumerate_design_space_reference,
    fingerprint_reference,
)


@pytest.fixture(scope="module")
def wl() -> GNNWorkload:
    g = molecular_graph(np.random.default_rng(3), 60)
    return GNNWorkload(graph=g, in_features=12, out_features=4)


def _legacy_stream(include_sp_optimized: bool):
    return list(
        enumerate_design_space_reference(
            include_sp_optimized=include_sp_optimized
        )
    )


class TestGridSequenceEquivalence:
    @pytest.mark.parametrize("sp_opt", [False, True])
    def test_grid_matches_legacy_sequence(self, sp_opt):
        legacy = _legacy_stream(sp_opt)
        grid = list(enumerate_design_space(include_sp_optimized=sp_opt))
        assert len(grid) == len(legacy)
        assert grid == legacy  # same Dataflow values, same order

    def test_count_matches_stream(self):
        counts = count_design_space()
        assert counts["total"] == 6656
        assert counts["SP-Optimized"] == 16
        assert len(list(enumerate_design_space())) == counts["total"]
        assert (
            len(list(enumerate_design_space(include_sp_optimized=True)))
            == counts["total"] + counts["SP-Optimized"]
        )

    def test_blocks_lazy_and_cached(self):
        blocks = candidate_grid()
        assert all(isinstance(b, GridBlock) for b in blocks)
        b = blocks[0]
        first = b.dataflows()
        assert first is b.dataflows()  # materialized once, reused


class TestMaskCorrectness:
    @pytest.mark.parametrize("order", list(PhaseOrder))
    @pytest.mark.parametrize(
        "inter,variant",
        [
            (InterPhase.SP, SPVariant.GENERIC),
            (InterPhase.PP, None),
        ],
    )
    def test_pipeline_mask_matches_validator(self, order, inter, variant):
        agg_all = all_concrete_intra(Phase.AGGREGATION)
        cmb_all = all_concrete_intra(Phase.COMBINATION)
        mask = pair_mask(inter, order, variant)
        assert mask.shape == (48, 48)
        for i in range(48):
            for j in range(48):
                df = Dataflow(
                    inter=inter,
                    order=order,
                    agg=agg_all[i],
                    cmb=cmb_all[j],
                    sp_variant=variant,
                )
                legal = validate_dataflow(df, strict=False) is not None
                assert bool(mask[i, j]) == legal, str(df)

    @pytest.mark.parametrize("order", list(PhaseOrder))
    def test_sp_optimized_mask_matches_predicate(self, order):
        agg_all = all_concrete_intra(Phase.AGGREGATION)
        cmb_all = all_concrete_intra(Phase.COMBINATION)
        mask = pair_mask(InterPhase.SP, order, SPVariant.OPTIMIZED)
        for i in range(48):
            for j in range(48):
                df = Dataflow(
                    inter=InterPhase.SP,
                    order=order,
                    agg=agg_all[i],
                    cmb=cmb_all[j],
                    sp_variant=SPVariant.OPTIMIZED,
                )
                ok, _ = sp_optimized_ok(df)
                assert bool(mask[i, j]) == ok, str(df)

    def test_masks_read_only(self):
        mask = pair_mask(InterPhase.SP, PhaseOrder.AC, SPVariant.GENERIC)
        with pytest.raises(ValueError):
            mask[0, 0] = True

    def test_nonzero_row_major_matches_nested_loop_order(self):
        # The grid relies on np.nonzero's row-major walk reproducing the
        # legacy `for agg: for cmb:` lexicographic order.
        mask = pair_mask(InterPhase.PP, PhaseOrder.AC)
        ii, jj = np.nonzero(mask)
        pairs = list(zip(ii.tolist(), jj.tolist()))
        assert pairs == sorted(pairs)


class TestFingerprintEquivalence:
    def _specs(self):
        return [
            None,
            TileHint(),
            TileHint(agg_priority=(Dim.F, Dim.V, Dim.N), max_tf=8),
            TileHint(caps={(Phase.AGGREGATION, Dim.N): 4}),
            ExplicitTiles(
                spmm=SpmmTiling(4, 2, 1), gemm=GemmTiling(8, 2, 1)
            ),
        ]

    def test_factory_matches_reference_over_stream(self, wl):
        hw = AcceleratorConfig(num_pes=128)
        ctx = _context_signature(wl, hw)
        factory = FingerprintFactory(ctx)
        specs = self._specs()
        for k, df in enumerate(enumerate_design_space(include_sp_optimized=True)):
            spec = specs[k % len(specs)]
            assert factory.fingerprint(df, spec) == fingerprint_reference(
                ctx, df, spec
            )


class TestTileMemoEquivalence:
    def test_memo_matches_fresh_compute(self, wl):
        from repro.core.tiling import _compute_phase_tiles, phase_geometry

        geom = phase_geometry(wl)
        hints = [TileHint(), TileHint(max_tf=4)]
        for phase in Phase:
            for intra in all_concrete_intra(phase)[::5]:
                for hint in hints:
                    for pes in (64, 512):
                        for ca in (False, True):
                            got = choose_phase_tiles(
                                intra, wl, pes, hint, ca_order=ca
                            )
                            fresh = _compute_phase_tiles(
                                intra, geom, pes, hint, ca
                            )
                            assert got == fresh

    def test_memo_hits_are_mutation_safe(self, wl):
        intra = all_concrete_intra(Phase.AGGREGATION)[0]
        hint = TileHint()
        first = choose_phase_tiles(intra, wl, 256, hint)
        poisoned = dict(first)
        first[Dim.V] = -1  # caller mutates its copy (choose_tiles does)
        second = choose_phase_tiles(intra, wl, 256, hint)
        assert second[Dim.V] == poisoned[Dim.V]
        assert second is not first
