"""Tests for Pel sizing and producer/consumer granule-series alignment."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.granularity as granularity
from repro.arch.config import AcceleratorConfig
from repro.core.granularity import chunk_sums, granule_series, make_granule_spec
from repro.core.omega import phase_specs, prepare_phases
from repro.core.taxonomy import Granularity, PhaseOrder, parse_dataflow
from repro.core.workload import GNNWorkload
from repro.engine.gemm import GemmTiling, simulate_gemm
from repro.engine.spmm import SpmmTiling, simulate_spmm


@pytest.fixture
def setup(er_graph):
    wl = GNNWorkload(er_graph, in_features=24, out_features=6)
    hw = AcceleratorConfig(num_pes=64)
    return wl, hw


def _run(wl, hw, df, st, gt):
    spmm_spec, gemm_spec = phase_specs(wl, df.order)
    agg = simulate_spmm(spmm_spec, df.agg, st, hw)
    cmb = simulate_gemm(gemm_spec, df.cmb, gt, hw)
    return agg, cmb


class TestChunkSums:
    def test_exact_chunks(self):
        out = chunk_sums(np.arange(6, dtype=float), 2)
        assert out.tolist() == [1.0, 5.0, 9.0]

    def test_ragged_tail(self):
        out = chunk_sums(np.ones(5), 2)
        assert out.tolist() == [2.0, 2.0, 1.0]

    def test_preserves_total(self):
        v = np.random.default_rng(0).uniform(size=17)
        for c in (1, 2, 5, 17, 40):
            assert chunk_sums(v, c).sum() == pytest.approx(v.sum())

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            chunk_sums(np.ones(3), 0)


class TestPelSizing:
    """Table III: Pel per granularity."""

    def test_row_pel(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_AC(VsFtNt, VsGsFt)")  # row granularity
        st, gt = SpmmTiling(8, 1, 1), GemmTiling(4, 1, 6)
        agg, cmb = _run(wl, hw, df, st, gt)
        spec = make_granule_spec(df, wl, Granularity.ROW, agg, cmb)
        assert spec.rows_per_granule == 8  # max(T_V_agg, T_V_cmb)
        assert spec.pel == 8 * wl.in_features
        assert spec.buffering_elements == 2 * spec.pel
        assert spec.num_granules == math.ceil(wl.num_vertices / 8)

    def test_element_pel(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_AC(VsFsNt, VsFsGt)")  # element granularity
        st, gt = SpmmTiling(4, 8, 1), GemmTiling(4, 8, 1)
        agg, cmb = _run(wl, hw, df, st, gt)
        spec = make_granule_spec(df, wl, Granularity.ELEMENT, agg, cmb)
        assert spec.pel == 4 * 8  # T_Vmax x T_Fmax
        assert spec.num_granules == math.ceil(wl.num_vertices / 4) * math.ceil(
            24 / 8
        )

    def test_column_pel(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_AC(FsVtNt, FsGsVt)")  # column granularity
        st, gt = SpmmTiling(1, 8, 1), GemmTiling(1, 8, 6)
        agg, cmb = _run(wl, hw, df, st, gt)
        spec = make_granule_spec(df, wl, Granularity.COLUMN, agg, cmb)
        assert spec.pel == wl.num_vertices * 8  # V x T_Fmax
        assert spec.num_granules == math.ceil(24 / 8)

    def test_ca_intermediate_extent_is_g(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_CA(NsVtFt, VsGsFt)")  # CA row granularity
        st, gt = SpmmTiling(1, 1, 8), GemmTiling(8, 1, 6)
        agg, cmb = _run(wl, hw, df, st, gt)
        spec = make_granule_spec(df, wl, Granularity.ROW, agg, cmb)
        assert spec.cols_extent == wl.out_features
        assert spec.pel == spec.rows_per_granule * wl.out_features


class TestSeriesAlignment:
    @pytest.mark.parametrize(
        "notation,st_,gt",
        [
            ("PP_AC(VsFtNt, VsGsFt)", (8, 1, 1), (4, 1, 6)),  # row
            ("PP_AC(VsFsNt, VsFsGt)", (4, 8, 1), (4, 8, 1)),  # element
            ("PP_AC(FsVtNt, FsGsVt)", (1, 8, 1), (1, 8, 6)),  # column
        ],
        ids=["row", "element", "column"],
    )
    def test_producer_consumer_same_length(self, setup, notation, st_, gt):
        wl, hw = setup
        df = parse_dataflow(notation)
        agg, cmb = _run(wl, hw, df, SpmmTiling(*st_), GemmTiling(*gt))
        from repro.core.legality import validate_dataflow

        gran = validate_dataflow(df)
        spec = make_granule_spec(df, wl, gran, agg, cmb)
        prod, cons = granule_series(df, spec, agg, cmb)
        assert len(prod) == len(cons) == spec.num_granules

    def test_series_sums_match_phase_cycles(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_AC(VsFtNt, VsGsFt)")
        agg, cmb = _run(wl, hw, df, SpmmTiling(8, 1, 1), GemmTiling(4, 1, 6))
        spec = make_granule_spec(df, wl, Granularity.ROW, agg, cmb)
        prod, cons = granule_series(df, spec, agg, cmb)
        assert prod.sum() == pytest.approx(agg.stats.cycles, rel=1e-6)
        assert cons.sum() == pytest.approx(cmb.stats.cycles, rel=1e-6)

    def test_ca_series_sums(self, setup):
        wl, hw = setup
        df = parse_dataflow("PP_CA(NsVtFt, VsGsFt)")
        agg, cmb = _run(wl, hw, df, SpmmTiling(1, 1, 8), GemmTiling(8, 1, 6))
        spec = make_granule_spec(df, wl, Granularity.ROW, agg, cmb)
        prod, cons = granule_series(df, spec, agg, cmb)
        assert prod.sum() == pytest.approx(cmb.stats.cycles, rel=1e-6)
        assert cons.sum() == pytest.approx(agg.stats.cycles, rel=1e-6)

    def test_misaligned_tiles_still_align(self, setup):
        """Tile sizes that don't divide each other must still produce
        aligned series (per-unit chunking, DESIGN.md)."""
        wl, hw = setup
        df = parse_dataflow("PP_AC(VsFtNt, VsGsFt)")
        agg, cmb = _run(wl, hw, df, SpmmTiling(6, 1, 1), GemmTiling(10, 1, 6))
        spec = make_granule_spec(df, wl, Granularity.ROW, agg, cmb)
        prod, cons = granule_series(df, spec, agg, cmb)
        assert len(prod) == len(cons)
        assert prod.sum() == pytest.approx(agg.stats.cycles, rel=1e-6)

    @pytest.mark.parametrize(
        "notation",
        [
            "PP_AC(VsFsNs, VsFsGs)",  # row-major walk
            "PP_AC(FsVsNs, FsVsGs)",  # column-major walk
            "PP_CA(NsFsVs, VsGsFs)",
            "PP_CA(FsNsVs, GsVsFs)",
        ],
    )
    def test_element_grids_structured_when_large(self, setup, monkeypatch, notation):
        """Large element grids come back as GridSeries, small ones dense;
        both hold the same granule times in walk order, bit for bit."""
        wl, hw = setup
        df, agg, cmb = prepare_phases(wl, parse_dataflow(notation), hw)
        spec = make_granule_spec(df, wl, Granularity.ELEMENT, agg, cmb)
        assert 1 < spec.num_granules < granularity._DENSE_GRID
        dense = granule_series(df, spec, agg, cmb)
        monkeypatch.setattr(granularity, "_DENSE_GRID", spec.num_granules)
        structured = granule_series(df, spec, agg, cmb)
        for small, large in zip(dense, structured):
            assert isinstance(small, np.ndarray)
            assert isinstance(large, granularity.GridSeries)
            assert large.row_major is spec.row_major
            assert len(large) == spec.num_granules
            assert np.asarray(large).tobytes() == small.tobytes()
