"""Unit tests for the event-driven micro-simulator itself.

The cross-validation suite checks agreement with the engines; these tests
pin down the micro-simulator's own semantics on hand-computable cases.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.taxonomy import IntraDataflow, Phase
from repro.engine.cycle_model import (
    CycleReport,
    cycle_accurate_gemm,
    cycle_accurate_spmm,
)
from repro.engine.gemm import GemmSpec, GemmTiling
from repro.engine.spmm import SpmmSpec, SpmmTiling
from repro.graphs.csr import CSRGraph


def gemm_intra(text: str) -> IntraDataflow:
    return IntraDataflow.parse(text, Phase.COMBINATION)


def spmm_intra(text: str) -> IntraDataflow:
    return IntraDataflow.parse(text, Phase.AGGREGATION)


class TestGemmMicro:
    def test_tiny_output_stationary(self):
        """2x2x2 GEMM, fully spatial: one step, one wavefront."""
        hw = AcceleratorConfig(num_pes=8)
        spec = GemmSpec(rows=2, inner=2, cols=2)
        rep = cycle_accurate_gemm(spec, gemm_intra("VsFsGs"), GemmTiling(2, 2, 2), hw)
        assert rep.steps == 1
        assert rep.gb_reads["intermediate"] == 4
        assert rep.gb_reads["weight"] == 4
        assert rep.gb_writes["output"] == 4

    def test_streaming_counts_hand_computed(self):
        """V=4,F=2,G=2 with V temporal: weight refetched per v-step."""
        hw = AcceleratorConfig(num_pes=8)
        spec = GemmSpec(rows=4, inner=2, cols=2)
        rep = cycle_accurate_gemm(
            spec, gemm_intra("VtFsGs"), GemmTiling(1, 2, 2), hw
        )
        assert rep.steps == 4
        # Weight (F x G = 4 elems) streams at every v-step: 16 reads.
        assert rep.gb_reads["weight"] == 16
        assert rep.gb_reads["intermediate"] == 8  # each row slice once

    def test_load_stalls_counted(self):
        hw = AcceleratorConfig(num_pes=16)
        spec = GemmSpec(rows=4, inner=4, cols=4)
        rep = cycle_accurate_gemm(
            spec, gemm_intra("GsFsVt"), GemmTiling(1, 4, 4), hw
        )
        assert rep.load_stall_cycles > 0

    def test_fill_cycles_reported(self):
        hw = AcceleratorConfig(num_pes=16, dist_bw=2, red_bw=16)
        spec = GemmSpec(rows=4, inner=2, cols=2)
        rep = cycle_accurate_gemm(
            spec, gemm_intra("VsGsFt"), GemmTiling(4, 1, 2), hw
        )
        assert rep.fill_cycles >= 1
        assert rep.cycles >= rep.steps

    def test_report_accessors(self):
        rep = CycleReport(cycles=5, steps=3, gb_reads={"weight": 7.0})
        assert rep.read("weight") == 7.0
        assert rep.read("input") == 0.0
        assert rep.write("psum") == 0.0


class TestSpmmMicro:
    def test_lockstep_idle_lanes_produce_no_traffic(self):
        """Row degrees (4, 1): the deg-1 lane idles for 3 of 4 steps."""
        hw = AcceleratorConfig(num_pes=8)
        vptr = np.array([0, 4, 5])
        dst = np.array([0, 1, 0, 1, 0])
        g = CSRGraph(vptr, dst, 2)
        spec = SpmmSpec(graph=g, feat=1)
        rep = cycle_accurate_spmm(
            spec, spmm_intra("VsFtNt"), SpmmTiling(2, 1, 1), hw
        )
        assert rep.steps == 4  # max(4, 1) lock-step steps
        assert rep.gb_reads["input"] == 5  # only real edges fetch

    def test_zero_degree_rows_still_flushed(self):
        hw = AcceleratorConfig(num_pes=8)
        g = CSRGraph(np.array([0, 0, 2]), np.array([0, 1]), 2)
        spec = SpmmSpec(graph=g, feat=3)
        rep = cycle_accurate_spmm(
            spec, spmm_intra("VtFtNt"), SpmmTiling(1, 1, 1), hw
        )
        assert rep.gb_writes["intermediate"] == 2 * 3  # both rows written

    def test_spatial_n_reduces_steps(self):
        hw = AcceleratorConfig(num_pes=8)
        g = CSRGraph(np.array([0, 8]), np.arange(8), 8)
        spec = SpmmSpec(graph=g, feat=1)
        t1 = cycle_accurate_spmm(spec, spmm_intra("VtFtNt"), SpmmTiling(1, 1, 1), hw)
        t4 = cycle_accurate_spmm(spec, spmm_intra("VtFtNs"), SpmmTiling(1, 1, 4), hw)
        assert t1.steps == 8 and t4.steps == 2

    def test_psum_traffic_on_n_outer(self):
        hw = AcceleratorConfig(num_pes=8)
        g = CSRGraph(np.array([0, 3]), np.array([0, 1, 2]), 3)
        spec = SpmmSpec(graph=g, feat=2)
        rep = cycle_accurate_spmm(
            spec, spmm_intra("NtVtFt"), SpmmTiling(1, 1, 1), hw
        )
        assert rep.gb_writes["psum"] == (3 - 1) * 2
        assert rep.gb_reads["psum"] == (3 - 1) * 2

    def test_phase_type_checked(self):
        hw = AcceleratorConfig(num_pes=8)
        g = CSRGraph(np.array([0, 1]), np.array([0]), 1)
        with pytest.raises(ValueError):
            cycle_accurate_spmm(
                SpmmSpec(graph=g, feat=1),
                gemm_intra("VsGsFt"),  # wrong phase
                SpmmTiling(1, 1, 1),
                hw,
            )
        with pytest.raises(ValueError):
            cycle_accurate_gemm(
                GemmSpec(rows=1, inner=1, cols=1),
                spmm_intra("VtFtNt"),
                GemmTiling(1, 1, 1),
                hw,
            )


def test_import_repro_leaves_validator_unloaded():
    """The validator is off the production path: importing the library
    must not load it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, repro; print('repro.engine.cycle_model' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
