"""Batched bounded-pipeline recurrence: exact equality proofs.

The batch kernel (:func:`repro.core.pipeline.bounded_pipeline_batch`) must
be *bit-identical* to the scalar recurrence for every lane — across ragged
lengths, depths, zero-length and zero-cost granules, the hybrid
batch-to-scalar cutover, and the step-chunked buffer refills — and both
must agree with the independent discrete-event oracle
(:mod:`repro.core.pipeline_sim`) on totals.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import (
    PipelineReport,
    bounded_pipeline,
    bounded_pipeline_batch,
)
from repro.core.pipeline_sim import simulate_pipeline


def random_series(rng, n):
    scale = float(10 ** rng.integers(0, 4))
    series = rng.random(n) * scale
    # Sprinkle exact zeros (zero-cost granules) and integer-valued times.
    if n:
        if rng.random() < 0.4:
            series[rng.integers(0, n)] = 0.0
        if rng.random() < 0.4:
            series = np.floor(series)
    return series


class TestBatchEqualsScalar:
    def test_fuzz_exact_equality(self):
        rng = np.random.default_rng(0xB47C4)
        for _ in range(250):
            nb = int(rng.integers(1, 16))
            depth = int(rng.integers(1, 5))
            prods, conses = [], []
            for _ in range(nb):
                n = 0 if rng.random() < 0.15 else int(rng.integers(1, 120))
                prods.append(random_series(rng, n))
                conses.append(random_series(rng, n))
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b in range(nb):
                ref = bounded_pipeline(
                    prods[b], conses[b], depth=depth
                )
                # Frozen dataclass equality covers every field: totals,
                # busy sums, stalls, fill — all must match bit-for-bit.
                assert batch[b] == ref

    def test_fuzz_across_chunk_boundaries(self, monkeypatch):
        """Tiny _STEP_CHUNK forces many buffer refills mid-recurrence."""
        monkeypatch.setattr(pipeline_mod, "_STEP_CHUNK", 7)
        rng = np.random.default_rng(0xC04)
        for _ in range(100):
            nb = int(rng.integers(8, 20))  # keep the batch region busy
            depth = int(rng.integers(1, 4))
            prods = [random_series(rng, int(rng.integers(1, 60))) for _ in range(nb)]
            conses = [random_series(rng, len(p)) for p in prods]
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b in range(nb):
                assert batch[b] == bounded_pipeline(
                    prods[b], conses[b], depth=depth
                )

    def test_hybrid_cutover_tail_lanes(self):
        """A few very long lanes finish in the scalar continuation."""
        rng = np.random.default_rng(7)
        prods = [rng.random(5000), rng.random(4000)] + [
            rng.random(int(rng.integers(1, 40))) for _ in range(12)
        ]
        conses = [rng.random(len(p)) for p in prods]
        batch = bounded_pipeline_batch(prods, conses, depth=2)
        for b in range(len(prods)):
            assert batch[b] == bounded_pipeline(
                prods[b], conses[b], depth=2
            )

    def test_single_lane_matches_entry_point(self):
        rng = np.random.default_rng(11)
        p, c = rng.random(200), rng.random(200)
        assert bounded_pipeline_batch([p], [c], depth=2)[0] == bounded_pipeline(
            p, c, depth=2
        )

    def test_duplicate_series_shared_arrays(self):
        """The same (read-only) array objects may appear in many lanes."""
        rng = np.random.default_rng(13)
        p, c = rng.random(50), rng.random(50)
        p.setflags(write=False)
        c.setflags(write=False)
        batch = bounded_pipeline_batch([p] * 10, [c] * 10, depth=2)
        ref = bounded_pipeline(p, c, depth=2)
        assert all(report == ref for report in batch)

    def test_empty_batch_and_empty_lanes(self):
        assert bounded_pipeline_batch([], []) == []
        z = np.zeros(0)
        reports = bounded_pipeline_batch([z, z], [z, z], depth=3)
        assert reports == [PipelineReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2

    def test_validation_matches_scalar(self):
        good = np.ones(3)
        bad = np.array([1.0, -2.0, 1.0])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [bad])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [good], depth=0)
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good, good], [good])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [np.ones(4)])


class TestAgainstDiscreteEventOracle:
    def test_fuzz_totals_match_simulation(self):
        """Batch kernel vs the independent event-queue actors (depth=2)."""
        rng = np.random.default_rng(0x51A)
        prods, conses = [], []
        for _ in range(40):
            n = int(rng.integers(1, 80))
            prods.append(random_series(rng, n))
            conses.append(random_series(rng, n))
        for depth in (1, 2, 3):
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b, report in enumerate(batch):
                trace = simulate_pipeline(prods[b], conses[b], depth=depth)
                assert report.total_cycles == int(np.ceil(trace.total_time))

    def test_zero_cost_granules_against_oracle(self):
        p = np.array([0.0, 5.0, 0.0, 3.0, 0.0])
        c = np.array([2.0, 0.0, 4.0, 0.0, 1.0])
        report = bounded_pipeline_batch([p], [c], depth=2)[0]
        trace = simulate_pipeline(p, c, depth=2)
        assert report.total_cycles == int(np.ceil(trace.total_time))
        assert report == bounded_pipeline(p, c, depth=2)
