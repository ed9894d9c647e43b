"""Structured element-grain lanes: the (max,+) structured kernel, exactly.

An element-grain lane reaches :func:`repro.core.pipeline.bounded_pipeline_batch`
as a pair of :class:`repro.core.granularity.GridSeries`.  Whatever path it
takes — the structured kernel, the block kernel on the expanded grid, or
the loop — its report must equal, bit for bit and in every field, the
report of the same lane passed as the dense arrays ``np.asarray(series)``,
and the direct array-form oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.granularity import GridSeries
from repro.core.pipeline import bounded_pipeline_batch
from oracles.pipeline_sim import bounded_pipeline


def assert_same_report(got, want):
    # repr tells every double apart (including -0.0 from 0.0).
    assert repr(got) == repr(want)


def dense_report(prod, cons, depth):
    report = bounded_pipeline_batch(
        [np.asarray(prod)], [np.asarray(cons)], depth=depth
    )[0]
    assert_same_report(report, bounded_pipeline(prod, cons, depth=depth))
    return report


@pytest.fixture
def run(monkeypatch):
    """``run(prod, cons, depth) -> (report, paths)``: one structured lane
    through the batch, and the paths it took: ``grid`` (structured kernel),
    ``block`` (block kernel) and ``loop``."""
    taken = []
    grid, block, loop = (
        pipeline_mod._grid_maxplus,
        pipeline_mod._maxplus_lane,
        pipeline_mod._loop,
    )

    def spy_grid(*args):
        done = grid(*args)
        if done is not None:
            taken.append("grid")
        return done

    def spy_block(*args):
        taken.append("block")
        return block(*args)  # its head granules go through the loop uncounted

    def spy_loop(*args):
        if "block" not in taken:
            taken.append("loop")
        return loop(*args)

    monkeypatch.setattr(pipeline_mod, "_grid_maxplus", spy_grid)
    monkeypatch.setattr(pipeline_mod, "_maxplus_lane", spy_block)
    monkeypatch.setattr(pipeline_mod, "_loop", spy_loop)

    def run_lane(prod, cons, depth):
        taken.clear()
        report = bounded_pipeline_batch([prod], [cons], depth=depth)[0]
        paths = list(taken)
        assert_same_report(report, dense_report(prod, cons, depth))
        return report, paths

    run_lane.taken = taken
    return run_lane


@pytest.fixture
def always_structured(monkeypatch):
    """Small lanes compress little: let every exact lane take the
    structured kernel."""
    monkeypatch.setattr(pipeline_mod, "_MIN_COMPRESSION", 0)


def shares(rng, n, high, *, low=0):
    values = rng.integers(low, high + 1, n).astype(np.float64)
    if rng.random() < 0.5:  # long runs of equal shares, as on real graphs
        values = np.repeat(values[: -(-n // 4)], 4)[:n]
    if not low and n and rng.random() < 0.4:
        values[rng.integers(0, n)] = 0.0  # zero-cost rows / columns
    return values


def random_pair(rng, *, fractional=()):
    """A structured lane; the sides named in ``fractional`` (0 producer,
    1 consumer) have fractional cells."""
    rows, cols = (
        1 if rng.random() < 0.15 else int(rng.integers(1, 40)) for _ in "rc"
    )
    row_major = bool(rng.integers(2))
    high = int(rng.choice([1, 9, 135, 10**6]))
    pair = []
    for side in range(2):
        # Cells r*c/total are integers when total divides every r.
        total = float(rng.integers(1, 4))
        r = shares(rng, rows, high) * total
        if side in fractional:  # no zero column, so no side is all zeros
            c = shares(rng, cols, high, low=1)
            r = r + rng.random(rows)
        else:
            c = shares(rng, cols, high)
        pair.append(GridSeries(r, c, total, row_major))
    return pair


class TestGridSeries:
    @pytest.mark.parametrize("row_major", [True, False])
    def test_expands_with_the_grid_float_operations(self, row_major):
        rng = np.random.default_rng(1)
        r, c, total = rng.random(7) * 100, rng.random(5) * 100, 3.7
        series = GridSeries(r, c, total, row_major)
        grid = np.outer(r, c) / total
        if not row_major:
            grid = grid.T
        dense = np.asarray(series)
        assert dense.dtype == np.float64 and dense.shape == (35,)
        assert dense.tobytes() == grid.ravel().tobytes()
        assert len(series) == 35
        narrow = np.asarray(series, dtype=np.float32)
        assert narrow.dtype == np.float32 and narrow.shape == (35,)

    def test_non_positive_total_is_all_zero(self):
        for total in (0.0, -2.0):
            series = GridSeries(np.array([1.0, np.nan]), np.ones(3), total, True)
            assert np.asarray(series).tobytes() == np.zeros(6).tobytes()

    def test_no_copy_free_view(self):
        series = GridSeries(np.ones(2), np.ones(2), 1.0, True)
        with pytest.raises(ValueError):
            np.asarray(series, copy=False)


class TestStructuredEqualsDense:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_fuzz_integral(self, depth, run, always_structured):
        rng = np.random.default_rng(0x6121 + depth)
        for _ in range(60):
            _, paths = run(*random_pair(rng), depth)
            assert paths == ["grid"]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_fuzz_fractional_takes_the_loop_once(self, depth, run, always_structured):
        rng = np.random.default_rng(0xF4AC + depth)
        for _ in range(40):
            sides = [(0,), (1,), (0, 1)][int(rng.integers(3))]
            _, paths = run(*random_pair(rng, fractional=sides), depth)
            assert paths == ["loop"]

    def test_small_slabs(self, monkeypatch, run, always_structured):
        """Tiny _MATRIX_CHUNK: lines and runs fold across many slabs."""
        monkeypatch.setattr(pipeline_mod, "_MATRIX_CHUNK", 3)
        rng = np.random.default_rng(0x51AB)
        for _ in range(40):
            _, paths = run(*random_pair(rng), int(rng.integers(1, 5)))
            assert paths == ["grid"]

    def test_cora_shaped_lanes_take_the_structured_kernel(self, run):
        """Few distinct shares over long axes, in both walk orders, at the
        production compression threshold."""
        rng = np.random.default_rng(0xC0A)
        for row_major in (True, False):
            prod = GridSeries(
                rng.integers(0, 40, 300).astype(float) * 2.0,
                np.full(200, 3.0),
                2.0,
                row_major,
            )
            cons = GridSeries(np.full(300, 4.0), np.full(200, 2.0), 8.0, row_major)
            _, paths = run(prod, cons, 2)
            assert paths == ["grid"]

    def test_incompressible_lane_expands_to_the_block_kernel(self, run):
        rng = np.random.default_rng(9)
        prod = GridSeries(
            rng.permutation(60).astype(float), np.arange(1.0, 41.0), 1.0, True
        )
        cons = GridSeries(np.ones(60), rng.permutation(40).astype(float), 1.0, True)
        _, paths = run(prod, cons, 2)
        assert paths == ["block"]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_single_row_and_single_column(self, depth, run, always_structured):
        rng = np.random.default_rng(depth)
        for rows, cols in ((1, 30), (30, 1), (1, 1)):
            for row_major in (True, False):
                prod = GridSeries(
                    shares(rng, rows, 50), shares(rng, cols, 50), 1.0, row_major
                )
                cons = GridSeries(
                    shares(rng, rows, 9), shares(rng, cols, 9), 1.0, row_major
                )
                _, paths = run(prod, cons, depth)
                assert paths == ["grid"]

    @pytest.mark.parametrize("total", [0.0, -1.0])
    def test_non_positive_total(self, total, run, always_structured):
        """The grid is all zeros whatever the shares hold, NaN included."""
        prod = GridSeries(
            np.array([np.nan, 3.0]), np.array([1.0, -2.0]), total, False
        )
        cons = GridSeries(np.array([1.0, 2.0]), np.array([5.0, 1.0]), 1.0, False)
        _, paths = run(prod, cons, 2)
        assert paths == ["grid"]

    def test_empty_lane(self, run):
        prod = GridSeries(np.zeros(0), np.ones(4), 1.0, True)
        cons = GridSeries(np.zeros(0), np.ones(4), 1.0, True)
        report, paths = run(prod, cons, 2)
        assert paths == [] and report.num_granules == 0

    def test_mixed_dense_and_structured_pair(self):
        rng = np.random.default_rng(4)
        prod, cons = random_pair(rng)
        want = dense_report(prod, cons, 2)
        for pair in ((prod, np.asarray(cons)), (np.asarray(prod), cons)):
            report = bounded_pipeline_batch([pair[0]], [pair[1]], depth=2)[0]
            assert_same_report(report, want)


class TestStructuredGuard:
    # Producer cells: 2**52 - 2 twice, then 1 twice: they sum to 2**53 - 2.
    PROD = GridSeries(np.array([2.0**52 - 2, 1.0]), np.ones(2), 1.0, True)

    def test_sums_just_below_two_to_the_53_take_the_structured_kernel(
        self, run, always_structured
    ):
        cons = GridSeries(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0, True)
        _, paths = run(self.PROD, cons, 2)
        assert paths == ["grid"]

    @pytest.mark.parametrize("cons_sum", [2.0, 3.0])
    def test_sums_at_or_above_two_to_the_53_take_the_loop(
        self, cons_sum, run, always_structured
    ):
        cons = GridSeries(
            np.array([cons_sum, 0.0]), np.array([1.0, 0.0]), 1.0, True
        )
        _, paths = run(self.PROD, cons, 2)
        assert paths == ["loop"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_invalid_shares_raise_before_any_lane_runs(self, bad, run):
        good = GridSeries(np.arange(1.0, 5.0), np.ones(3), 1.0, True)
        odd = GridSeries(np.array([1.0, bad, 3.0, 4.0]), np.ones(3), 1.0, True)
        for prods, conses in (([good, good], [good, odd]), ([good, odd], [good, good])):
            with pytest.raises(ValueError, match="finite|non-negative"):
                bounded_pipeline_batch(prods, conses, depth=2)
        assert run.taken == []
