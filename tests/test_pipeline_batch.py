"""Bounded-pipeline recurrence kernel: exact equality proofs.

The production kernel (:func:`repro.core.pipeline.bounded_pipeline_batch`)
must be *bit-identical* for every lane to the direct array form of the
recurrence (the ``bounded_pipeline`` oracle in
``tests/oracles/pipeline_sim.py``) — across ragged lengths, depths,
zero-length and zero-cost granules, and the ``_STEP_CHUNK`` segment
boundaries — and must agree with the independent discrete-event oracle in
the same module on totals.  Each of its array paths is held to that: the
loop, its regime blocks (fuzzed with shrunken block sizes, down to the
sign of zero, with a spy proving the blocks ran), and the exact (max,+)
block kernel that integer-valued lanes take, whose guard is tested on
both sides.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.arch.config import AcceleratorConfig
from repro.core.enumeration import design_space_stream
from repro.core.evaluator import DataflowEvaluator
from repro.core.pipeline import PipelineReport, bounded_pipeline_batch
from repro.core.workload import workload_from_dataset
from repro.graphs.datasets import load_dataset
from oracles.pipeline_sim import bounded_pipeline, simulate_pipeline


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
        """Tiny _STEP_CHUNK forces many segment boundaries mid-recurrence."""
        monkeypatch.setattr(pipeline_mod, "_STEP_CHUNK", 7)
        rng = np.random.default_rng(0xC04)
        for _ in range(100):
            nb = int(rng.integers(8, 20))
            depth = int(rng.integers(1, 4))
            prods = [random_series(rng, int(rng.integers(1, 60))) for _ in range(nb)]
            conses = [random_series(rng, len(p)) for p in prods]
            batch = bounded_pipeline_batch(prods, conses, depth=depth)
            for b in range(nb):
                assert batch[b] == bounded_pipeline(
                    prods[b], conses[b], depth=depth
                )

    def test_hybrid_cutover_tail_lanes(self):
        """Ragged lengths: two long lanes spanning segment boundaries
        among many short ones."""
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
        for value in (np.nan, np.inf):
            odd = np.array([1.0, value, 1.0])
            with pytest.raises(ValueError, match="finite"):
                bounded_pipeline_batch([good], [odd])
            with pytest.raises(ValueError, match="finite"):
                bounded_pipeline_batch([odd], [good])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [good], depth=0)
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good, good], [good])
        with pytest.raises(ValueError):
            bounded_pipeline_batch([good], [np.ones(4)])


def integer_series(rng, n, high):
    return rng.integers(0, high + 1, n).astype(np.float64)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the lengths of the lanes that take the (max,+) kernel."""
    calls = []
    kernel = pipeline_mod._maxplus_lane

    def spy(p, c, depth):
        calls.append(len(p))
        return kernel(p, c, depth)

    monkeypatch.setattr(pipeline_mod, "_maxplus_lane", spy)
    return calls


class TestMaxPlusFastPath:
    # 1, 2, 3, then k^2 - 1, k^2, k^2 + 1: one block, a head and no head,
    # and the head of isqrt(n) - 1 granules just below a square.
    LENGTHS = [1, 2, 3] + [k * k + d for k in (2, 3, 7, 12) for d in (-1, 0, 1)]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_structured_lengths(self, depth, kernel_calls):
        rng = np.random.default_rng(depth)
        for n in self.LENGTHS:
            for high in (1, 9, 135, 10**6):
                p, c = integer_series(rng, n, high), integer_series(rng, n, high)
                report = bounded_pipeline_batch([p], [c], depth=depth)[0]
                assert report == bounded_pipeline(p, c, depth=depth)
        assert len(kernel_calls) == 4 * len(self.LENGTHS)

    def test_fuzz_random_lengths(self, kernel_calls):
        rng = np.random.default_rng(0x3A9)
        for _ in range(150):
            n = int(rng.integers(1, 700))
            depth = int(rng.integers(1, 5))
            # Constant consumer times (as on Cora's heavy lanes) half the time.
            p = integer_series(rng, n, int(rng.integers(1, 300)))
            if rng.random() < 0.5:
                c = np.full(n, float(rng.integers(0, 20)))
            else:
                c = integer_series(rng, n, int(rng.integers(1, 300)))
            report = bounded_pipeline_batch([p], [c], depth=depth)[0]
            assert report == bounded_pipeline(p, c, depth=depth)
        assert len(kernel_calls) == 150

    def test_slab_boundaries(self, monkeypatch, kernel_calls):
        """Tiny _ARRAY_CHUNK: many step-major slabs and guard chunks."""
        monkeypatch.setattr(pipeline_mod, "_ARRAY_CHUNK", 5)
        rng = np.random.default_rng(21)
        for n in (1, 10, 99, 100, 101, 2500):
            for depth in (1, 2, 3):
                p, c = integer_series(rng, n, 40), integer_series(rng, n, 40)
                report = bounded_pipeline_batch([p], [c], depth=depth)[0]
                assert report == bounded_pipeline(p, c, depth=depth)
        assert len(kernel_calls) == 18

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_all_zero_lanes(self, depth, kernel_calls):
        for n in (1, 2, 3, 16, 17):
            z = np.zeros(n)
            report = bounded_pipeline_batch([z], [z], depth=depth)[0]
            assert report == bounded_pipeline(z, z, depth=depth)
        assert kernel_calls == [1, 2, 3, 16, 17]

    def test_mixed_batch(self, kernel_calls):
        """Qualifying and non-qualifying lanes interleave in one batch and
        come back in batch order."""
        rng = np.random.default_rng(0x313)
        prods, conses, qualifying = [], [], []
        for b in range(24):
            n = int(rng.integers(1, 400))
            p, c = integer_series(rng, n, 135), integer_series(rng, n, 8)
            if b % 3 == 1:
                c = c + 0.25  # non-integer: the loop
            elif b % 3 == 2:
                p = rng.random(n) * 50.0
            else:
                qualifying.append(n)
            prods.append(p)
            conses.append(c)
        batch = bounded_pipeline_batch(prods, conses, depth=2)
        for report, p, c in zip(batch, prods, conses):
            assert report == bounded_pipeline(p, c, depth=2)
        assert kernel_calls == qualifying


class TestFastPathGuard:
    def test_half_integer_lane_takes_the_loop(self, kernel_calls):
        rng = np.random.default_rng(5)
        p = integer_series(rng, 300, 135)
        c = np.full(300, 2.0)
        p[171] += 0.5
        report = bounded_pipeline_batch([p], [c], depth=2)[0]
        assert kernel_calls == []
        assert report == bounded_pipeline(p, c, depth=2)

    def test_sums_at_two_to_the_53_take_the_loop(self, kernel_calls):
        # Integer-valued, but sum(p) + sum(c) = 2**53: a sum could round.
        p = np.array([2.0**52, 0.0, 2.0**51, 3.0])
        c = np.array([1.0, 2.0**51 - 4.0, 0.0, 0.0])
        assert p.sum() + c.sum() == 2.0**53
        report = bounded_pipeline_batch([p], [c], depth=2)[0]
        assert kernel_calls == []
        assert report == bounded_pipeline(p, c, depth=2)

    def test_sums_just_below_two_to_the_53_take_the_kernel(self, kernel_calls):
        p = np.array([2.0**52, 0.0, 2.0**51, 3.0])
        c = np.array([1.0, 2.0**51 - 5.0, 0.0, 0.0])
        report = bounded_pipeline_batch([p], [c], depth=2)[0]
        assert kernel_calls == [4]
        assert report == bounded_pipeline(p, c, depth=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_invalid_times_raise_before_any_lane_runs(
        self, bad, monkeypatch, kernel_calls
    ):
        loops = []
        loop = pipeline_mod._loop
        monkeypatch.setattr(
            pipeline_mod, "_loop", lambda *a: loops.append(1) or loop(*a)
        )
        good = np.arange(10.0)
        odd = good.copy()
        odd[4] = bad
        for prods, conses in (([good, good], [good, odd]), ([good, odd], [good, good])):
            with pytest.raises(ValueError, match="finite|non-negative"):
                bounded_pipeline_batch(prods, conses, depth=2)
        assert kernel_calls == [] and loops == []


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


# ----------------------------------------------------------------------
# Regime blocks: the loop advances stretches of one regime as numpy
# accumulates, and must stay bit-identical to the oracle
# ----------------------------------------------------------------------


def regimes(p, c, depth):
    """Per granule, the regime blocks it fits: bit 1 producer-bound (the
    producer does not wait for a bank, the consumer waits for the data),
    bit 2 consumer-bound (the reverse); bit 4 marks a tie, a branch of the
    loop met with equality."""
    prod_done, window, out = 0.0, [0.0] * depth, []
    for p_i, c_i in zip(p.tolist(), c.tolist()):
        freed, cons_done = window[-depth], window[-1]
        started = max(prod_done, freed)
        producer = freed <= prod_done and prod_done + p_i >= cons_done
        consumer = freed >= prod_done and freed + p_i <= cons_done
        tie = freed == prod_done or started + p_i == cons_done
        out.append(producer + 2 * consumer + 4 * tie)
        prod_done = started + p_i
        window.append(max(prod_done, cons_done) + c_i)
    return out


@pytest.fixture
def blocks(monkeypatch):
    """Shrink the block sizes so lanes of a few hundred granules cross many
    block edges, and record ``(first granule, length, kept)`` of every
    block (the steps between blocks are counted to place them)."""
    monkeypatch.setattr(pipeline_mod, "_PROBE", 8)
    monkeypatch.setattr(pipeline_mod, "_SLAB", 64)
    monkeypatch.setattr(pipeline_mod, "_MIN_TAIL", 16)
    monkeypatch.setattr(pipeline_mod, "_MAX_GAP", 32)
    seen, pos = [], [0]
    block, steps, loop = pipeline_mod._block, pipeline_mod._steps, pipeline_mod._loop

    def block_spy(p, *args):
        out = block(p, *args)
        seen.append((pos[0], len(p), out[0]))
        pos[0] += out[0]
        return out

    def steps_spy(p, *args):
        pos[0] += len(p)
        return steps(p, *args)

    def loop_spy(*args):
        pos[0] = 0
        return loop(*args)

    monkeypatch.setattr(pipeline_mod, "_block", block_spy)
    monkeypatch.setattr(pipeline_mod, "_steps", steps_spy)
    monkeypatch.setattr(pipeline_mod, "_loop", loop_spy)
    return seen


def kept(blocks):
    return sum(k for _, _, k in blocks)


def assert_bit_identical(p, c, depth):
    report = bounded_pipeline_batch([p], [c], depth=depth)[0]
    ref = bounded_pipeline(p, c, depth=depth)
    # ``==`` holds 0.0 == -0.0; ``repr`` tells the sign of zero apart.
    assert report == ref and repr(report) == repr(ref)


def light(rng, n, depth):
    # One bank serialises the phases: at depth 1 a regime holds only while
    # the lighter side takes no time.
    return rng.random(n) if depth > 1 else np.zeros(n)


class TestRegimeBlocks:
    N = 600

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_producer_bound_runs(self, depth, blocks):
        rng = np.random.default_rng(depth)
        p, c = 2.0 + rng.random(self.N), light(rng, self.N, depth)
        assert_bit_identical(p, c, depth)
        assert kept(blocks) >= 0.9 * self.N

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_consumer_bound_runs(self, depth, blocks):
        rng = np.random.default_rng(10 + depth)
        p, c = light(rng, self.N, depth), 2.0 + rng.random(self.N)
        assert_bit_identical(p, c, depth)
        assert kept(blocks) >= 0.9 * self.N

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_fuzz_random_regimes(self, depth, blocks):
        """Stretches of either regime, of random lengths and scales."""
        rng = np.random.default_rng(0x5E6 + depth)
        for _ in range(12):
            parts_p, parts_c = [], []
            for _ in range(int(rng.integers(1, 8))):
                n = int(rng.integers(1, 200))
                heavy = float(10 ** rng.integers(0, 4))
                light = rng.random(n) * heavy * rng.random()
                if rng.random() < 0.5:
                    parts_p.append(heavy * (1 + rng.random(n)))
                    parts_c.append(light)
                else:
                    parts_p.append(light)
                    parts_c.append(heavy * (1 + rng.random(n)))
            p, c = np.concatenate(parts_p), np.concatenate(parts_c)
            assert_bit_identical(p, c, depth)
        assert kept(blocks) > 0

    @pytest.mark.parametrize(
        "depth, p_period, c_period",
        # A strict flip at even depth is impossible: it forces a tie at
        # every switch (producer-bound at i needs prod_done[i] >=
        # cons_done[i-1], consumer-bound at i+1 needs the reverse).
        [(1, [0.0, 2.5], [0.0, 1.25]), (3, [1.25, 0.75], [0.0, 2.0])],
    )
    def test_regime_flips_every_granule(self, depth, p_period, c_period, blocks):
        p, c = np.tile(p_period, self.N // 2), np.tile(c_period, self.N // 2)
        flags = regimes(p, c, depth)[12:]
        assert {f & 3 for f in flags} == {1, 2}
        assert all(a & b & 3 == 0 for a, b in zip(flags, flags[1:]))
        assert_bit_identical(p, c, depth)
        assert blocks and max(k for _, _, k in blocks) <= 2

    @pytest.mark.parametrize(
        "depth, p_period, c_period",
        [
            # p == c: prod_done[i] == cons_done[i-1] on every granule (at
            # depth 1 a consumer that takes no time ties the same way).
            (1, [0.5], [0.0]),
            (2, [0.5], [0.5]),
            (3, [0.5], [0.5]),
            (4, [0.5], [0.5]),
            # Consumer-bound, the producer's bank freed as it finishes.
            (1, [0.0], [0.0, 1.5]),
            (2, [0.5], [0.5, 1.0]),
            (3, [0.5], [0.5, 1.0]),
            (4, [0.5, 1.5], [2.0, 0.5]),
        ],
    )
    def test_ties(self, depth, p_period, c_period, blocks):
        p, c = np.resize(p_period, self.N), np.resize(c_period, self.N)
        flags = regimes(p, c, depth)[12:]
        assert all(f & 3 for f in flags)
        assert sum(f >= 4 for f in flags) >= len(flags) // 3
        assert_bit_identical(p, c, depth)
        assert kept(blocks) >= 0.9 * self.N

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_zero_time_granules(self, depth, blocks):
        rng = np.random.default_rng(30 + depth)
        for zero in (0.0, -0.0):
            p, c = 2.0 + rng.random(self.N), rng.random(self.N)
            p[rng.random(self.N) < 0.2] = zero
            c[rng.random(self.N) < 0.2] = zero
            p[100:200] = zero  # a long zero stretch on each side
            c[300:400] = zero
            assert_bit_identical(p, c, depth)
            assert_bit_identical(c, p, depth)
        z = np.full(self.N, -0.0)
        assert_bit_identical(z, z, depth)
        assert kept(blocks) > 0

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_every_add_rounds(self, depth, blocks):
        """From 2**52 up a double has no fraction bits, so every ``+`` of a
        fractional time rounds and any reassociation would show."""
        rng = np.random.default_rng(40 + depth)
        for producer_heavy in (True, False):
            p, c = 0.5 + rng.random(self.N) * 7, light(rng, self.N, depth) * 3
            if not producer_heavy:
                p, c = c, p
            p[0] = 2.0**52
            assert_bit_identical(p, c, depth)
        assert kept(blocks) >= 0.75 * self.N

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_regime_break_on_a_block_edge(self, depth, blocks):
        """A producer-bound stretch, then a consumer-bound one, whose first
        granule out of the producer-bound regime falls exactly on each of
        the first block edges (8, 24 and 56 granules into the lane)."""
        rng = np.random.default_rng(50 + depth)
        # A tail producer faster than the head consumer: the consumer stops
        # waiting on the tail's first granule (at depth 1, on the next).
        head_p, head_c = 2.0 + rng.random(self.N), light(rng, self.N, depth)
        if depth > 1:
            head_c += 0.5
        tail_p, tail_c = light(rng, self.N, depth) / 2, 3.0 + rng.random(self.N)
        for edge in (8, 24, 56):
            for m in range(1, edge + 1):
                p = np.concatenate([head_p[:m], tail_p[m:]])
                c = np.concatenate([head_c[:m], tail_c[m:]])
                flags = regimes(p, c, depth)
                if all(f & 1 for f in flags[:edge]) and not flags[edge] & 1:
                    break
            else:
                pytest.fail(f"no lane breaks its regime on edge {edge}")
            blocks.clear()
            assert_bit_identical(p, c, depth)
            assert any(
                start + length == edge and k == length
                for start, length, k in blocks
            )

    def test_short_lanes_never_take_a_block(self, monkeypatch):
        called = []
        monkeypatch.setattr(pipeline_mod, "_block", lambda *a: called.append(1))
        rng = np.random.default_rng(60)
        n = pipeline_mod._MIN_TAIL - 1
        p, c = 2.0 + rng.random(n), rng.random(n)
        assert_bit_identical(p, c, 2)
        assert called == []


def test_accumulate_is_a_left_fold():
    """The premise of the regime blocks: ``np.add.accumulate`` adds left to
    right, one rounding per step, like the loop, never pairwise or
    reassociated, also in place."""
    rng = np.random.default_rng(0xF01D)
    x = rng.random(100_000) * 10.0 ** rng.integers(-3, 4, 100_000)
    x[::1000] = 2.0**52 + rng.integers(0, 9, 100)
    fold, total = [], 0.0
    for value in x.tolist():
        total += value
        fold.append(total)
    fold = np.array(fold)
    assert np.add.reduce(x) != fold[-1]  # rounding is heavy enough to tell
    got = np.add.accumulate(x)
    assert (got.view(np.int64) == fold.view(np.int64)).all()
    in_place = x.copy()
    np.add.accumulate(in_place, out=in_place)
    assert (in_place.view(np.int64) == fold.view(np.int64)).all()


def test_cora_float_lanes_run_in_blocks(monkeypatch):
    """On Cora's full space at 512 PEs, at least 80% of the granules of the
    fractional lanes advance in regime blocks, not one step at a time."""
    granules, kept = [], []
    report, block = pipeline_mod._loop_report, pipeline_mod._block

    def report_spy(p, *args):
        granules.append(len(p))
        monkeypatch.setattr(pipeline_mod, "_block", block_spy)
        try:
            return report(p, *args)
        finally:
            monkeypatch.setattr(pipeline_mod, "_block", block)

    def block_spy(*args):
        out = block(*args)
        kept.append(out[0])
        return out

    monkeypatch.setattr(pipeline_mod, "_loop_report", report_spy)
    ev = DataflowEvaluator(
        workload_from_dataset(load_dataset("cora")), AcceleratorConfig(num_pes=512)
    )
    ev.evaluate(design_space_stream(ev))
    assert sum(kept) >= 0.8 * sum(granules), (sum(kept), sum(granules))
