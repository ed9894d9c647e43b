"""CandidateStream equivalence: lazy pipelines vs the historical eager lists.

The optimizer's three search strategies (the Table V ``paper`` baseline,
``exhaustive``, and ``random``) historically built full candidate lists
before evaluating.  They now flow through lazy
:class:`~repro.core.evaluator.CandidateStream` pipelines; these tests fuzz
workloads, hardware points, and seeds to prove the streams yield the
**identical fingerprint sequence** (hence multiset) the eager lists
produced, plus the stream-specific contracts: re-iterability, laziness,
and cross-context fingerprint safety.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.arch.config import AcceleratorConfig
from repro.core.configs import PAPER_CONFIGS
from repro.core.enumeration import design_space_stream
from repro.core.evaluator import CandidateStream, DataflowEvaluator, StreamedCandidate
from repro.core.optimizer import MappingOptimizer, paper_config_stream
from repro.core.workload import GNNWorkload
from repro.graphs.generators import erdos_renyi_graph, molecular_graph


def fuzz_workloads():
    """A few structurally different random workloads (deterministic)."""
    out = []
    for seed, (maker, v, e) in enumerate(
        [
            (erdos_renyi_graph, 30, 140),
            (erdos_renyi_graph, 48, 260),
            (molecular_graph, 40, 110),
        ]
    ):
        rng = np.random.default_rng(1000 + seed)
        graph = maker(rng, v, e, name=f"fuzz{seed}")
        out.append(
            GNNWorkload(
                graph,
                in_features=int(rng.integers(8, 40)),
                out_features=int(rng.integers(4, 16)),
                name=f"fuzz{seed}",
            )
        )
    return out


FUZZ_WORKLOADS = fuzz_workloads()
FUZZ_HW = [AcceleratorConfig(num_pes=64), AcceleratorConfig(num_pes=256)]


def eager_fingerprints(ev: DataflowEvaluator, candidates) -> list[str]:
    """What the pre-stream code did: materialize, then fingerprint."""
    out = []
    for candidate in candidates:
        df, spec = candidate[0], candidate[1]
        out.append(ev.fingerprint(df, spec))
    return out


@pytest.mark.parametrize("wl", FUZZ_WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("hw", FUZZ_HW, ids=lambda h: f"pes{h.num_pes}")
class TestStreamMatchesEagerLists:
    def test_paper_strategy(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        eager = [
            (cfg.dataflow(), cfg.hint, {"config": name})
            for name, cfg in PAPER_CONFIGS.items()
        ]
        expected = eager_fingerprints(opt.evaluator, eager)
        stream = opt.candidate_stream("paper")
        assert list(stream.fingerprints()) == expected

    def test_exhaustive_strategy(self, wl, hw):
        opt = MappingOptimizer(wl, hw)
        eager = list(opt._seq_candidates()) + list(opt._pipeline_candidates())
        expected = eager_fingerprints(opt.evaluator, eager)
        stream = opt.candidate_stream("exhaustive")
        assert list(stream.fingerprints()) == expected
        # multiset equality is implied, but make the satellite claim
        # explicit: nothing was dropped or duplicated along the way
        assert sorted(stream.fingerprints()) == sorted(expected)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("n", [1, 17, 10_000])
    def test_random_strategy(self, wl, hw, seed, n):
        opt = MappingOptimizer(wl, hw)
        # The historical eager draw: materialize the pool, then index.
        pool = list(opt._pipeline_candidates()) + list(opt._seq_candidates())
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
        expected = eager_fingerprints(
            opt.evaluator, (pool[i] for i in idx)
        )
        stream = opt.candidate_stream("random", n=n, seed=seed)
        assert list(stream.fingerprints()) == expected


class TestStreamContracts:
    @pytest.fixture
    def ev(self):
        ev = DataflowEvaluator(FUZZ_WORKLOADS[0], FUZZ_HW[0])
        yield ev

    def test_streams_are_reiterable(self, ev):
        wl, hw = FUZZ_WORKLOADS[0], FUZZ_HW[0]
        opt = MappingOptimizer(wl, hw, session=ev.session)
        stream = opt.candidate_stream("exhaustive")
        assert list(stream.fingerprints()) == list(stream.fingerprints())

    def test_streams_are_lazy(self, ev):
        """Pulling k candidates must not walk the whole source."""
        produced = []

        def source():
            for name, cfg in PAPER_CONFIGS.items():
                produced.append(name)
                yield cfg.dataflow(), cfg.hint

        stream = ev.stream(source)
        first_three = list(itertools.islice(stream, 3))
        assert len(first_three) == 3
        assert all(isinstance(c, StreamedCandidate) for c in first_three)
        assert len(produced) == 3

    def test_evaluate_accepts_stream_and_budget(self, ev):
        stream = paper_config_stream(ev)
        outcomes = ev.evaluate(stream, budget=4)
        assert sum(o.ok for o in outcomes) == 4
        # fingerprints came through unchanged from the stream
        expected = [c.fingerprint for c in itertools.islice(stream, 4)]
        assert [o.fingerprint for o in outcomes[:4]] == expected

    def test_stream_results_match_plain_tuples(self, ev):
        eager = [
            (cfg.dataflow(), cfg.hint, {"config": name})
            for name, cfg in PAPER_CONFIGS.items()
        ]
        plain = ev.evaluate(eager)
        streamed = ev.evaluate(paper_config_stream(ev))
        assert [o.fingerprint for o in plain] == [o.fingerprint for o in streamed]
        assert [o.cycles for o in plain] == [o.cycles for o in streamed]
        assert [o.extra for o in plain] == [o.extra for o in streamed]

    def test_foreign_context_fingerprints_are_recomputed(self):
        """A stream built for one (workload, hw) context must not leak its
        fingerprints into another context's memo."""
        wl = FUZZ_WORKLOADS[0]
        ev_a = DataflowEvaluator(wl, FUZZ_HW[0])
        ev_b = DataflowEvaluator(wl, FUZZ_HW[1])
        stream_a = paper_config_stream(ev_a)
        outcomes_b = ev_b.evaluate(list(stream_a))
        fps_a = list(stream_a.fingerprints())
        fps_b = [o.fingerprint for o in outcomes_b]
        assert fps_a != fps_b  # different hardware, different hashes
        direct_b = [
            ev_b.fingerprint(cfg.dataflow(), cfg.hint)
            for cfg in PAPER_CONFIGS.values()
        ]
        assert fps_b == direct_b


class TestDesignSpaceStream:
    def test_full_space_streams_lazily_and_uniquely(self):
        wl, hw = FUZZ_WORKLOADS[0], FUZZ_HW[0]
        ev = DataflowEvaluator(wl, hw)
        stream = design_space_stream(ev)
        # lazy: the first few candidates cost a few candidates of work
        head = list(itertools.islice(stream, 5))
        assert len(head) == 5
        fps = list(stream.fingerprints())
        # the paper's 6,656 choices, each with a distinct fingerprint
        assert len(fps) == 6656
        assert len(set(fps)) == 6656
