"""Tests for the dataflow selection service (`repro.serving`).

Covers the feature extractor, the Pareto index (against brute-force
scans), the service's hit/miss/coalesce/degrade paths, the serve spec,
and the asyncio HTTP front-end — plus the issue's acceptance criteria:
warm queries answer with zero cost-model evaluations, cold queries stay
within budget and persist records that make the next identical query
warm.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

import numpy as np
import pytest

from repro.analysis.pareto import pareto_frontier
from repro.analysis.store import ResultStore
from repro.campaign.spec import HardwarePoint
from repro.errors import BudgetExhausted, ReproError, ServiceError
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import dataset_names, load_dataset
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import (
    DataflowServer,
    DataflowService,
    ParetoIndex,
    ServeSpec,
    ServeSpecError,
    feature_distance,
    graph_features,
)
from repro.serving.index import record_hw_key, record_score

from oracles.serving import feature_vector_reference, lookup_reference


@pytest.fixture(scope="module")
def mutag_graph():
    return load_dataset("mutag").graph


def ring_graph(n: int = 8, name: str = "ring") -> CSRGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return CSRGraph.from_edges(n, edges, name=name)


def make_record(
    i: int,
    *,
    cycles: float,
    energy: float,
    digest: str = "d0",
    hw: str = "pes512",
    features: dict | None = None,
) -> dict:
    return {
        "fingerprint": f"fp{i}",
        "dataflow": f"DF{i}",
        "cycles": cycles,
        "energy": {"total_pj": energy},
        "graph_digest": digest,
        "hw": hw,
        "features": features
        or {
            "digest": digest,
            "V": 10,
            "E": 20,
            "avg_deg": 2.0,
            "max_deg": 4,
            "p99_deg": 3.0,
            "deg_cv": 0.5,
            "density": 0.2,
            "F": 8,
            "G": 8,
        },
    }


class TestFeatures:
    def test_same_graph_zero_distance(self, mutag_graph):
        a = graph_features(mutag_graph, in_features=8, out_features=16)
        b = graph_features(mutag_graph, in_features=8, out_features=16)
        assert a.digest == b.digest
        assert feature_distance(a, b) == 0.0

    def test_feature_extents_change_digest(self, mutag_graph):
        a = graph_features(mutag_graph, in_features=8, out_features=16)
        b = graph_features(mutag_graph, in_features=8, out_features=32)
        assert a.digest != b.digest
        assert feature_distance(a, b) > 0.0

    def test_different_graphs_positive_distance(self, mutag_graph):
        a = graph_features(mutag_graph, in_features=8, out_features=8)
        b = graph_features(ring_graph(64), in_features=8, out_features=8)
        assert feature_distance(a, b) > 0.0

    def test_similar_graphs_closer_than_dissimilar(self, mutag_graph):
        base = graph_features(ring_graph(64), in_features=8, out_features=8)
        near = graph_features(ring_graph(72), in_features=8, out_features=8)
        far = graph_features(mutag_graph, in_features=8, out_features=8)
        assert feature_distance(base, near) < feature_distance(base, far)

    def test_vector_and_dict_round_trip(self, mutag_graph):
        f = graph_features(mutag_graph, in_features=8, out_features=16)
        v = f.vector()
        assert v.shape == (9,)
        assert all(abs(x) < 1e9 for x in v)
        d = f.to_dict()
        assert d["F"] == 8 and d["G"] == 16
        assert d["digest"] == f.digest

    def test_repeat_extraction_returns_the_cached_object(self, mutag_graph):
        a = graph_features(mutag_graph, in_features=8, out_features=16)
        assert graph_features(mutag_graph, in_features=8, out_features=16) is a
        b = graph_features(mutag_graph, in_features=16, out_features=8)
        assert b is not a and b.digest != a.digest
        assert a.vector() is a.vector()

    def test_vector_is_the_nine_expressions_in_order(self, mutag_graph):
        for g in (mutag_graph, ring_graph(24)):
            f = graph_features(g, in_features=8, out_features=16)
            assert f.vector().tobytes() == feature_vector_reference(f).tobytes()

    def test_vector_is_read_only(self, mutag_graph):
        f_known = graph_features(ring_graph(16), in_features=8, out_features=8)
        f_query = graph_features(mutag_graph, in_features=8, out_features=8)
        index = ParetoIndex()
        index.add_records(
            [make_record(1, cycles=1, energy=1, digest=f_known.digest,
                         features=f_known.to_dict())]
        )
        before = index.nearest(f_query, "pes512", "cycles").distance
        for f in (f_query, index.entries()[0].features):
            with pytest.raises(ValueError):
                f.vector()[0] = 0.0
        after = index.nearest(f_query, "pes512", "cycles").distance
        assert after.hex() == before.hex()


class TestParetoIndex:
    def test_front_matches_brute_force(self):
        import random

        rng = random.Random(7)
        records = [
            make_record(i, cycles=rng.randint(100, 1000), energy=rng.randint(100, 1000))
            for i in range(60)
        ]
        index = ParetoIndex()
        index.add_records(records)
        (entry,) = index.entries()

        # Brute-force non-dominated scan over the raw records.
        def dominated(a, b):
            return (
                b["cycles"] <= a["cycles"]
                and b["energy"]["total_pj"] <= a["energy"]["total_pj"]
                and (
                    b["cycles"] < a["cycles"]
                    or b["energy"]["total_pj"] < a["energy"]["total_pj"]
                )
            )

        brute = {
            r["fingerprint"]
            for r in records
            if not any(dominated(r, o) for o in records)
        }
        front = {p.payload["fingerprint"] for p in entry.front}
        assert front == brute

    def test_best_matches_brute_force_per_objective(self):
        import random

        rng = random.Random(11)
        records = [
            make_record(i, cycles=rng.randint(100, 1000), energy=rng.randint(100, 1000))
            for i in range(40)
        ]
        index = ParetoIndex()
        index.add_records(records)
        (entry,) = index.entries()
        for objective in ("cycles", "energy", "edp"):
            best = entry.best(objective).payload
            expect = min(record_score(r, objective) for r in records)
            assert record_score(best, objective) == expect

    def test_incremental_add_equals_batch_add(self):
        import random

        rng = random.Random(3)
        records = [
            make_record(i, cycles=rng.randint(100, 1000), energy=rng.randint(100, 1000))
            for i in range(30)
        ]
        batch = ParetoIndex()
        batch.add_records(records)
        incr = ParetoIndex()
        for r in records:
            incr.add_records([r])
        key = lambda e: {p.payload["fingerprint"] for p in e.front}
        assert key(batch.entries()[0]) == key(incr.entries()[0])

    def test_exact_lookup_beats_nearest(self, mutag_graph):
        f_mutag = graph_features(mutag_graph, in_features=8, out_features=8)
        f_ring = graph_features(ring_graph(16), in_features=8, out_features=8)
        index = ParetoIndex()
        index.add_records(
            [
                make_record(
                    1, cycles=100, energy=100,
                    digest=f_mutag.digest, features=f_mutag.to_dict(),
                ),
                make_record(
                    2, cycles=50, energy=50,
                    digest=f_ring.digest, features=f_ring.to_dict(),
                ),
            ]
        )
        hit = index.lookup(f_mutag, "pes512", "cycles", max_distance=10.0)
        assert hit.exact and hit.distance == 0.0
        assert hit.record["fingerprint"] == "fp1"  # not the better-but-wrong-graph fp2

    def test_max_distance_bounds_fuzzy_hits(self, mutag_graph):
        f_known = graph_features(ring_graph(16), in_features=8, out_features=8)
        f_query = graph_features(mutag_graph, in_features=8, out_features=8)
        index = ParetoIndex()
        index.add_records(
            [make_record(1, cycles=1, energy=1, digest=f_known.digest,
                         features=f_known.to_dict())]
        )
        assert index.lookup(f_query, "pes512", "cycles", max_distance=0.0) is None
        near = index.nearest(f_query, "pes512", "cycles")
        assert near is not None and not near.exact and near.distance > 0.0

    def test_hw_keys_are_separate_entries(self):
        index = ParetoIndex()
        index.add_records(
            [
                make_record(1, cycles=100, energy=100, hw="pes512"),
                make_record(2, cycles=10, energy=10, hw="pes1024"),
            ]
        )
        assert len(index) == 2
        f = index.entries()[0].features
        hit = index.lookup(f, "pes512", "cycles", max_distance=0.0)
        assert hit.record["fingerprint"] == "fp1"

    def test_record_hw_key_shapes(self):
        assert record_hw_key({"num_pes": 512}) == "pes512"
        assert record_hw_key({"num_pes": 512, "bandwidth": 64}) == "pes512-bw64"
        assert record_hw_key({"hw": "edge-box", "num_pes": 512}) == "edge-box"

    def test_unresolvable_records_are_skipped(self):
        index = ParetoIndex()
        added = index.add_records([{"fingerprint": "x", "cycles": 5,
                                    "energy": {"total_pj": 5}}])
        assert added == 0
        assert index.skipped == 1 and len(index) == 0


def features_record(i, f, *, hw, cycles, energy) -> dict:
    return make_record(
        i, cycles=cycles, energy=energy, digest=f.digest, hw=hw,
        features=f.to_dict(),
    )


def assert_same_lookup(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.entry is want.entry
    assert got.point is want.point
    assert got.distance.hex() == want.distance.hex()
    assert got.exact == want.exact


class TestLookupOracle:
    """The per-hardware matrix lookup against the per-entry scan it
    replaced (``tests/oracles/serving.py``): same entry, same point, same
    distance bits."""

    HW_KEYS = ("pes256", "pes512", "pes1024")
    COLD_CELLS = tuple((f, g) for f in (8, 56, 392, 2744) for g in (2, 20, 200))

    def test_serve_mixed_shaped_schedule(self):
        rng = np.random.default_rng(3)
        index = ParetoIndex()
        layers = {}  # (kind, key) -> features
        campaign = []
        for name in dataset_names():
            exact = load_dataset(name)
            layers["exact", name] = graph_features(
                exact.graph, in_features=exact.num_features,
                out_features=exact.hidden,
            )
            for seed in (5, 23):
                near = load_dataset(name, seed=seed)
                layers["near", f"{name}@{seed}"] = graph_features(
                    near.graph, in_features=exact.num_features,
                    out_features=exact.hidden,
                )
            for pes in (256, 512, 1024):
                # Campaign records carry only the dataset name: the index
                # rebuilds the graph to resolve their features.
                for _ in range(4):
                    campaign.append({
                        "fingerprint": f"fp{len(campaign)}",
                        "dataflow": f"DF{len(campaign)}",
                        "dataset": name,
                        "F": exact.num_features,
                        "G": exact.hidden,
                        "num_pes": pes,
                        "cycles": float(rng.integers(100, 1000)),
                        "energy": {"total_pj": float(rng.integers(100, 1000))},
                    })
        index.add_records(campaign)
        assert len(index) == 21
        for hw in self.HW_KEYS:
            for f, g in self.COLD_CELLS:
                vertices = int(rng.integers(48, 129))
                graph = erdos_renyi_graph(
                    rng, vertices, int(vertices * rng.uniform(2.0, 8.0))
                )
                layers["cold", f"{hw}-{f}x{g}"] = graph_features(
                    graph, in_features=f, out_features=g
                )
        schedule = [
            (kind, key, hw, objective)
            for (kind, key) in layers
            for hw in (
                [key.split("-")[0]] if kind == "cold" else self.HW_KEYS
            )
            for objective in ("cycles", "energy", "edp")
        ]
        schedule = [schedule[i] for i in rng.permutation(len(schedule))]

        non_exact = live = 0
        for kind, key, hw, objective in schedule:
            f = layers[kind, key]
            answers = []
            for max_distance in (0.5, None):
                got = index.lookup(f, hw, objective, max_distance=max_distance)
                want = lookup_reference(
                    index, f, hw, objective, max_distance=max_distance
                )
                assert_same_lookup(got, want)
                non_exact += got is not None and not got.exact
                answers.append(got)
            if answers[0] is None:
                # A cold miss runs a live search, whose records the index
                # must serve on the very next lookup.
                live += 1
                index.add_records([
                    features_record(
                        1000 + 10 * live + k, f, hw=hw,
                        cycles=float(rng.integers(100, 1000)),
                        energy=float(rng.integers(100, 1000)),
                    )
                    for k in range(3)
                ])
                hit = index.lookup(f, hw, objective, max_distance=0.0)
                assert hit is not None and hit.exact
        # Every cold graph misses once; every near graph is a near hit
        # (2 per dataset x 3 hw keys x 3 objectives x 2 cuts), and so is
        # each cold graph's unbounded lookup before its live search.
        assert live == 36
        assert non_exact == 14 * 3 * 3 * 2 + 36

    def test_nan_feature_never_wins(self):
        nan = dict(make_record(0, cycles=1, energy=1)["features"])
        nan.update(digest="nan", deg_cv=math.nan)
        far = dict(nan, digest="far", deg_cv=5.0, V=1000)
        index = ParetoIndex()
        index.add_records([make_record(1, cycles=1, energy=1, digest="nan",
                                       features=nan)])
        query = graph_features(ring_graph(10), in_features=8, out_features=8)
        assert index.nearest(query, "pes512", "cycles") is None
        assert lookup_reference(index, query, "pes512") is None
        index.add_records([make_record(2, cycles=1, energy=1, digest="far",
                                       features=far)])
        hit = index.nearest(query, "pes512", "cycles")
        assert hit.entry.features.digest == "far"
        assert_same_lookup(hit, lookup_reference(index, query, "pes512"))

    def test_exact_tie_goes_to_first_inserted(self):
        base = make_record(0, cycles=1, energy=1)["features"]
        index = ParetoIndex()
        for i, digest in enumerate(("first", "second", "third")):
            index.add_records([make_record(
                i, cycles=10 - i, energy=10 - i, digest=digest,
                features=dict(base, digest=digest),
            )])
        query = graph_features(ring_graph(10), in_features=8, out_features=8)
        hit = index.nearest(query, "pes512", "cycles")
        assert hit.entry.features.digest == "first"
        assert_same_lookup(hit, lookup_reference(index, query, "pes512"))

    def test_distance_equal_to_max_distance_is_a_hit(self):
        f_known = graph_features(ring_graph(16), in_features=8, out_features=8)
        query = graph_features(ring_graph(40), in_features=8, out_features=8)
        index = ParetoIndex()
        index.add_records([features_record(1, f_known, hw="pes512",
                                           cycles=1, energy=1)])
        d = index.nearest(query, "pes512", "cycles").distance
        assert d > 0.0
        hit = index.lookup(query, "pes512", "cycles", max_distance=d)
        assert hit is not None and hit.distance == d
        below = float(np.nextafter(d, 0.0))
        assert index.lookup(query, "pes512", "cycles", max_distance=below) is None

    def test_hw_key_without_entries_misses(self):
        index = ParetoIndex()
        query = graph_features(ring_graph(10), in_features=8, out_features=8)
        assert index.nearest(query, "pes512", "cycles") is None
        index.add_records([make_record(1, cycles=1, energy=1, hw="pes1024")])
        assert index.nearest(query, "pes512", "cycles") is None
        # An entry whose front is empty (no finite energy) answers nothing.
        index.add_records([make_record(2, cycles=1, energy=math.inf,
                                       digest="empty", hw="pes256")])
        assert index.nearest(query, "pes256", "cycles") is None
        assert lookup_reference(index, query, "pes256") is None

    def test_entry_added_after_a_lookup_is_seen(self):
        f_far = graph_features(ring_graph(16), in_features=8, out_features=8)
        f_near = graph_features(ring_graph(60), in_features=8, out_features=8)
        query = graph_features(ring_graph(64), in_features=8, out_features=8)
        index = ParetoIndex()
        index.add_records([features_record(1, f_far, hw="pes512",
                                           cycles=1, energy=1)])
        first = index.nearest(query, "pes512", "cycles")
        assert first.entry.features.digest == f_far.digest
        index.add_records([features_record(2, f_near, hw="pes512",
                                           cycles=5, energy=5)])
        second = index.nearest(query, "pes512", "cycles")
        assert second.entry.features.digest == f_near.digest
        assert second.distance < first.distance
        assert_same_lookup(second, lookup_reference(index, query, "pes512"))

    def test_unknown_objective_is_rejected(self):
        index = ParetoIndex()
        index.add_records([make_record(1, cycles=1, energy=1)])
        (entry,) = index.entries()
        with pytest.raises(ValueError, match="unknown objective"):
            entry.best("latency")


class TestDataflowService:
    def test_cold_then_warm(self, tmp_path, mutag_graph):
        with DataflowService(store=tmp_path / "s.jsonl", live_budget=8) as svc:
            cold = svc.query(mutag_graph, in_features=8, out_features=8)
            assert cold.source == "live"
            assert 0 < cold.evals <= 8
            warm = svc.query(mutag_graph, in_features=8, out_features=8)
            assert warm.source == "index"
            assert warm.evals == 0 and warm.exact
            assert warm.dataflow  # a real notation string
            stats = svc.stats()
            assert stats["queries"] == 2
            assert stats["index_hits"] == 1
            assert stats["live_searches"] == 1

    def test_workers_keyword_accepts_only_zero(self, tmp_path):
        # Every evaluation runs in-process; the keyword stays for callers
        # that pass workers=0.
        with DataflowService(store=tmp_path / "s.jsonl", workers=0):
            pass
        for workers in (1, 2, -1):
            with pytest.raises(ServiceError, match="workers must be 0"):
                DataflowService(store=tmp_path / "s.jsonl", workers=workers)

    def test_restart_from_store_is_warm(self, tmp_path, mutag_graph):
        path = tmp_path / "s.jsonl"
        with DataflowService(store=path, live_budget=8) as svc:
            svc.query(mutag_graph, in_features=8, out_features=8)

        with DataflowService(store=path, live_budget=8) as svc2:
            res = svc2.query(mutag_graph, in_features=8, out_features=8)
            assert res.source == "index" and res.evals == 0
            # Acceptance: zero cost-model evaluations across the session.
            assert svc2.session.stats.evaluated == 0

    def test_miss_persists_for_next_service(self, tmp_path, mutag_graph):
        path = tmp_path / "s.jsonl"
        with DataflowService(store=path, live_budget=6) as svc:
            cold = svc.query(mutag_graph, in_features=8, out_features=8)
        records = ResultStore.snapshot(path).records
        assert len(records) == cold.evals
        assert all(r["graph_digest"] == cold.features.digest for r in records)
        assert all("features" in r for r in records)

    def test_objective_validation(self, tmp_path, mutag_graph):
        with DataflowService(store=tmp_path / "s.jsonl") as svc:
            with pytest.raises(ServiceError):
                svc.query(mutag_graph, in_features=8, out_features=8,
                          objective="latency")
        with pytest.raises(ServiceError):
            DataflowService(store=tmp_path / "s2.jsonl", objective="nope")
        with pytest.raises(ServiceError):
            DataflowService(store=tmp_path / "s3.jsonl", live_budget=0)

    def test_query_after_close_raises(self, tmp_path, mutag_graph):
        svc = DataflowService(store=tmp_path / "s.jsonl")
        svc.close()
        with pytest.raises(ServiceError):
            svc.query(mutag_graph, in_features=8, out_features=8)
        svc.close()  # idempotent

    def test_per_request_objective_uses_same_front(self, tmp_path, mutag_graph):
        with DataflowService(store=tmp_path / "s.jsonl", live_budget=9) as svc:
            svc.query(mutag_graph, in_features=8, out_features=8)
            for objective in ("cycles", "energy", "edp"):
                res = svc.query(mutag_graph, in_features=8, out_features=8,
                                objective=objective)
                assert res.evals == 0 and res.objective == objective

    def test_attach_snapshot_serves_concurrent_writer(self, tmp_path, mutag_graph):
        """A service attached read-only to a store another service is
        writing answers warm after refresh() without touching the file."""
        path = tmp_path / "live.jsonl"
        with DataflowService(store=path, live_budget=6) as writer:
            reader = DataflowService(attach=[path], max_staleness=None)
            try:
                assert len(reader.index) == 0
                writer.query(mutag_graph, in_features=8, out_features=8)
                assert reader.refresh() > 0
                res = reader.query(mutag_graph, in_features=8, out_features=8)
                assert res.source == "index" and res.evals == 0
                assert reader.session.stats.evaluated == 0
            finally:
                reader.close()

    def test_budget_exhausted_without_fallback(self, tmp_path, mutag_graph,
                                               monkeypatch):
        from repro.serving import service as service_mod

        def empty_stream(self, *a, **k):
            return iter(())

        monkeypatch.setattr(
            service_mod.MappingOptimizer, "candidate_stream", empty_stream
        )
        with DataflowService(store=tmp_path / "s.jsonl", live_budget=4) as svc:
            with pytest.raises(BudgetExhausted):
                svc.query(mutag_graph, in_features=8, out_features=8)

    def test_degraded_falls_back_to_nearest_known(self, tmp_path, mutag_graph,
                                                  monkeypatch):
        from repro.serving import service as service_mod

        path = tmp_path / "s.jsonl"
        with DataflowService(store=path, live_budget=6,
                             max_distance=0.0) as seeded:
            seeded.query(ring_graph(16), in_features=8, out_features=8)

        monkeypatch.setattr(
            service_mod.MappingOptimizer, "candidate_stream",
            lambda self, *a, **k: iter(()),
        )
        with DataflowService(store=path, max_distance=0.0) as svc:
            res = svc.query(mutag_graph, in_features=8, out_features=8)
            assert res.source == "degraded"
            assert not res.exact and res.distance > 0.0
            assert svc.stats()["degraded"] == 1


class TestConcurrency:
    def test_identical_concurrent_misses_coalesce(self, tmp_path, mutag_graph):
        """N clients cold-querying the same workload trigger exactly one
        live search; followers answer from the freshly warmed index."""
        n = 8
        with DataflowService(store=tmp_path / "s.jsonl", live_budget=6) as svc:
            results: list = [None] * n
            barrier = threading.Barrier(n)

            def client(i: int) -> None:
                barrier.wait()
                results[i] = svc.query(mutag_graph, in_features=8, out_features=8)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert all(r is not None for r in results)
            # Same objective score everywhere (the live leader and the
            # index may break exact ties differently, so compare scores).
            assert len({r.score for r in results}) == 1
            stats = svc.stats()
            assert stats["live_searches"] == 1
            # One search's worth of model runs, no duplicates: exactly
            # one leader reports evals, every follower reports zero.
            leader_evals = [r.evals for r in results if r.evals > 0]
            assert len(leader_evals) == 1
            assert stats["session"]["evaluated"] == leader_evals[0]
            # Every follower ends up answering from the warmed index,
            # whether it waited on the leader (coalesced) or arrived
            # after the leader had already finished.
            assert stats["index_hits"] == n - 1
            assert stats["coalesced"] <= n - 1

    def test_concurrent_store_byte_identical_to_serial(self, tmp_path, mutag_graph):
        serial = tmp_path / "serial.jsonl"
        with DataflowService(store=serial, live_budget=6) as svc:
            svc.query(mutag_graph, in_features=8, out_features=8)

        fuzz = tmp_path / "fuzz.jsonl"
        with DataflowService(store=fuzz, live_budget=6) as svc:
            barrier = threading.Barrier(6)

            def client() -> None:
                barrier.wait()
                svc.query(mutag_graph, in_features=8, out_features=8)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert fuzz.read_bytes() == serial.read_bytes()

    def test_mixed_workload_fuzz(self, tmp_path):
        """Clients hammer distinct and shared workloads concurrently; the
        total evaluation count equals the sum of each unique workload's
        single cold search (misses never duplicate work)."""
        graphs = [ring_graph(12, "g12"), ring_graph(20, "g20"),
                  ring_graph(28, "g28")]
        with DataflowService(store=tmp_path / "s.jsonl", live_budget=5,
                             max_distance=0.0) as svc:
            barrier = threading.Barrier(9)
            errors: list = []

            def client(g: CSRGraph) -> None:
                barrier.wait()
                try:
                    for _ in range(3):
                        svc.query(g, in_features=8, out_features=8)
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(g,))
                for g in graphs for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors
            stats = svc.stats()
            assert stats["live_searches"] == len(graphs)
            per_graph = {
                e.features.digest: len(e.front) for e in svc.index.entries()
            }
            assert len(per_graph) == len(graphs)
            # Each unique workload was cold exactly once; everything else
            # came from the index or coalesced onto the leader.  The
            # budget caps *legal* evaluations per search (illegal
            # candidates cost a model run but persist only as errors).
            assert stats["queries"] == 27
            assert stats["session"]["persisted"] <= 5 * len(graphs)


class TestServeSpec:
    def test_round_trip(self, tmp_path):
        spec = ServeSpec(name="svc", store="runs/a.jsonl",
                         attach=["runs/b.jsonl"], objective="edp", port=0)
        path = spec.save(tmp_path / "spec.json")
        loaded = ServeSpec.load(path)
        assert loaded == spec

    def test_needs_a_store(self):
        with pytest.raises(ServeSpecError):
            ServeSpec(name="svc").validate()

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServeSpecError):
            ServeSpec.from_dict({"name": "svc", "store": "s.jsonl",
                                 "livebudget": 4})
        # ``workers`` is not a spec field: evaluation runs in-process.
        with pytest.raises(ServeSpecError, match="workers"):
            ServeSpec.from_dict({"name": "svc", "store": "s.jsonl",
                                 "workers": 0})

    def test_validation_errors(self):
        base = dict(name="svc", store="s.jsonl")
        for bad in (
            {"objective": "latency"},
            {"strategy": "annealing"},
            {"live_budget": 0},
            {"max_distance": -1.0},
            {"port": 70000},
            {"timeout": 0},
            {"max_queue": 0},
        ):
            with pytest.raises(ServeSpecError):
                ServeSpec(**base, **bad).validate()

    def test_port_zero_is_legal(self):
        ServeSpec(name="svc", store="s.jsonl", port=0).validate()

    def test_spec_error_is_repro_and_value_error(self):
        err = ServeSpecError("boom")
        assert isinstance(err, ReproError) and isinstance(err, ValueError)


async def _http(host: str, port: int, method: str, path: str,
                body: dict | None = None) -> tuple[int, dict]:
    payload = b"" if body is None else json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    status = int(head_part.split(b" ", 2)[1])
    return status, json.loads(body_part) if body_part else {}


class TestFrontend:
    @pytest.fixture()
    def server(self, tmp_path):
        """A started DataflowServer on a free port, inside a fresh loop."""
        service = DataflowService(store=tmp_path / "s.jsonl", live_budget=6)
        server = DataflowServer(service, host="127.0.0.1", port=0,
                                timeout=30.0, max_queue=4, name="test")
        yield server
        service.close()

    def run(self, server, scenario):
        async def main():
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_healthz_and_stats(self, server):
        async def scenario(srv):
            status, health = await _http(srv.host, srv.port, "GET", "/healthz")
            assert status == 200 and health["ok"]
            status, stats = await _http(srv.host, srv.port, "GET", "/stats")
            assert status == 200 and stats["frontend"]["requests"] >= 1
            return True

        assert self.run(server, scenario)

    def test_query_cold_then_warm_over_http(self, server):
        async def scenario(srv):
            body = {"dataset": "mutag"}
            status, cold = await _http(srv.host, srv.port, "POST", "/query", body)
            assert status == 200
            assert cold["source"] == "live" and cold["evals"] > 0
            status, warm = await _http(srv.host, srv.port, "POST", "/query", body)
            assert status == 200
            assert warm["source"] == "index" and warm["evals"] == 0
            assert warm["dataflow"] == cold["dataflow"] or warm["exact"]
            assert warm["latency_ms"] < 100.0
            return True

        assert self.run(server, scenario)

    def test_inline_graph_query(self, server):
        async def scenario(srv):
            body = {
                "graph": {
                    "num_vertices": 6,
                    "edges": [[i, (i + 1) % 6] for i in range(6)],
                    "name": "ring6",
                },
                "in_features": 4,
                "out_features": 4,
            }
            status, res = await _http(srv.host, srv.port, "POST", "/query", body)
            assert status == 200 and res["source"] == "live"
            return True

        assert self.run(server, scenario)

    def test_bad_requests_get_400(self, server):
        async def scenario(srv):
            status, err = await _http(srv.host, srv.port, "POST", "/query", {})
            assert status == 400 and "error" in err
            status, _ = await _http(srv.host, srv.port, "POST", "/query",
                                    {"dataset": "mutag",
                                     "graph": {"num_vertices": 1, "edges": []}})
            assert status == 400
            status, _ = await _http(srv.host, srv.port, "POST", "/query",
                                    {"dataset": "no-such-dataset"})
            assert status == 400
            status, _ = await _http(srv.host, srv.port, "GET", "/no-such-route")
            assert status == 404
            return True

        assert self.run(server, scenario)

    def test_port_zero_binds_a_real_port(self, server):
        async def scenario(srv):
            assert srv.port != 0
            return srv.port

        assert self.run(server, scenario) > 0


class TestAcceptance:
    """The issue's acceptance criteria, end to end."""

    def test_warm_citeseer_store_zero_evals(self, tmp_path):
        """A service preloaded with a campaign store over CiteSeer answers
        a CiteSeer query with zero cost-model evaluations."""
        import repro

        store_path = tmp_path / "campaign.jsonl"
        repro.sweep("citeseer", store=store_path)

        ds = load_dataset("citeseer")
        with DataflowService(attach=[store_path]) as svc:
            res = svc.query(ds.graph, in_features=ds.num_features,
                            out_features=ds.hidden, name="citeseer")
            assert res.source == "index"
            assert res.evals == 0
            assert svc.session.stats.evaluated == 0
            assert res.dataflow

    def test_cold_query_bounded_then_warm(self, tmp_path):
        budget = 5
        g = ring_graph(24, "cold-ring")
        path = tmp_path / "s.jsonl"
        with DataflowService(store=path, live_budget=budget) as svc:
            cold = svc.query(g, in_features=8, out_features=8)
            assert cold.source == "live"
            assert cold.evals <= budget
            # Legal outcomes persist as records; illegal ones go to the
            # error sidecar, so the store holds at most `evals` records.
            assert 0 < len(ResultStore.snapshot(path)) <= cold.evals
            warm = svc.query(g, in_features=8, out_features=8)
            assert warm.source == "index" and warm.evals == 0
