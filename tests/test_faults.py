"""Tests for repro.faults: plans, the injector, every seam, the harness.

The contract under test: a :class:`FaultPlan` is a fingerprinted value
whose triggers fire deterministically; every instrumented seam actually
enacts its kinds; the hardening the faults exercise (mid-file
quarantine, torn-append heal, checkpoint heal, fleet retry budget,
queue shed with Retry-After) behaves; and the chaos harness's
kill-at-every-heartbeat sweep holds all three invariants on the 4-unit
example spec.
"""

from __future__ import annotations

import errno
import json
from pathlib import Path

import pytest

from repro.analysis.store import ResultStore
from repro.campaign.runner import CampaignCheckpoint
from repro.cli import main
from repro.distributed import DistributedCoordinator
from repro.distributed.coordinator import load_coordinator_state
from repro.errors import BudgetExhausted, DistributedError
from repro.faults import injector as fault_injector
from repro.faults.harness import run_harness
from repro.faults.injector import (
    LOG_ENV,
    PLAN_ENV,
    FaultAction,
    FaultInjector,
    InjectedFault,
    activate,
    deactivate,
    default_log_path,
    fault_point,
    read_events,
)
from repro.faults.plan import (
    FAULT_SCENARIOS,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultTrigger,
    random_plan,
    scenario_plan,
)
from repro.serving.service import DataflowService

EXAMPLE_SPEC = Path(__file__).resolve().parent.parent / (
    "examples/campaign_table5_grid.json"
)


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan may leak into (or out of) a test: the env vars are
    inherited by every subprocess other tests spawn."""
    deactivate()
    fault_injector._reset_for_tests()
    yield
    deactivate()
    fault_injector._reset_for_tests()


def rec(i: int, **extra) -> dict:
    base = {"fingerprint": f"fp{i}", "cycles": 100 + i, "config": f"C{i}"}
    base.update(extra)
    return base


def one_site_plan(site: str, kind: str, *, seed: int = 0, **fields) -> FaultPlan:
    return FaultPlan.build(seed, {site: {"kind": kind, **fields}})


# ----------------------------------------------------------------------
# FaultPlan: the fingerprinted value
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_round_trip_through_file(self, tmp_path):
        plan = scenario_plan("torn-append", seed=7)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.fingerprint() == plan.fingerprint()

    def test_fingerprint_mismatch_rejected(self):
        data = scenario_plan("worker-kill").to_dict()
        data["sites"]["worker.heartbeat"]["after"] = 99
        with pytest.raises(FaultPlanError, match="edited by hand"):
            FaultPlan.from_dict(data)

    def test_fingerprint_ignores_site_order(self):
        triggers = {
            "store.append": {"kind": "torn_write"},
            "checkpoint.mark": {"kind": "torn_write"},
        }
        forward = FaultPlan.build(3, triggers)
        backward = FaultPlan.build(3, dict(reversed(list(triggers.items()))))
        assert forward.fingerprint() == backward.fingerprint()
        assert [s for s, _ in forward.sites] == sorted(triggers)

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultPlan.build(0, {"store.teleport": {"kind": "raise"}})

    def test_kind_site_mismatch_rejected(self):
        with pytest.raises(FaultPlanError, match="cannot enact"):
            FaultPlan.build(0, {"store.append": {"kind": "kill"}})

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"after": 0}, "'after'"),
            ({"times": 0}, "'times'"),
            ({"p": 0.0}, "'p'"),
            ({"p": 1.5}, "'p'"),
            ({"seconds": -1}, "'seconds'"),
            ({"zorp": 1}, "unknown fields"),
        ],
    )
    def test_bad_trigger_fields_rejected(self, fields, match):
        with pytest.raises(FaultPlanError, match=match):
            FaultPlan.build(0, {"store.append": {"kind": "torn_write", **fields}})

    def test_trigger_defaults(self):
        trig = FaultTrigger.from_dict("store.append", {"kind": "torn_write"})
        assert (trig.after, trig.times, trig.p) == (1, 1, None)

    def test_times_null_is_unlimited(self):
        trig = FaultTrigger.from_dict(
            "serving.live_search", {"kind": "raise", "times": None}
        )
        assert trig.times is None

    def test_site_seed_deterministic_and_site_dependent(self):
        plan = scenario_plan("torn-append", seed=5)
        twin = scenario_plan("torn-append", seed=5)
        assert plan.site_seed("store.append") == twin.site_seed("store.append")
        assert plan.site_seed("store.append") != plan.site_seed(
            "checkpoint.mark"
        )
        draws = [plan.site_rng("store.append").random() for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]

    def test_every_scenario_builds(self):
        for name in FAULT_SCENARIOS:
            plan = scenario_plan(name, seed=2)
            for site, trig in plan.sites:
                assert trig.kind in SITES[site]
        with pytest.raises(FaultPlanError, match="unknown fault scenario"):
            scenario_plan("meteor-strike")

    def test_random_plan_is_pure_in_seed(self):
        assert random_plan(42) == random_plan(42)
        fingerprints = {random_plan(s).fingerprint() for s in range(10)}
        assert len(fingerprints) > 1  # seeds actually vary the draw


# ----------------------------------------------------------------------
# Injector semantics (direct, no env)
# ----------------------------------------------------------------------

class TestInjector:
    def test_after_and_times_budget(self, tmp_path):
        plan = one_site_plan("serving.live_search", "raise", after=2, times=1)
        inj = FaultInjector(plan, tmp_path / "log.jsonl")
        assert inj.check("serving.live_search") is None  # hit 1 < after
        with pytest.raises(InjectedFault) as exc:
            inj.check("serving.live_search")  # hit 2 fires
        assert (exc.value.site, exc.value.kind, exc.value.hit) == (
            "serving.live_search", "raise", 2,
        )
        assert inj.check("serving.live_search") is None  # budget spent
        events = read_events(tmp_path / "log.jsonl")
        assert len(events) == 1
        assert events[0]["site"] == "serving.live_search"
        assert events[0]["plan"] == plan.fingerprint()

    def test_unlisted_site_is_free(self, tmp_path):
        inj = FaultInjector(
            one_site_plan("serving.live_search", "raise"), tmp_path / "log.jsonl"
        )
        assert inj.check("store.append") is None

    def test_cooperative_kind_returns_action(self, tmp_path):
        inj = FaultInjector(
            one_site_plan("store.append", "torn_write"), tmp_path / "log.jsonl"
        )
        act = inj.check("store.append")
        assert isinstance(act, FaultAction)
        assert (act.site, act.kind) == ("store.append", "torn_write")
        with pytest.raises(InjectedFault):
            act.raise_injected()

    def test_journal_budget_survives_new_injector(self, tmp_path):
        """A relaunched process (new injector, same journal) must not
        re-fire a spent single-fire trigger — the anti-crash-loop rule."""
        plan = one_site_plan("worker.heartbeat", "delay", seconds=0.0)
        log = tmp_path / "log.jsonl"
        first = FaultInjector(plan, log)
        assert first.check("worker.heartbeat") is None  # delay fires (sleep 0)
        assert len(read_events(log)) == 1
        second = FaultInjector(plan, log)
        for _ in range(3):
            assert second.check("worker.heartbeat") is None
        assert len(read_events(log)) == 1  # never re-fired

    def test_probability_is_seeded(self, tmp_path):
        plan = one_site_plan("store.append", "torn_write", p=0.5, times=None)

        def pattern(log_name: str) -> list[bool]:
            inj = FaultInjector(plan, tmp_path / log_name)
            return [inj.check("store.append") is not None for _ in range(32)]

        first, second = pattern("a.jsonl"), pattern("b.jsonl")
        assert first == second
        assert any(first) and not all(first)  # p actually gates

    def test_io_error_and_enospc_errnos(self, tmp_path):
        inj = FaultInjector(
            one_site_plan("store.error_append", "io_error", errno=errno.EROFS),
            tmp_path / "a.jsonl",
        )
        with pytest.raises(OSError) as exc:
            inj.check("store.error_append")
        assert exc.value.errno == errno.EROFS
        inj = FaultInjector(
            one_site_plan("store.append", "enospc"), tmp_path / "b.jsonl"
        )
        with pytest.raises(OSError) as exc:
            inj.check("store.append")
        assert exc.value.errno == errno.ENOSPC

    def test_activate_env_round_trip(self, tmp_path):
        plan = one_site_plan("store.append", "torn_write")
        log = tmp_path / "fires.jsonl"
        activate(plan, log_path=log)
        import os

        assert Path(os.environ[PLAN_ENV]).exists()
        assert os.environ[LOG_ENV] == str(log)
        act = fault_point("store.append")
        assert act is not None and act.kind == "torn_write"
        deactivate()
        assert PLAN_ENV not in os.environ
        assert fault_point("store.append") is None

    def test_activate_fresh_clears_journal_not_fresh_keeps_it(self, tmp_path):
        plan = one_site_plan("store.append", "torn_write")
        log = tmp_path / "fires.jsonl"
        activate(plan, log_path=log)
        assert fault_point("store.append") is not None
        assert len(read_events(log)) == 1
        # Re-arm keeping the journal: the budget stays spent.
        activate(plan, log_path=log, fresh=False)
        assert fault_point("store.append") is None
        assert len(read_events(log)) == 1
        # A fresh activation starts the budget over.
        activate(plan, log_path=log)
        assert fault_point("store.append") is not None

    def test_default_log_path(self):
        assert default_log_path("/x/plan.json") == Path(
            "/x/plan.json.events.jsonl"
        )


# ----------------------------------------------------------------------
# The store seams + quarantine healing
# ----------------------------------------------------------------------

class TestStoreSeams:
    def test_torn_append_heals_on_reopen(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        assert store.append(rec(0))
        activate(
            one_site_plan("store.append", "torn_write"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(InjectedFault):
            store.append(rec(1))
        deactivate()
        store.close()
        raw = path.read_text(encoding="utf-8")
        assert not raw.endswith("\n")  # the torn fragment is on disk
        healed = ResultStore(path)
        assert len(healed) == 1  # fragment truncated away on resume
        assert healed.append(rec(1))  # the lost record was never persisted
        assert len(healed) == 2
        healed.close()

    def test_torn_fragment_midfile_is_quarantined(self, tmp_path):
        """A writer that survives the torn append and keeps appending
        buries the fragment mid-file; the next open quarantines the
        merged malformed line instead of refusing the store."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        activate(
            one_site_plan("store.append", "torn_write"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(InjectedFault):
            store.append(rec(0))
        deactivate()
        store.append(rec(1))  # merges with the fragment: one malformed line
        store.append(rec(2))
        store.close()
        healed = ResultStore(path)
        assert [r["fingerprint"] for r in healed.records()] == ["fp2"]
        assert healed.io_stats["quarantined_lines"] == 1
        assert healed.quarantine_path.exists()
        healed.close()

    def test_enospc_append_is_an_oserror(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        activate(
            one_site_plan("store.append", "enospc"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(OSError) as exc:
            store.append(rec(0))
        assert exc.value.errno == errno.ENOSPC
        deactivate()
        store.close()

    def test_error_append_seam_fires(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        activate(
            one_site_plan("store.error_append", "io_error"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(OSError):
            store.record_error("fpX", "illegal")
        deactivate()
        store.close()

    def test_compact_reports_and_clears_quarantine(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = [
            json.dumps(rec(0)),
            '{"fingerprint": "fp-torn", "cyc',  # corrupt mid-file line
            json.dumps(rec(1)),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        store = ResultStore(path)
        assert len(store) == 2
        assert store.quarantine_path.exists()
        stats = store.compact()
        assert stats["lines_quarantined"] == 1
        assert stats["records_kept"] == 2
        assert not store.quarantine_path.exists()
        store.close()
        clean = ResultStore(path)
        assert clean.io_stats["quarantined_lines"] == 0
        clean.close()

    def test_store_compact_cli_mentions_quarantine(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps(rec(0)) + "\n" + "garbage{{{\n" + json.dumps(rec(1)) + "\n",
            encoding="utf-8",
        )
        assert main(["store", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined line(s)" in out


# ----------------------------------------------------------------------
# Checkpoint seams
# ----------------------------------------------------------------------

class TestCheckpointSeams:
    def test_torn_mark_healed_on_resume(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ckpt = CampaignCheckpoint(path, "fpA")
        ckpt.mark("u1", {"rows": []})
        # Hits count from activation: u2's mark is the seam's first hit.
        activate(
            one_site_plan("checkpoint.mark", "torn_write"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(InjectedFault):
            ckpt.mark("u2", {"rows": []})
        deactivate()
        ckpt.close()
        resumed = CampaignCheckpoint(path, "fpA")
        assert set(resumed.done) == {"u1"}  # torn mark dropped, u1 kept
        resumed.mark("u2", {"rows": []})  # the lost unit re-marks cleanly
        resumed.close()
        final, units = CampaignCheckpoint.load(path)
        assert final["spec_fingerprint"] == "fpA"
        assert set(units) == {"u1", "u2"}

    def test_stats_drop_degrades_silently(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ckpt = CampaignCheckpoint(path, "fpA")
        activate(
            one_site_plan("checkpoint.stats", "drop"),
            log_path=tmp_path / "log.jsonl",
        )
        ckpt.mark("u1", {"rows": []}, counters={"hits": 3})  # must not raise
        deactivate()
        assert not ckpt.stats_path.exists()  # the sidecar write was dropped
        ckpt.mark("u2", {"rows": []}, counters={"hits": 5})
        assert ckpt.stats_path.exists()  # budget spent: next write lands
        ckpt.close()


# ----------------------------------------------------------------------
# Serving seams
# ----------------------------------------------------------------------

class TestServingSeams:
    def test_refresh_drop_skips_one_sync_round(self, tmp_path):
        path = tmp_path / "s.jsonl"
        feeder = ResultStore(path)
        service = DataflowService(attach=[path], live_budget=4)
        feeder.append(
            {
                "fingerprint": "fpZ", "cycles": 10, "config": "C",
                "dataflow": "MVM2", "hw": "pes512",
                "energy": {"total_pj": 5.0},
                "features": {
                    "digest": "d0", "V": 10, "E": 20, "avg_deg": 2.0,
                    "max_deg": 4, "p99_deg": 3.0, "deg_cv": 0.5,
                    "density": 0.2, "F": 8, "G": 8,
                },
            }
        )
        feeder.close()
        activate(
            one_site_plan("serving.refresh", "drop"),
            log_path=tmp_path / "log.jsonl",
        )
        assert service.refresh() == 0  # injected stale snapshot
        deactivate()
        assert service.refresh() == 1  # next round syncs for real
        service.close()

    def test_live_search_raise_degrades_cleanly(self, tmp_path, tiny_graph):
        """An exception inside the live search must surface as the
        degrade contract (BudgetExhausted on an empty index), never as a
        raw internal error — and be counted."""
        service = DataflowService(
            store=tmp_path / "s.jsonl", live_budget=4, search_deadline=5.0
        )
        activate(
            one_site_plan("serving.live_search", "raise"),
            log_path=tmp_path / "log.jsonl",
        )
        with pytest.raises(BudgetExhausted):
            service.query(tiny_graph, in_features=4, out_features=4)
        deactivate()
        assert service.search_failures == 1
        # The same query answers once the fault budget is spent.
        result = service.query(tiny_graph, in_features=4, out_features=4)
        assert result.source == "live"
        service.close()

    def test_admit_shed_returns_503_with_retry_after(self, tmp_path):
        import asyncio

        from repro.serving.frontend import DataflowServer

        async def _http(host, port, method, path, body=None):
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
            headers = {}
            for line in head_part.decode().split("\r\n")[1:]:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            return status, headers, json.loads(body_part) if body_part else {}

        service = DataflowService(store=tmp_path / "s.jsonl", live_budget=4)
        server = DataflowServer(
            service, host="127.0.0.1", port=0, timeout=30.0, max_queue=4
        )
        activate(
            one_site_plan("serving.admit", "shed"),
            log_path=tmp_path / "log.jsonl",
        )

        async def scenario():
            await server.start()
            try:
                body = {"dataset": "mutag"}
                shed = await _http(
                    server.host, server.port, "POST", "/query", body
                )
                served = await _http(
                    server.host, server.port, "POST", "/query", body
                )
                return shed, served
            finally:
                await server.stop()

        try:
            shed, served = asyncio.run(scenario())
        finally:
            deactivate()
            service.close()
        status, headers, payload = shed
        assert status == 503
        assert headers.get("retry-after") == "1"
        assert "error" in payload
        assert served[0] == 200  # budget spent: next request is served


# ----------------------------------------------------------------------
# Coordinator retry budget + status surfacing
# ----------------------------------------------------------------------

class TestCoordinatorRetryBudget:
    def test_default_total_budget_is_per_shard_times_shards(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(EXAMPLE_SPEC.read_text(), encoding="utf-8")
        coord = DistributedCoordinator(
            spec_path, shards=3, max_retries=2, out=tmp_path / "s.jsonl"
        )
        assert coord.max_total_retries == 6
        coord = DistributedCoordinator(
            spec_path,
            shards=3,
            max_retries=2,
            max_total_retries=1,
            out=tmp_path / "s2.jsonl",
        )
        assert coord.max_total_retries == 1

    def test_fleet_retry_budget_exhausts(self, tmp_path):
        """Every worker dies at startup; with a fleet budget of 1 the
        coordinator must give up long before per-shard retries allow,
        and `campaign status` must surface the retry accounting."""
        out = tmp_path / "fleet.jsonl"
        activate(
            one_site_plan("worker.start", "kill", times=None),
            log_path=tmp_path / "log.jsonl",
        )
        coordinator = DistributedCoordinator(
            EXAMPLE_SPEC,
            shards=2,
            out=out,
            max_retries=5,
            max_total_retries=1,
            backoff=0.01,
            heartbeat_interval=0.05,
            heartbeat_timeout=5.0,
        )
        with pytest.raises(DistributedError, match="fleet retry budget"):
            coordinator.run()
        deactivate()
        assert coordinator.retries_total == 2  # the relaunch that broke it
        state = load_coordinator_state(out)
        assert state["state"] == "failed"
        assert state["retries_total"] == 2
        assert state["max_total_retries"] == 1
        # `campaign status --json` surfaces the same accounting.
        payload = json.loads(
            _capture_json(
                ["campaign", "status", "--spec", str(EXAMPLE_SPEC),
                 "--out", str(out), "--json"]
            )
        )
        assert payload["coordinator"]["retries_total"] == 2


def _capture_json(argv) -> str:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

class TestFaultsCli:
    def test_faults_plan_scenario_round_trips(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(
            ["faults", "plan", "--scenario", "torn-append", "--seed", "3",
             "--out", str(out)]
        ) == 0
        plan = FaultPlan.load(out)
        assert plan == scenario_plan("torn-append", seed=3)

    def test_faults_plan_random_round_trips(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(
            ["faults", "plan", "--random", "--seed", "11", "--out", str(out)]
        ) == 0
        assert FaultPlan.load(out) == random_plan(11)

    def test_faults_plan_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["faults", "plan", "--out", str(tmp_path / "p.json")]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# The chaos harness: kill-at-every-heartbeat sweep
# ----------------------------------------------------------------------

class TestHarnessIntegration:
    def test_kill_at_every_heartbeat_sweep(self, tmp_path):
        """Kill a shard worker at heartbeat 1, 2, and 3 of the 4-unit
        example campaign; every run must recover to byte-identical
        artifacts with zero duplicate evaluations."""
        plans = [
            FaultPlan.build(
                n,
                {"worker.heartbeat": {"kind": "kill", "after": n, "times": 1}},
            )
            for n in (1, 2, 3)
        ]
        # The beat interval must be short enough that beat 3 still lands
        # inside the shard's compute window — a worker that finishes
        # before its Nth heartbeat never gets killed and proves nothing.
        report = run_harness(
            EXAMPLE_SPEC,
            plans,
            out_dir=tmp_path / "chaos",
            shards=2,
            heartbeat_interval=0.01,
            heartbeat_timeout=3.0,
        )
        assert report.ok, report.render()
        assert len(report.outcomes) == 3
        for outcome in report.outcomes:
            names = {c.name: c.ok for c in outcome.invariants}
            assert names.get("byte_identical") is True
            assert names.get("zero_duplicate_evals") is True
            # The kill must actually have fired — a sweep that never
            # kills anything proves nothing.
            kills = [
                e for e in outcome.events
                if e["site"] == "worker.heartbeat" and e["kind"] == "kill"
            ]
            assert kills, outcome.to_dict()
        # The report is a JSON value CI can archive and diff.
        saved = tmp_path / "report.json"
        report.save(saved)
        data = json.loads(saved.read_text(encoding="utf-8"))
        assert data["ok"] is True
        assert len(data["plans"]) == 3
