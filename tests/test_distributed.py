"""Tests for repro.distributed: plans, shard workers, coordinator, merge.

The distributed contract under test: a sharded run — including one whose
worker the coordinator kills and relaunches mid-campaign — produces a
store, checkpoint, and report digest identical to a sequential run, with
zero duplicate cost-model evaluations on recovery.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.store import ResultStore
from repro.campaign import (
    CampaignCheckpoint,
    CampaignSpec,
    CandidateSource,
    HardwarePoint,
    run_campaign,
)
from repro.distributed import (
    DistributedCoordinator,
    ShardPlan,
    ShardPlanError,
    load_progress,
    merge_checkpoints,
    merge_stores,
    plan_shards,
    run_shard,
    shard_paths,
)
from repro.distributed.merge import assemble_report
from repro.distributed.worker import ShardFailureInjected
from repro.errors import CampaignError, DistributedError


def dist_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="dist-mini",
        datasets=["mutag", "citeseer"],
        source=CandidateSource("table5"),
        hardware=[HardwarePoint(num_pes=512)],
        seed=0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def grid_spec(**overrides) -> CampaignSpec:
    """4 units (2 datasets x 2 labeled hw points): shards get >1 unit."""
    return dist_spec(
        name="dist-grid",
        hardware=[
            HardwarePoint(num_pes=256, label="pes256"),
            HardwarePoint(num_pes=512, label="pes512"),
        ],
        **overrides,
    )


def sequential_run(tmp_path, spec, tag="seq"):
    """Reference single-process run; returns (report, store, ckpt) paths."""
    store_path = tmp_path / f"{tag}.jsonl"
    ckpt_path = tmp_path / f"{tag}.ckpt.jsonl"
    store = ResultStore(store_path)
    ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
    try:
        report = run_campaign(spec, store=store, checkpoint=ckpt)
    finally:
        ckpt.close()
        store.close()
    return report, store_path, ckpt_path


def run_all_shards(tmp_path, spec, plan, tag="shard", **kwargs):
    """Run every shard in-process against one base store path."""
    base = tmp_path / f"{tag}.jsonl"
    reports = []
    for index in range(plan.num_shards):
        report, _paths = run_shard(
            spec, plan, index, base_store=base, **kwargs
        )
        reports.append(report)
    return reports, base


def merged_report(tmp_path, spec, plan, base, tag="shard"):
    paths = [shard_paths(base, i) for i in range(plan.num_shards)]
    merged_store = tmp_path / f"{tag}.merged.jsonl"
    merged_ckpt = tmp_path / f"{tag}.merged.ckpt.jsonl"
    acct = merge_stores(merged_store, [p.store for p in paths])
    units, _counters = merge_checkpoints(
        spec, [p.checkpoint for p in paths], merged_ckpt
    )
    report = assemble_report(spec, units)
    return report, acct, merged_store, merged_ckpt


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------

class TestShardPlan:
    def test_round_robin_covers_in_grid_order(self):
        spec = grid_spec()
        plan = plan_shards(spec, 2)
        assert plan.assignments == (
            ("mutag@pes256", "citeseer@pes256"),
            ("mutag@pes512", "citeseer@pes512"),
        )
        assert sorted(plan.unit_keys()) == sorted(spec.unit_keys())
        assert plan.weights == (0.0, 0.0)
        plan.validate_against(spec)

    def test_planning_is_deterministic(self):
        spec = grid_spec()
        for policy in ("round-robin", "cost-weighted"):
            a = plan_shards(spec, 3, policy)
            b = plan_shards(spec, 3, policy)
            assert a == b
            assert a.fingerprint() == b.fingerprint()

    def test_cost_weighted_balances_heavy_dataset(self):
        # citeseer is orders of magnitude heavier than mutag: LPT must
        # split the two citeseer units across the two shards.
        spec = grid_spec()
        plan = plan_shards(spec, 2, policy="cost-weighted")
        assert sorted(plan.unit_keys()) == sorted(spec.unit_keys())
        for shard in plan.assignments:
            heavy = [key for key in shard if key.startswith("citeseer")]
            assert len(heavy) == 1
        assert all(w > 0 for w in plan.weights)
        plan.validate_against(spec)

    def test_within_shard_keys_stay_grid_ordered(self):
        spec = grid_spec()
        order = {key: i for i, key in enumerate(spec.unit_keys())}
        for policy in ("round-robin", "cost-weighted"):
            plan = plan_shards(spec, 2, policy)
            for shard in plan.assignments:
                ranks = [order[key] for key in shard]
                assert ranks == sorted(ranks)

    def test_more_shards_than_units_leaves_empty_tails(self):
        spec = dist_spec()
        plan = plan_shards(spec, 5)
        assert plan.num_shards == 5
        assert [len(s) for s in plan.assignments] == [1, 1, 0, 0, 0]
        plan.validate_against(spec)

    def test_json_roundtrip(self, tmp_path):
        plan = plan_shards(grid_spec(), 3, policy="cost-weighted")
        assert ShardPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        again = ShardPlan.load(path)
        assert again == plan
        assert again.fingerprint() == plan.fingerprint()

    def test_from_dict_rejects_bad_schema_and_tampering(self):
        plan = plan_shards(dist_spec(), 2)
        data = plan.to_dict()
        with pytest.raises(ShardPlanError, match="plan schema"):
            ShardPlan.from_dict({**data, "plan_schema": 99})
        tampered = dict(data)
        tampered["assignments"] = [["mutag@pes512"], []]
        with pytest.raises(ShardPlanError, match="fingerprint mismatch"):
            ShardPlan.from_dict(tampered)
        with pytest.raises(ShardPlanError, match="malformed"):
            ShardPlan.from_dict({"plan_schema": 1, "assignments": [[]]})
        with pytest.raises(ShardPlanError):
            ShardPlan.from_dict("not a mapping")

    def test_load_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{ torn", encoding="utf-8")
        with pytest.raises(ShardPlanError, match="not valid JSON"):
            ShardPlan.load(path)
        with pytest.raises(ShardPlanError, match="cannot read"):
            ShardPlan.load(tmp_path / "absent.json")

    def test_validate_against_wrong_spec(self):
        plan = plan_shards(dist_spec(), 2)
        other = dist_spec(name="other", datasets=["mutag"])
        with pytest.raises(ShardPlanError, match="belongs to spec"):
            plan.validate_against(other)

    def test_validate_against_reports_coverage_holes(self):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        holey = ShardPlan(
            spec_fingerprint=plan.spec_fingerprint,
            policy=plan.policy,
            assignments=(plan.assignments[0], ()),
            weights=plan.weights,
        )
        with pytest.raises(ShardPlanError, match="missing="):
            holey.validate_against(spec)

    def test_shard_for(self):
        plan = plan_shards(grid_spec(), 2)
        assert plan.shard_for("mutag@pes256") == 0
        assert plan.shard_for("citeseer@pes512") == 1
        with pytest.raises(KeyError):
            plan.shard_for("nope@pes1")

    def test_plan_shards_argument_validation(self):
        with pytest.raises(ShardPlanError, match="num_shards"):
            plan_shards(dist_spec(), 0)
        with pytest.raises(ShardPlanError, match="unknown shard policy"):
            plan_shards(dist_spec(), 2, policy="alphabetical")

    def test_plan_error_is_campaign_and_value_error(self):
        with pytest.raises(CampaignError):
            plan_shards(dist_spec(), 0)
        with pytest.raises(ValueError):
            plan_shards(dist_spec(), 0)


# ----------------------------------------------------------------------
# run_campaign(only_units=...) — the primitive shards are built on
# ----------------------------------------------------------------------

class TestOnlyUnits:
    def test_restricts_the_grid(self, tmp_path):
        spec = dist_spec()
        report = run_campaign(spec, only_units={"citeseer@pes512"})
        assert [u.dataset for u in report.units] == ["citeseer"]

    def test_unknown_unit_key_rejected(self):
        with pytest.raises(CampaignError, match="unknown unit key"):
            run_campaign(dist_spec(), only_units={"qm9@pes512"})

    def test_selection_keeps_grid_order(self, tmp_path):
        spec = grid_spec()
        only = {"mutag@pes256", "citeseer@pes512"}
        report = run_campaign(spec, only_units=only)
        done = [f"{u.dataset}@{u.hw}" for u in report.units]
        assert done == [k for k in spec.unit_keys() if k in only]


# ----------------------------------------------------------------------
# Shard workers (in-process)
# ----------------------------------------------------------------------

class TestRunShard:
    def test_writes_private_artifacts_and_progress(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        base = tmp_path / "camp.jsonl"
        report, paths = run_shard(spec, plan, 0, base_store=base)
        assert paths.store == tmp_path / "camp.shard0.jsonl"
        assert paths.store.exists() and paths.checkpoint.exists()
        assert [u.dataset for u in report.units] == ["mutag"]
        progress = load_progress(paths.progress)
        assert progress["state"] == "done"
        assert progress["shard_index"] == 0
        assert progress["assigned"] == ["mutag@pes512"]
        assert progress["done_units"] == ["mutag@pes512"]
        assert progress["plan_fingerprint"] == plan.fingerprint()
        assert progress["stats"]["evaluated"] == report.stats["evaluated"] > 0

    def test_merged_artifacts_match_sequential_run(self, tmp_path):
        spec = grid_spec()
        seq_report, seq_store, seq_ckpt = sequential_run(tmp_path, spec)
        plan = plan_shards(spec, 2)
        _reports, base = run_all_shards(tmp_path, spec, plan)
        report, acct, merged_store, merged_ckpt = merged_report(
            tmp_path, spec, plan, base
        )
        assert report.canonical_json() == seq_report.canonical_json()
        assert report.digest() == seq_report.digest()
        assert merged_ckpt.read_bytes() == seq_ckpt.read_bytes()
        # Same records; shard-major append order may differ from grid order.
        assert sorted(merged_store.read_text().splitlines()) == sorted(
            seq_store.read_text().splitlines()
        )
        assert acct["records_added"] == seq_report.stats["persisted"]
        assert acct["records_skipped"] == 0

    def test_empty_shard_completes_cleanly(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 3)  # shard 2 gets nothing
        report, paths = run_shard(
            spec, plan, 2, base_store=tmp_path / "camp.jsonl"
        )
        assert report.units == []
        assert load_progress(paths.progress)["state"] == "done"

    def test_resume_performs_zero_duplicate_evaluations(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        base = tmp_path / "camp.jsonl"
        first, paths = run_shard(spec, plan, 1, base_store=base)
        assert first.stats["evaluated"] > 0
        lines = paths.store.read_text()
        again, _ = run_shard(spec, plan, 1, base_store=base, attempt=1)
        assert again.stats["evaluated"] == 0
        assert again.stats["store_skips"] == 0
        assert again.units[0].resumed
        assert paths.store.read_text() == lines

    def test_fail_after_units_injection(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 1)  # both units on one shard
        base = tmp_path / "camp.jsonl"
        with pytest.raises(ShardFailureInjected):
            run_shard(spec, plan, 0, base_store=base, fail_after_units=1)
        paths = shard_paths(base, 0)
        progress = load_progress(paths.progress)
        assert progress["state"] == "failed"
        assert progress["error"]["type"] == "ShardFailureInjected"
        assert "injected failure" in progress["error"]["message"]
        assert progress["done_units"] == ["mutag@pes512"]
        # The journaled unit survives for the next attempt to resume from.
        _header, units = CampaignCheckpoint.load(paths.checkpoint)
        assert list(units) == ["mutag@pes512"]

    def test_failed_then_resumed_shard_recovers_without_rework(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 1)
        base = tmp_path / "camp.jsonl"
        with pytest.raises(ShardFailureInjected):
            run_shard(spec, plan, 0, base_store=base, fail_after_units=1)
        report, paths = run_shard(spec, plan, 0, base_store=base, attempt=1)
        assert len(report.units) == 2
        assert report.units[0].resumed and not report.units[1].resumed
        assert report.stats["store_skips"] == 0
        assert load_progress(paths.progress)["attempt"] == 1

    def test_out_of_range_shard_index(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        with pytest.raises(DistributedError, match="out of range"):
            run_shard(spec, plan, 7, base_store=tmp_path / "c.jsonl")

    def test_plan_spec_mismatch_refused(self, tmp_path):
        plan = plan_shards(dist_spec(), 2)
        other = dist_spec(name="other")
        with pytest.raises(ShardPlanError, match="belongs to spec"):
            run_shard(other, plan, 0, base_store=tmp_path / "c.jsonl")


# ----------------------------------------------------------------------
# Checkpoint merge
# ----------------------------------------------------------------------

class TestMergeCheckpoints:
    def test_incomplete_coverage_raises(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        base = tmp_path / "camp.jsonl"
        run_shard(spec, plan, 0, base_store=base)  # shard 1 never ran
        with pytest.raises(DistributedError, match="never completed"):
            merge_checkpoints(
                spec,
                [shard_paths(base, i).checkpoint for i in range(2)],
                tmp_path / "merged.ckpt.jsonl",
            )

    def test_incomplete_coverage_tolerated_on_request(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        base = tmp_path / "camp.jsonl"
        run_shard(spec, plan, 0, base_store=base)
        units, _ = merge_checkpoints(
            spec,
            [shard_paths(base, i).checkpoint for i in range(2)],
            tmp_path / "merged.ckpt.jsonl",
            require_complete=False,
        )
        assert list(units) == ["mutag@pes512"]

    def test_foreign_fingerprint_refused(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 1)
        base = tmp_path / "camp.jsonl"
        run_shard(spec, plan, 0, base_store=base)
        other = dist_spec(name="other")
        with pytest.raises(DistributedError, match="belongs to spec"):
            merge_checkpoints(
                other,
                [shard_paths(base, 0).checkpoint],
                tmp_path / "merged.ckpt.jsonl",
            )

    def test_counter_sidecars_fold_into_merged_sidecar(self, tmp_path):
        spec = dist_spec()
        plan = plan_shards(spec, 2)
        _reports, base = run_all_shards(tmp_path, spec, plan)
        dest = tmp_path / "merged.ckpt.jsonl"
        _units, counters = merge_checkpoints(
            spec,
            [shard_paths(base, i).checkpoint for i in range(2)],
            dest,
        )
        assert sorted(counters) == sorted(spec.unit_keys())
        sidecar = CampaignCheckpoint.load_counters(
            CampaignCheckpoint.stats_path_for(dest)
        )
        assert sidecar["spec_fingerprint"] == spec.fingerprint()
        assert sorted(sidecar["units"]) == sorted(spec.unit_keys())


# ----------------------------------------------------------------------
# Coordinator (subprocess workers)
# ----------------------------------------------------------------------

class TestCoordinator:
    def test_dist_run_matches_sequential(self, tmp_path):
        spec = dist_spec()
        spec_path = spec.save(tmp_path / "spec.json")
        seq_report, _seq_store, seq_ckpt = sequential_run(tmp_path, spec)
        result = DistributedCoordinator(
            spec_path,
            shards=2,
            out=tmp_path / "dist.jsonl",
            checkpoint=tmp_path / "dist.ckpt.jsonl",
            heartbeat_interval=0.1,
        ).run()
        assert result.report.digest() == seq_report.digest()
        assert result.report.canonical_json() == seq_report.canonical_json()
        assert (tmp_path / "dist.ckpt.jsonl").read_bytes() == seq_ckpt.read_bytes()
        assert [a.outcome for a in result.attempts].count("done") == 2
        assert result.stat_total("evaluated") == seq_report.stats["evaluated"]
        assert result.stat_total("store_skips") == 0
        assert result.report.stats["evaluated"] == seq_report.stats["evaluated"]
        # The plan is persisted next to the store for post-hoc audits.
        plan = ShardPlan.load(tmp_path / "dist.plan.json")
        assert plan == result.plan

    def test_killed_worker_is_relaunched_with_zero_duplicate_evals(
        self, tmp_path
    ):
        spec = grid_spec()
        spec_path = spec.save(tmp_path / "spec.json")
        seq_report, _s, seq_ckpt = sequential_run(tmp_path, spec)
        result = DistributedCoordinator(
            spec_path,
            shards=2,
            out=tmp_path / "dist.jsonl",
            checkpoint=tmp_path / "dist.ckpt.jsonl",
            heartbeat_interval=0.05,
            poll_interval=0.02,
            backoff=0.05,
            kill_shard=0,
            kill_after_units=1,
        ).run()
        by_outcome = {}
        for a in result.attempts:
            by_outcome.setdefault(a.outcome, []).append(a)
        # One coordinator-observed death on shard 0, then recovery.
        (killed,) = by_outcome["killed"]
        assert killed.shard == 0 and killed.injected
        assert killed.units_done == 1
        assert len(by_outcome["done"]) == 2
        # Identical artifacts despite the mid-campaign kill...
        assert result.report.digest() == seq_report.digest()
        assert (tmp_path / "dist.ckpt.jsonl").read_bytes() == seq_ckpt.read_bytes()
        # ...and no evaluation ran twice: the fleet's total fresh-eval
        # count equals the sequential run's, and nothing was re-persisted.
        assert result.stat_total("evaluated") == seq_report.stats["evaluated"]
        assert result.stat_total("store_skips") == 0
        assert result.merge["records_skipped"] == 0

    def test_retries_exhausted_raises_with_context(self, tmp_path):
        spec = dist_spec()
        spec_path = spec.save(tmp_path / "spec.json")
        coordinator = DistributedCoordinator(
            spec_path,
            shards=1,
            out=tmp_path / "dist.jsonl",
            max_retries=1,
            backoff=0.01,
            poll_interval=0.01,
            python="/bin/false",  # every launch exits 1 before starting
        )
        with pytest.raises(DistributedError, match="retries exhausted"):
            coordinator.run()
        assert [a.outcome for a in coordinator.attempts] == ["failed"] * 2


# ----------------------------------------------------------------------
# Satellite: campaign status must survive damaged stats sidecars
# ----------------------------------------------------------------------

class TestStatusSidecarDegradation:
    def _campaign(self, tmp_path):
        spec = dist_spec(name="status-mini", datasets=["mutag"])
        spec_path = spec.save(tmp_path / "spec.json")
        store = tmp_path / "c.jsonl"
        ckpt = tmp_path / "c.ckpt.jsonl"
        run_campaign(
            spec,
            store=(s := ResultStore(store)),
            checkpoint=(c := CampaignCheckpoint(ckpt, spec.fingerprint())),
        )
        c.close()
        s.close()
        return spec_path, store, ckpt

    def _status(self, capsys, spec_path, store, ckpt):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign",
                    "status",
                    "--spec",
                    str(spec_path),
                    "--out",
                    str(store),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload",
        [
            "",  # empty file
            '{"spec_fi',  # torn mid-write
            "null",
            "[1, 2, 3]",
            '{"units": null}',
            '{"units": {"mutag@pes512": 7}}',
            '{"units": {"mutag@pes512": {"phase_hits": true}}}',
        ],
        ids=[
            "empty",
            "torn",
            "null",
            "list",
            "units-null",
            "unit-not-dict",
            "bool-counter",
        ],
    )
    def test_damaged_sidecar_degrades_to_unit_progress(
        self, capsys, tmp_path, payload
    ):
        spec_path, store, ckpt = self._campaign(tmp_path)
        sidecar = CampaignCheckpoint.stats_path_for(ckpt)
        sidecar.write_text(payload, encoding="utf-8")
        out = self._status(capsys, spec_path, store, ckpt)
        assert "mutag@pes512" in out and "done" in out
        # Cache-rate columns degrade to placeholders, nothing crashes.
        assert " - " in out

    def test_missing_sidecar_degrades_too(self, capsys, tmp_path):
        spec_path, store, ckpt = self._campaign(tmp_path)
        CampaignCheckpoint.stats_path_for(ckpt).unlink()
        out = self._status(capsys, spec_path, store, ckpt)
        assert "mutag@pes512" in out and "done" in out

    def test_healthy_sidecar_still_reports_rates(self, capsys, tmp_path):
        spec_path, store, ckpt = self._campaign(tmp_path)
        out = self._status(capsys, spec_path, store, ckpt)
        assert "%" in out  # real hit-rates, not placeholders

    def test_load_counters_normalizes_unit_shapes(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(
            json.dumps(
                {
                    "spec_fingerprint": "abc",
                    "units": {
                        "good": {"phase_hits": 3, "phase_misses": 1.5},
                        "not-a-dict": 9,
                        "bool-values": {"phase_hits": True, "ok": 2},
                    },
                }
            ),
            encoding="utf-8",
        )
        sidecar = CampaignCheckpoint.load_counters(path)
        assert sidecar["spec_fingerprint"] == "abc"
        assert sidecar["units"] == {
            "good": {"phase_hits": 3, "phase_misses": 1.5},
            "bool-values": {"ok": 2},
        }

    def test_load_counters_keeps_retired_counter_keys(self, tmp_path):
        """Sidecars written when the session still reported the validator's
        grid counters and the stats cache's byte accounting load
        unchanged."""
        path = tmp_path / "stats.json"
        snap = {
            "phase_hits": 5,
            "tilestats_evictions": 0,
            "tilestats_peak_nbytes": 116864,
            "dense_grid_builds": 0,
            "streamed_chunk_passes": 1,
        }
        path.write_text(
            json.dumps({"spec_fingerprint": "abc", "units": {"u": snap}}),
            encoding="utf-8",
        )
        assert CampaignCheckpoint.load_counters(path)["units"] == {"u": snap}


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------

class TestDistributedCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_shard_plan_json(self, capsys, tmp_path):
        spec_path = grid_spec().save(tmp_path / "spec.json")
        out = self.run_cli(
            capsys,
            "campaign",
            "shard-plan",
            "--spec",
            str(spec_path),
            "--shards",
            "2",
            "--json",
        )
        data = json.loads(out)
        assert data["num_shards"] == 2
        assert data["policy"] == "round-robin"
        assert ShardPlan.from_dict(data) == plan_shards(grid_spec(), 2)

    def test_shard_plan_out_file_feeds_shard_run(self, capsys, tmp_path):
        spec = dist_spec()
        spec_path = spec.save(tmp_path / "spec.json")
        plan_path = tmp_path / "plan.json"
        self.run_cli(
            capsys,
            "campaign",
            "shard-plan",
            "--spec",
            str(spec_path),
            "--shards",
            "2",
            "--out",
            str(plan_path),
        )
        out = self.run_cli(
            capsys,
            "campaign",
            "shard-run",
            "--spec",
            str(spec_path),
            "--plan",
            str(plan_path),
            "--shard-index",
            "1",
            "--base-store",
            str(tmp_path / "camp.jsonl"),
        )
        assert "citeseer" in out
        assert (tmp_path / "camp.shard1.jsonl").exists()

    def test_dist_run_json(self, capsys, tmp_path):
        spec = dist_spec()
        spec_path = spec.save(tmp_path / "spec.json")
        seq_report, _s, _c = sequential_run(tmp_path, spec)
        out = self.run_cli(
            capsys,
            "campaign",
            "dist-run",
            "--spec",
            str(spec_path),
            "--workers",
            "2",
            "--out",
            str(tmp_path / "dist.jsonl"),
            "--checkpoint",
            str(tmp_path / "dist.ckpt.jsonl"),
            "--json",
        )
        data = json.loads(out)
        assert data["digest"] == seq_report.digest()
        assert len(data["attempts"]) == 2
        assert data["merge"]["records_skipped"] == 0
