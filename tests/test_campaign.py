"""Tests for the declarative campaign pipeline (spec -> session -> report)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.store import ResultStore
from repro.arch.config import AcceleratorConfig
from repro.campaign import (
    CampaignCheckpoint,
    CampaignResumeError,
    CampaignSpec,
    CampaignSpecError,
    CandidateSource,
    ExplorationSession,
    HardwarePoint,
    campaign_units,
    run_campaign,
)
from repro.core.configs import PAPER_CONFIGS
from repro.core.workload import GNNWorkload


@pytest.fixture
def hw():
    return AcceleratorConfig(num_pes=64)


@pytest.fixture
def wl(er_graph):
    return GNNWorkload(er_graph, in_features=24, out_features=6, name="er")


@pytest.fixture
def wl2(uniform_graph):
    return GNNWorkload(uniform_graph, in_features=16, out_features=4, name="mol")


@pytest.fixture
def paper_candidates():
    return [
        (cfg.dataflow(), cfg.hint, {"config": name})
        for name, cfg in PAPER_CONFIGS.items()
    ]


def tiny_spec(tmp_path=None, **overrides) -> CampaignSpec:
    base = dict(
        name="mini",
        datasets=["mutag", "citeseer"],
        source=CandidateSource("table5"),
        hardware=[HardwarePoint(num_pes=512)],
        seed=0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ----------------------------------------------------------------------
# CampaignSpec serialization and validation
# ----------------------------------------------------------------------

class TestSpec:
    def test_json_roundtrip(self):
        spec = tiny_spec(
            hardware=[
                HardwarePoint(num_pes=512),
                HardwarePoint(num_pes=1024, bandwidth=128, label="big"),
            ],
            budget=100,
            objective="edp",
        )
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_load_json_file(self, tmp_path):
        spec = tiny_spec()
        path = spec.save(tmp_path / "c.json")
        assert CampaignSpec.load(path) == spec

    def test_load_toml_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "toml-campaign"',
                    'datasets = ["mutag"]',
                    'objective = "cycles"',
                    "seed = 3",
                    "[source]",
                    'kind = "table5"',
                    "[[hardware]]",
                    "num_pes = 256",
                ]
            )
        )
        spec = CampaignSpec.load(path)
        assert spec.name == "toml-campaign"
        assert spec.seed == 3
        assert spec.hardware == [HardwarePoint(num_pes=256)]

    def test_fingerprint_ignores_artifact_paths(self):
        a = tiny_spec()
        b = tiny_spec(store="runs/x.jsonl", checkpoint="runs/x.ckpt.jsonl")
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (dict(datasets=[]), "at least one dataset"),
            (dict(datasets=["mutag", "nope"]), "unknown datasets"),
            (dict(datasets=["mutag", "mutag"]), "duplicate datasets"),
            (dict(hardware=[]), "at least one hardware point"),
            (dict(source=CandidateSource("genetic")), "unknown source kind"),
            (
                dict(source=CandidateSource("table5", {"splits": [0.5]})),
                "does not accept params",
            ),
            (dict(objective="speed"), "unknown objective"),
            (dict(budget=0), "budget"),
            (dict(name="  "), "non-empty name"),
            (
                dict(hardware=[HardwarePoint(), HardwarePoint()]),
                "collide",
            ),
        ],
    )
    def test_validation_errors(self, mutation, message):
        with pytest.raises(CampaignSpecError, match=message):
            tiny_spec(**mutation).validate()

    def test_from_dict_rejects_unknown_fields(self):
        data = tiny_spec().to_dict()
        data["worker_count"] = 4  # execution policy does not belong in a spec
        with pytest.raises(CampaignSpecError, match="unknown spec fields"):
            CampaignSpec.from_dict(data)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(CampaignSpecError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")

    def test_from_dict_rejects_wrong_types(self):
        data = tiny_spec().to_dict()
        data["hardware"] = [{"num_pes": "512"}]
        with pytest.raises(CampaignSpecError, match="must be an integer"):
            CampaignSpec.from_dict(data)
        data = tiny_spec().to_dict()
        data["budget"] = "many"
        with pytest.raises(CampaignSpecError, match="budget"):
            CampaignSpec.from_dict(data)

    def test_units_grid_order(self):
        spec = tiny_spec(
            hardware=[HardwarePoint(num_pes=512), HardwarePoint(num_pes=1024)]
        )
        units = [(ds, pt.key()) for ds, pt in campaign_units(spec)]
        assert units == [
            ("mutag", "pes512"),
            ("mutag", "pes1024"),
            ("citeseer", "pes512"),
            ("citeseer", "pes1024"),
        ]


# ----------------------------------------------------------------------
# ExplorationSession: warm cache + shared memos
# ----------------------------------------------------------------------

class TestSession:
    def test_warm_cache_answers_second_session_from_disk(
        self, wl, hw, paper_candidates, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            first = ExplorationSession(store=store)
            outcomes = first.evaluator(wl, hw).evaluate(paper_candidates)
            assert first.stats.evaluated == len(paper_candidates)
        cycles = [o.cycles for o in outcomes]

        with ResultStore(path) as store:
            second = ExplorationSession(store=store)
            assert second.warm_size == len(paper_candidates)
            again = second.evaluator(wl, hw).evaluate(paper_candidates)
            # zero cost-model runs: every answer came from disk
            assert second.stats.evaluated == 0
            assert second.stats.warm_hits == len(paper_candidates)
        assert [o.cycles for o in again] == cycles
        assert all(o.record is not None and o.result is None for o in again)

    def test_memo_shared_between_views_of_same_context(
        self, wl, hw, paper_candidates
    ):
        session = ExplorationSession()
        session.evaluator(wl, hw).evaluate(paper_candidates)
        ev2 = session.evaluator(wl, hw)
        ev2.evaluate(paper_candidates)
        assert ev2.stats.evaluated == 0
        assert ev2.stats.cache_hits == len(paper_candidates)
        assert session.stats.evaluated == len(paper_candidates)

    def test_warm_cache_skips_older_schema_records(
        self, wl, hw, paper_candidates, tmp_path
    ):
        """Schema-v1 records lack fields the outcome accessors need, so
        they must be re-evaluated rather than served warm."""
        path = tmp_path / "runs.jsonl"
        with ResultStore(path) as store:
            session = ExplorationSession(store=store)
            session.evaluator(wl, hw).evaluate(paper_candidates)
        # age every persisted record back to schema 1
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        for rec in lines:
            rec["schema"] = 1
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))

        with ResultStore(path) as store:
            session = ExplorationSession(store=store)
            assert session.warm_size == 0
            session.evaluator(wl, hw).evaluate(paper_candidates)
            assert session.stats.evaluated == len(paper_candidates)
            assert session.stats.warm_hits == 0
            # the store already holds the fingerprints: nothing re-appended
            assert session.stats.store_skips == len(paper_candidates)


class TestCallerOwnsTheStore:
    """Nothing in the evaluation layer closes a store it was handed: after
    each call returns, the same store still appends and records errors,
    and only the caller's ``close()`` ends it."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "owned.jsonl")
        closes: list[int] = []
        real_close = store.close
        monkeypatch.setattr(
            store, "close", lambda: (closes.append(1), real_close())[1]
        )
        store.closes = closes
        return store

    @staticmethod
    def assert_still_the_callers(store):
        assert store.closes == []
        assert store.append({"fingerprint": "appended-by-caller"})
        store.record_error("recorded-by-caller", "ValueError: caller")
        assert "appended-by-caller" in store
        assert store.errors()["recorded-by-caller"] == "ValueError: caller"
        store.close()
        assert store.closes == [1]

    def test_run_campaign(self, store):
        spec = tiny_spec(
            datasets=["mutag"],
            source=CandidateSource("table5", {"configs": ["Seq1"]}),
        )
        run_campaign(spec, store=store)
        self.assert_still_the_callers(store)

    def test_sweep_on_a_store_backed_session(self, store, wl, hw):
        from repro.analysis.sweep import sweep_pe_allocation

        sweep_pe_allocation(
            wl, hw, config_names=("PP1",), splits=(0.5,),
            session=ExplorationSession(store=store),
        )
        assert len(store) == 1  # the swept 50-50 point is the baseline
        self.assert_still_the_callers(store)

    def test_service_close_leaves_a_passed_store_open(self, store):
        from repro.serving import DataflowService

        DataflowService(store=store).close()
        self.assert_still_the_callers(store)


# ----------------------------------------------------------------------
# Campaign runner: checkpointed resume
# ----------------------------------------------------------------------

class TestRunCampaign:
    def test_runs_all_units_and_persists(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        report = run_campaign(spec, store=store)
        store.close()
        assert [u.dataset for u in report.units] == ["mutag", "citeseer"]
        assert all(len(u.rows) == len(PAPER_CONFIGS) for u in report.units)
        assert report.stats["evaluated"] == 2 * len(PAPER_CONFIGS)
        assert report.store_records == 2 * len(PAPER_CONFIGS)

    def test_checkpoint_resume_skips_done_units(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        ckpt = CampaignCheckpoint(tmp_path / "c.ckpt.jsonl", spec.fingerprint())
        first = run_campaign(spec, store=store, checkpoint=ckpt)
        ckpt.close()
        store.close()
        assert first.resumed_units == 0

        store = ResultStore(tmp_path / "c.jsonl")
        ckpt = CampaignCheckpoint(tmp_path / "c.ckpt.jsonl", spec.fingerprint())
        second = run_campaign(spec, store=store, checkpoint=ckpt)
        ckpt.close()
        store.close()
        assert second.resumed_units == len(second.units)
        assert second.stats["evaluated"] == 0
        assert [u.rows for u in second.units] == [u.rows for u in first.units]

    def test_stats_sidecar_records_per_unit_deltas(self, tmp_path):
        """Cache counters ride a sidecar as per-unit deltas: they sum to
        the session totals, survive resume without double counting, and
        the report/cache surfaces stay scheduling-invariant elsewhere."""
        spec = tiny_spec()
        ckpt_path = tmp_path / "c.ckpt.jsonl"
        ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
        report = run_campaign(spec, checkpoint=ckpt)
        ckpt.close()

        sidecar = CampaignCheckpoint.load_counters(
            CampaignCheckpoint.stats_path_for(ckpt_path)
        )
        assert sidecar["spec_fingerprint"] == spec.fingerprint()
        units = sidecar["units"]
        assert set(units) == {"mutag@pes512", "citeseer@pes512"}
        # Deltas sum to the live session's totals (report.cache).
        for key in report.cache:
            assert sum(u[key] for u in units.values()) == report.cache[key]
        # Report stats stay free of the execution-accounting fields.
        assert "phase_hits" not in report.stats
        assert report.cache["phase_misses"] > 0

        # A resumed campaign answers every unit from the checkpoint: the
        # sidecar must not grow or double-count anything.
        ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
        again = run_campaign(spec, checkpoint=ckpt)
        ckpt.close()
        assert again.stats["evaluated"] == 0
        resumed = CampaignCheckpoint.load_counters(
            CampaignCheckpoint.stats_path_for(ckpt_path)
        )
        assert resumed["units"] == units

    def test_stats_sidecar_pruned_with_restart_and_torn_units(self, tmp_path):
        """Sidecar hygiene: --no-resume and a hand-deleted journal both
        drop the stale sidecar; a unit the journal no longer vouches for
        is pruned from disk on resume."""
        spec = tiny_spec()
        ckpt_path = tmp_path / "c.ckpt.jsonl"
        ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
        run_campaign(spec, checkpoint=ckpt)
        ckpt.close()
        stats_path = CampaignCheckpoint.stats_path_for(ckpt_path)
        assert stats_path.exists()

        # Drop the final journal line (as a kill-mid-append would): the
        # resumed checkpoint must prune that unit's snapshot on disk.
        lines = ckpt_path.read_bytes().splitlines(keepends=True)
        ckpt_path.write_bytes(b"".join(lines[:-1]))
        ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
        pruned = CampaignCheckpoint.load_counters(stats_path)
        assert set(pruned["units"]) == set(ckpt.done)
        ckpt.close()

        # A fresh journal (hand-deleted) must not inherit the sidecar.
        ckpt_path.unlink()
        ckpt = CampaignCheckpoint(ckpt_path, spec.fingerprint())
        assert not stats_path.exists()
        ckpt.close()

        # --no-resume removes both files.
        run_campaign(
            spec,
            checkpoint=CampaignCheckpoint(
                ckpt_path, spec.fingerprint(), resume=True
            ),
        )
        assert stats_path.exists()
        CampaignCheckpoint(ckpt_path, spec.fingerprint(), resume=False)
        assert not stats_path.exists()

    def test_lost_checkpoint_resumes_from_store_warm_cache(self, tmp_path):
        """A campaign killed mid-unit reruns the unit, but every persisted
        candidate is answered from disk: zero new cost-model runs."""
        spec = tiny_spec()
        store = ResultStore(tmp_path / "c.jsonl")
        run_campaign(spec, store=store)
        store.close()

        store = ResultStore(tmp_path / "c.jsonl")
        report = run_campaign(spec, store=store)  # no checkpoint at all
        store.close()
        assert report.stats["evaluated"] == 0
        assert report.stats["warm_hits"] == 2 * len(PAPER_CONFIGS)
        assert report.store_records == 2 * len(PAPER_CONFIGS)

    def test_checkpoint_rejects_spec_drift(self, tmp_path):
        spec = tiny_spec()
        ckpt = CampaignCheckpoint(tmp_path / "c.ckpt.jsonl", spec.fingerprint())
        ckpt.mark("mutag@pes512", {"dataset": "mutag", "hw": "pes512", "rows": []})
        ckpt.close()
        drifted = tiny_spec(datasets=["mutag", "cora"])
        with pytest.raises(CampaignResumeError, match="belongs to spec"):
            CampaignCheckpoint(tmp_path / "c.ckpt.jsonl", drifted.fingerprint())

    def test_torn_header_restarts_checkpoint(self, tmp_path):
        """A campaign killed while appending the header itself must not
        wedge resume: the next run starts the checkpoint over."""
        spec = tiny_spec()
        path = tmp_path / "c.ckpt.jsonl"
        path.write_text('{"campaign_schema": 1, "spec_fing')  # torn header
        ckpt = CampaignCheckpoint(path, spec.fingerprint())
        assert ckpt.done == {}
        ckpt.mark("mutag@pes512", {"rows": []})
        ckpt.close()
        header, done = CampaignCheckpoint.load(path)
        assert header["spec_fingerprint"] == spec.fingerprint()
        assert set(done) == {"mutag@pes512"}

    def test_checkpoint_heals_torn_final_line(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "c.ckpt.jsonl"
        ckpt = CampaignCheckpoint(path, spec.fingerprint())
        ckpt.mark("mutag@pes512", {"dataset": "mutag", "hw": "pes512", "rows": []})
        ckpt.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"unit": "citeseer@pes512", "rows": [tru')  # killed mid-append
        again = CampaignCheckpoint(path, spec.fingerprint())
        assert set(again.done) == {"mutag@pes512"}
        again.close()

    def test_checkpoint_rejects_mid_file_corruption(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "c.ckpt.jsonl"
        ckpt = CampaignCheckpoint(path, spec.fingerprint())
        ckpt.mark("a@pes512", {"rows": []})
        ckpt.close()
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        lines.append(json.dumps({"unit": "b@pes512", "rows": []}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CampaignResumeError, match="corrupt checkpoint"):
            CampaignCheckpoint(path, spec.fingerprint())

    def test_multi_hardware_grid_labels_records(self, wl, tmp_path):
        spec = CampaignSpec(
            name="grid",
            datasets=["mutag"],
            source=CandidateSource("table5"),
            hardware=[
                HardwarePoint(num_pes=512, label="base"),
                HardwarePoint(num_pes=1024, label="2x"),
            ],
        )
        store = ResultStore(tmp_path / "g.jsonl")
        report = run_campaign(spec, store=store)
        store.close()
        assert [u.hw for u in report.units] == ["base", "2x"]
        labels = {r["hw"] for r in store.records()}
        assert labels == {"base", "2x"}

    def test_checkpoint_load_is_read_only(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "c.ckpt.jsonl"
        ckpt = CampaignCheckpoint(path, spec.fingerprint())
        ckpt.mark("mutag@pes512", {"rows": []})
        ckpt.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"unit": "in-fli')  # another process mid-append
        before = path.read_bytes()
        header, done = CampaignCheckpoint.load(path)
        assert set(done) == {"mutag@pes512"}  # torn line ignored...
        assert path.read_bytes() == before  # ...but never rewritten

    def test_scale_sources_reject_spec_hardware_grid(self):
        spec = tiny_spec(
            datasets=["mutag"],
            source=CandidateSource("num_pes", {"pe_counts": [64, 128]}),
            hardware=[HardwarePoint(num_pes=1024)],
        )
        with pytest.raises(CampaignSpecError, match="leave 'hardware' unset"):
            spec.validate()

    def test_num_pes_source_persists_and_resumes(self, tmp_path):
        """A ``num_pes`` campaign with a store runs, its resume evaluates
        nothing, and the store never changes the report."""
        spec = CampaignSpec(
            name="pes",
            datasets=["mutag"],
            source=CandidateSource(
                "num_pes", {"pe_counts": [64, 128], "config_names": ["Seq1", "SP1"]}
            ),
        )
        bare = run_campaign(spec)
        store = ResultStore(tmp_path / "pes.jsonl")
        fresh = run_campaign(spec, store=store)
        store.close()
        assert fresh.stats["evaluated"] == 4
        assert fresh.store_records == 4
        store = ResultStore(tmp_path / "pes.jsonl")
        resumed = run_campaign(spec, store=store)
        store.close()
        assert resumed.stats["evaluated"] == 0
        assert fresh.digest() == resumed.digest() == bare.digest()
        records = ResultStore.snapshot(tmp_path / "pes.jsonl").records
        assert sorted(r["num_pes"] for r in records) == [64, 64, 128, 128]

    def test_bandwidth_source_takes_pe_count_from_hardware_point(self):
        spec = CampaignSpec(
            name="bw",
            datasets=["mutag"],
            source=CandidateSource("bandwidth", {"bandwidths": [64, 32]}),
            hardware=[HardwarePoint(num_pes=64)],
        )
        report = run_campaign(spec)
        (unit,) = report.units
        assert unit.hw == "pes64"
        assert {r["bandwidth"] for r in unit.rows} == {64, 32}

    def test_case_study_source_runs(self, tmp_path):
        spec = CampaignSpec(
            name="fig16",
            datasets=["mutag"],
            source=CandidateSource(
                "bandwidth", {"bandwidths": [64, 32], "num_pes": 64}
            ),
        )
        report = run_campaign(spec)
        (unit,) = report.units
        assert {r["bandwidth"] for r in unit.rows} == {64, 32}
        assert all(r["normalized"] > 0 for r in unit.rows)


# ----------------------------------------------------------------------
# Unit execution: grid order, byte-stable artifacts across kill and resume
# ----------------------------------------------------------------------

def sched_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="sched",
        datasets=["mutag", "proteins", "imdb-bin"],
        source=CandidateSource("table5"),
        hardware=[HardwarePoint(num_pes=512)],
    )
    base.update(overrides)
    return CampaignSpec(**base)


def run_with_artifacts(tmp_path, tag, spec, **kwargs):
    store = ResultStore(tmp_path / f"{tag}.jsonl")
    ckpt = CampaignCheckpoint(tmp_path / f"{tag}.ckpt.jsonl", spec.fingerprint())
    try:
        return run_campaign(spec, store=store, checkpoint=ckpt, **kwargs)
    finally:
        ckpt.close()
        store.close()


def store_lines(tmp_path, tag):
    return sorted((tmp_path / f"{tag}.jsonl").read_text().splitlines())


class TestScheduler:
    def test_label_aliased_hardware_points_share_one_memo(self, tmp_path):
        """Two hardware points differing only by label share one evaluation
        context (labels are presentation-level), hence one memo: the
        second label's unit is answered from the first one's memo."""
        spec = sched_spec(
            datasets=["mutag", "proteins"],
            hardware=[
                HardwarePoint(num_pes=512, label="a"),
                HardwarePoint(num_pes=512, label="b"),
            ],
        )
        report = run_with_artifacts(tmp_path, "run", spec)
        # the alias unit was answered from the memo, not re-evaluated
        assert report.stats["cache_hits"] == 2 * len(PAPER_CONFIGS)
        assert report.stats["evaluated"] == 2 * len(PAPER_CONFIGS)
        # and only the first-in-grid label's records were persisted
        assert len(store_lines(tmp_path, "run")) == 2 * len(PAPER_CONFIGS)
        # both labels' units carry the same rows
        by_label = {(u.dataset, u.hw): u.rows for u in report.units}
        for ds in spec.datasets:
            assert by_label[(ds, "a")] == by_label[(ds, "b")]

    def test_killed_campaign_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """Kill-and-resume: the replay must converge on the
        uninterrupted run's exact checkpoint and report, with zero
        duplicate cost-model evaluations across the two attempts."""
        import repro.campaign.scheduler as scheduler

        spec = sched_spec()
        reference = run_with_artifacts(tmp_path, "ref", spec)

        real = scheduler.run_unit

        def dying(session, spec_, ds_name, pt, wl):
            if ds_name == "proteins":
                raise RuntimeError("simulated mid-campaign kill")
            return real(session, spec_, ds_name, pt, wl)

        monkeypatch.setattr(scheduler, "run_unit", dying)
        store = ResultStore(tmp_path / "run.jsonl")
        ckpt = CampaignCheckpoint(tmp_path / "run.ckpt.jsonl", spec.fingerprint())
        with pytest.raises(RuntimeError, match="simulated"):
            run_campaign(spec, store=store, checkpoint=ckpt)
        ckpt.close()
        store.close()
        persisted_before = len(ResultStore(tmp_path / "run.jsonl"))
        # mutag (before the failure in grid order) was journaled; the
        # failing unit and everything after it were not
        _, done = CampaignCheckpoint.load(tmp_path / "run.ckpt.jsonl")
        assert "mutag@pes512" in done
        assert "proteins@pes512" not in done

        monkeypatch.setattr(scheduler, "run_unit", real)
        store = ResultStore(tmp_path / "run.jsonl")
        ckpt = CampaignCheckpoint(tmp_path / "run.ckpt.jsonl", spec.fingerprint())
        resumed = run_campaign(spec, store=store, checkpoint=ckpt)
        ckpt.close()
        store.close()

        assert resumed.canonical_json() == reference.canonical_json()
        assert (tmp_path / "run.ckpt.jsonl").read_bytes() == (
            tmp_path / "ref.ckpt.jsonl"
        ).read_bytes()
        assert store_lines(tmp_path, "run") == store_lines(tmp_path, "ref")
        # zero duplicates: the two attempts' fresh evaluations partition
        # the campaign's 27 candidates, and everything the killed run had
        # persisted came back as warm hits (mutag rows came from the
        # checkpoint, so its 9 candidates were never even looked up)
        total = 3 * len(PAPER_CONFIGS)
        assert resumed.stats["evaluated"] == total - persisted_before
        assert resumed.stats["warm_hits"] == persisted_before - len(PAPER_CONFIGS)

    def test_each_dataset_is_synthesised_once_per_run(
        self, tmp_path, monkeypatch
    ):
        """One synthesis per dataset that has a unit to run: none for a
        fully checkpointed resume, only the subset's datasets under
        ``only_units``, and no cache carried from one run to the next."""
        import repro.campaign.scheduler as scheduler

        loads = []
        real = scheduler.load_dataset

        def counting(name, **kwargs):
            loads.append(name)
            return real(name, **kwargs)

        monkeypatch.setattr(scheduler, "load_dataset", counting)
        spec = sched_spec(
            datasets=["mutag", "proteins"],
            hardware=[HardwarePoint(num_pes=256), HardwarePoint(num_pes=512)],
        )
        run_with_artifacts(tmp_path, "run", spec)
        assert loads == ["mutag", "proteins"]

        loads.clear()
        resumed = run_with_artifacts(tmp_path, "run", spec)
        assert all(u.resumed for u in resumed.units)
        assert loads == []

        loads.clear()
        subset = [k for k in spec.unit_keys() if k.startswith("proteins@")]
        run_campaign(spec, only_units=subset)
        assert loads == ["proteins"]

        loads.clear()
        run_campaign(spec)
        assert loads == ["mutag", "proteins"]

    def test_failing_unit_propagates(self, tmp_path):
        # 1 PE: the table5 units themselves raise LegalityError.
        from repro.core.legality import LegalityError

        spec = sched_spec(
            datasets=["mutag"], hardware=[HardwarePoint(num_pes=1)]
        )
        with pytest.raises(LegalityError):
            run_campaign(spec)

# ----------------------------------------------------------------------
# Campaign CLI
# ----------------------------------------------------------------------

class TestCampaignCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_run_status_report(self, capsys, tmp_path):
        spec_path = tiny_spec(name="cli-mini").save(tmp_path / "spec.json")
        store = str(tmp_path / "c.jsonl")
        ckpt = str(tmp_path / "c.ckpt.jsonl")
        args = ["--spec", str(spec_path), "--out", store, "--checkpoint", ckpt]

        out = self.run_cli(capsys, "campaign", "run", *args)
        assert "2 units (0 from checkpoint)" in out
        assert "18 records" in out

        out = self.run_cli(capsys, "campaign", "status", *args, "--json")
        status = json.loads(out)
        assert status["units_done"] == 2
        assert status["store_records"] == 18

        out = self.run_cli(capsys, "campaign", "run", *args, "--json")
        rerun = json.loads(out)
        assert rerun["stats"]["evaluated"] == 0
        assert all(u["resumed"] for u in rerun["units"])

        out = self.run_cli(capsys, "campaign", "report", *args)
        assert "2 units (2 from checkpoint)" in out

    def test_status_reports_per_unit_states(self, capsys, tmp_path):
        """Per-unit queued / in-flight / done from checkpoint + store."""
        # Run a one-dataset campaign into the store...
        done_spec = tiny_spec(name="half", datasets=["mutag"])
        done_path = done_spec.save(tmp_path / "half.json")
        store = str(tmp_path / "c.jsonl")
        self.run_cli(
            capsys, "campaign", "run", "--spec", str(done_path),
            "--out", store, "--checkpoint", str(tmp_path / "half.ckpt.jsonl"),
        )
        # ...then ask for status of a two-dataset spec against that store:
        # mutag has records (in flight), citeseer has none (queued).
        full_path = tiny_spec(name="full").save(tmp_path / "full.json")
        out = self.run_cli(
            capsys, "campaign", "status", "--spec", str(full_path),
            "--out", store,
            "--checkpoint", str(tmp_path / "full.ckpt.jsonl"),
            "--json",
        )
        status = json.loads(out)
        assert status["units_done"] == 0
        assert status["units_in_flight"] == 1
        assert status["units_queued"] == 1
        assert status["store_records"] == len(PAPER_CONFIGS)
        by_unit = {u["unit"]: u for u in status["units"]}
        assert by_unit["mutag@pes512"]["state"] == "in-flight"
        assert by_unit["mutag@pes512"]["records"] == len(PAPER_CONFIGS)
        assert by_unit["citeseer@pes512"]["state"] == "queued"

        # completing the full campaign flips every unit to done
        self.run_cli(
            capsys, "campaign", "run", "--spec", str(full_path),
            "--out", store,
            "--checkpoint", str(tmp_path / "full.ckpt.jsonl"),
        )
        out = self.run_cli(
            capsys, "campaign", "status", "--spec", str(full_path),
            "--out", store,
            "--checkpoint", str(tmp_path / "full.ckpt.jsonl"), "--json",
        )
        status = json.loads(out)
        assert status["units_done"] == 2
        assert {u["state"] for u in status["units"]} == {"done"}

    def test_status_labeled_units_report_zero_records_before_run(
        self, capsys, tmp_path
    ):
        spec_path = tiny_spec(
            name="labeled",
            datasets=["mutag"],
            hardware=[
                HardwarePoint(num_pes=512, label="base"),
                HardwarePoint(num_pes=1024, label="big"),
            ],
        ).save(tmp_path / "spec.json")
        out = self.run_cli(
            capsys, "campaign", "status", "--spec", str(spec_path),
            "--out", str(tmp_path / "c.jsonl"),
            "--checkpoint", str(tmp_path / "c.ckpt.jsonl"), "--json",
        )
        status = json.loads(out)
        # a number, never null: JSON consumers sum these
        assert [u["records"] for u in status["units"]] == [0, 0]
        assert {u["state"] for u in status["units"]} == {"queued"}

    def test_status_before_any_run(self, capsys, tmp_path):
        spec_path = tiny_spec(name="cold").save(tmp_path / "spec.json")
        out = self.run_cli(
            capsys, "campaign", "status", "--spec", str(spec_path),
            "--out", str(tmp_path / "c.jsonl"),
            "--checkpoint", str(tmp_path / "c.ckpt.jsonl"),
        )
        assert "no checkpoint yet" in out

    def test_report_without_checkpoint_fails(self, tmp_path):
        from repro.cli import main

        spec_path = tiny_spec(name="none").save(tmp_path / "spec.json")
        assert main(
            ["campaign", "report", "--spec", str(spec_path),
             "--checkpoint", str(tmp_path / "missing.jsonl")]
        ) == 1
