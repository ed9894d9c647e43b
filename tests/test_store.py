"""Tests for the persistent JSONL result store."""

from __future__ import annotations

import json

import pytest

from repro.analysis.store import ResultStore


def rec(i: int, **extra) -> dict:
    return {"fingerprint": f"fp{i}", "cycles": 100 + i, "config": f"C{i}", **extra}


class TestAppend:
    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert store.append(rec(1))
        assert store.append(rec(2))
        store.close()
        assert [r["cycles"] for r in store.records()] == [101, 102]

    def test_append_dedups_by_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert store.append(rec(1))
        assert not store.append(rec(1, cycles=999))  # same fingerprint
        assert len(store) == 1
        assert len(store.records()) == 1

    def test_extend_reports_new_count(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert store.extend([rec(1), rec(2), rec(1)]) == 2

    def test_content_hash_fallback(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        plain = {"cycles": 5, "config": "X"}
        assert store.append(plain)
        assert not store.append(dict(plain))  # identical content dedups
        assert store.append({"cycles": 6, "config": "X"})
        assert len(store) == 2

    def test_parent_dirs_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nest" / "r.jsonl")
        assert store.append(rec(1))
        assert store.path.exists()


class TestResume:
    def test_resume_skips_persisted_fingerprints(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
            store.append(rec(2))

        resumed = ResultStore(path)
        assert len(resumed) == 2
        assert "fp1" in resumed and "fp2" in resumed
        assert not resumed.append(rec(2))
        assert resumed.append(rec(3))
        resumed.close()

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["fingerprint"] for r in lines] == ["fp1", "fp2", "fp3"]

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
        fresh = ResultStore(path, resume=False)
        assert len(fresh) == 0
        assert fresh.append(rec(1))
        fresh.close()
        assert len(path.read_text().splitlines()) == 1

    def test_resume_heals_torn_final_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
            store.append(rec(2))
        # simulate a kill mid-append: partial JSON, no trailing newline
        with path.open("a") as fh:
            fh.write('{"fingerprint": "fp3", "cyc')

        healed = ResultStore(path)
        assert len(healed) == 2
        assert "fp3" not in healed
        assert healed.append(rec(3))  # the record in flight can be redone
        healed.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["fingerprint"] for r in lines] == ["fp1", "fp2", "fp3"]

    def test_resume_quarantines_mid_file_corruption(self, tmp_path):
        """Corruption that is not a torn final line is quarantined in
        place (sidecar + counter), never fatal: one rotten byte must not
        take the whole archive down with it."""
        path = tmp_path / "r.jsonl"
        path.write_text('not json at all\n{"fingerprint": "fp1"}\n')
        store = ResultStore(path)
        assert "fp1" in store
        assert store.io_stats["quarantined_lines"] == 1
        assert store.quarantine_path.exists()
        store.close()

    def test_non_object_line_is_quarantined(self, tmp_path):
        """Valid JSON that is not an object is no record: the owner
        quarantines it and the read-only views skip it."""
        path = tmp_path / "r.jsonl"
        path.write_text('[1, 2]\n{"fingerprint": "fp1"}\n')
        assert len(ResultStore.snapshot(path)) == 1
        assert ResultStore.peek(path)["records"] == 1
        store = ResultStore(path)
        assert list(store.fingerprints) == ["fp1"]
        assert store.io_stats["quarantined_lines"] == 1
        store.close()

    def test_valid_final_line_missing_newline_is_kept_and_healed(self, tmp_path):
        """A kill between the record write and the newline write leaves a
        *valid* last line with no terminator; it must be kept — and the
        newline repaired, or the next append would corrupt the file."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
        raw = path.read_bytes()
        path.write_bytes(raw.rstrip(b"\n"))

        healed = ResultStore(path)
        assert "fp1" in healed
        assert healed.append(rec(2))
        healed.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["fingerprint"] for r in lines] == ["fp1", "fp2"]

    def test_fingerprints_frozen_view(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(rec(1))
        fps = store.fingerprints
        assert fps == frozenset({"fp1"})
        store.append(rec(2))
        assert fps == frozenset({"fp1"})  # snapshot, not a live view


class TestErrorSidecar:
    """Illegal-candidate persistence: the compact ``.errors.jsonl`` sidecar."""

    def test_record_and_dedup(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert store.record_error("fpX", "LegalityError: bad mapping")
        assert not store.record_error("fpX", "LegalityError: bad mapping")
        assert store.record_error("fpY", "ValueError: too many PEs")
        store.close()
        assert store.errors_path.name == "r.errors.jsonl"
        lines = [json.loads(l) for l in store.errors_path.read_text().splitlines()]
        assert [e["fingerprint"] for e in lines] == ["fpX", "fpY"]

    def test_resume_reloads_errors(self, tmp_path):
        with ResultStore(tmp_path / "r.jsonl") as store:
            store.record_error("fpX", "LegalityError: nope")
        resumed = ResultStore(tmp_path / "r.jsonl")
        assert resumed.errors() == {"fpX": "LegalityError: nope"}
        assert not resumed.record_error("fpX", "LegalityError: nope")
        resumed.close()
        assert len(resumed.errors_path.read_text().splitlines()) == 1

    def test_no_resume_truncates_sidecar(self, tmp_path):
        with ResultStore(tmp_path / "r.jsonl") as store:
            store.append(rec(1))
            store.record_error("fpX", "boom")
        fresh = ResultStore(tmp_path / "r.jsonl", resume=False)
        assert fresh.errors() == {}
        assert not fresh.errors_path.exists()
        fresh.close()

    def test_sidecar_heals_torn_final_line(self, tmp_path):
        with ResultStore(tmp_path / "r.jsonl") as store:
            store.record_error("fpX", "boom")
        sidecar = store.errors_path
        with sidecar.open("a") as fh:
            fh.write('{"fingerprint": "fpY", "err')
        healed = ResultStore(tmp_path / "r.jsonl")
        assert healed.errors() == {"fpX": "boom"}
        assert healed.record_error("fpY", "bang")  # in-flight entry redone
        healed.close()

    def test_records_file_unpolluted(self, tmp_path):
        """Error entries must never appear in the record archive."""
        with ResultStore(tmp_path / "r.jsonl") as store:
            store.append(rec(1))
            store.record_error("fpX", "boom")
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 1

class TestIndexSidecar:
    """Reopen without an index sidecar: one full scan rebuilds the
    in-memory offset index; ``.index.json`` files left by older runs are
    ignored."""

    def test_reopen_is_one_full_scan_and_loads_lazily(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            for i in range(5):
                store.append(rec(i, schema=2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

        again = ResultStore(path)
        assert again.io_stats["full_scans"] == 1
        assert len(again) == 5
        assert "fp3" in again
        assert again.fingerprint_schemas()["fp3"] == 2
        # the scan kept offsets, not record contents...
        assert again.io_stats["record_loads"] == 0
        # ...which load lazily, one line per request
        assert again.record_for("fp3")["cycles"] == 103
        assert again.io_stats["record_loads"] == 1
        again.close()

    def test_stale_index_with_torn_tail_heals(self, tmp_path):
        """Another writer appended past the last close, then was killed
        mid-append: the reopen keeps its whole record and heals the tear."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec(2), sort_keys=True) + "\n")
            fh.write('{"fingerprint": "fp3", "cyc')  # killed mid-append

        healed = ResultStore(path)
        assert len(healed) == 2
        assert "fp3" not in healed
        assert healed.append(rec(3))
        healed.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["fingerprint"] for r in lines] == ["fp1", "fp2", "fp3"]

    def test_torn_index_json_rebuilds_from_archive(self, tmp_path):
        """A sidecar left by an older run is ignored and left untouched:
        the open reads the archive alone."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
            store.append(rec(2))
        leftover = tmp_path / "r.index.json"
        leftover.write_text('{"index_schema": 1, "store_byt')  # torn

        rebuilt = ResultStore(path)
        assert rebuilt.io_stats["full_scans"] == 1
        assert len(rebuilt) == 2
        assert rebuilt.append(rec(3))
        rebuilt.close()
        assert leftover.read_text() == '{"index_schema": 1, "store_byt'

    def test_replaced_archive_defeats_stale_offsets(self, tmp_path):
        """A JSONL swapped wholesale between opens is read afresh: the
        offsets come from this open's scan, never from an earlier one."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
        replacement = "".join(
            json.dumps(rec(i, note="x" * 40), sort_keys=True) + "\n"
            for i in (7, 8, 9)
        )
        path.write_text(replacement)

        reopened = ResultStore(path)
        assert set(reopened.fingerprints) == {"fp7", "fp8", "fp9"}
        assert reopened.record_for("fp8")["cycles"] == 108
        reopened.close()

    def test_trailing_blank_lines_do_not_skew_offsets(self, tmp_path):
        """Blank lines at EOF carry no record but occupy bytes; the size
        accounting must cover them or every offset appended afterwards
        lands short and ``record_for`` reads the wrong line."""
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(rec(1), sort_keys=True) + "\n\n\n"  # hand-edited file
        )
        store = ResultStore(path)
        assert store.append(rec(2))
        store._loaded.clear()  # force the append's offset to be used
        assert store.record_for("fp2")["cycles"] == 102
        store.close()

        again = ResultStore(path)
        assert again.record_for("fp2")["cycles"] == 102  # offsets correct
        assert again.record_for("fp1")["cycles"] == 101
        again.close()

    def test_records_order_preserved_through_index(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            for i in (3, 1, 2):
                store.append(rec(i))
        again = ResultStore(path)
        assert [r["fingerprint"] for r in again.records()] == ["fp3", "fp1", "fp2"]
        again.close()

    def test_peek_is_read_only_and_counts_tags(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1, dataset="mutag"))
            store.append(rec(2, dataset="mutag"))
            store.append(rec(3, dataset="cora", hw="big"))
        # a torn in-flight append from a live campaign
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "fp4"')
        before = path.read_bytes()

        peek = ResultStore.peek(path)
        assert peek["records"] == 3
        assert peek["unit_counts"] == {"mutag": 2, "cora@big": 1}
        assert path.read_bytes() == before  # never healed, never rewritten

    def test_peek_without_index_streams_the_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(rec(1, dataset="mutag"), sort_keys=True) + "\n"
        )
        peek = ResultStore.peek(path)
        assert peek == {"records": 1, "unit_counts": {"mutag": 1}}
        assert ResultStore.peek(tmp_path / "missing.jsonl")["records"] == 0


class TestReadOnlyContract:
    def test_peek_and_snapshot_agree_and_write_nothing(self, tmp_path):
        """``peek`` and ``snapshot`` read through the same read-only scan:
        both leave out a corrupt mid-file line and a complete final record
        still missing its newline (a writer mid-append), and neither
        touches a byte on disk."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1, dataset="mutag"))
            store.record_error("fpX", "boom")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "fp-torn", "cyc\n')  # corrupt mid-file
            fh.write(json.dumps(rec(2, dataset="mutag")) + "\n")
            fh.write(json.dumps(rec(3, dataset="mutag")) + "\n")
            fh.write(json.dumps(rec(4, dataset="mutag")))  # not yet terminated
        with store.errors_path.open("a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "fpY", "error": "bang"}')  # in flight
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        peek = ResultStore.peek(path)
        snap = ResultStore.snapshot(path)
        assert peek["records"] == len(snap) == 3
        assert peek["unit_counts"] == {"mutag": 3}
        assert [r["fingerprint"] for r in snap.records] == ["fp1", "fp2", "fp3"]
        assert snap.errors == {"fpX": "boom"}
        assert snap.covered_bytes == len(before["r.jsonl"].rsplit(b"\n", 1)[0]) + 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestWarmStartViaIndex:
    def test_session_warm_start_does_not_scan_the_jsonl(
        self, tmp_path, monkeypatch
    ):
        """A session warm-starting against an opened store parses no
        record content beyond the open's one scan — warm hits later seek
        to single lines on demand."""
        from repro.arch.config import AcceleratorConfig
        from repro.campaign.session import ExplorationSession
        from repro.core.configs import PAPER_CONFIGS
        from repro.core.workload import workload_from_dataset
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        hw = AcceleratorConfig(num_pes=128)
        candidates = [
            (cfg.dataflow(), cfg.hint, {"config": name})
            for name, cfg in PAPER_CONFIGS.items()
        ]
        with ResultStore(tmp_path / "r.jsonl") as store:
            first = ExplorationSession(store=store)
            first.evaluator(wl, hw).evaluate(candidates)

        store = ResultStore(tmp_path / "r.jsonl")
        assert store.io_stats["full_scans"] == 1
        monkeypatch.setattr(
            ResultStore,
            "_full_scan",
            lambda self: pytest.fail("warm start must not rescan the JSONL"),
        )
        warm = ExplorationSession(store=store)
        assert warm.warm_size == len(candidates)
        # preload itself parsed nothing
        assert store.io_stats["record_loads"] == 0
        outcomes = warm.evaluator(wl, hw).evaluate(candidates)
        assert warm.stats.evaluated == 0
        assert warm.stats.warm_hits == len(candidates)
        assert all(o.ok and o.record is not None for o in outcomes)
        # exactly one lazy line-read per distinct warm hit
        assert store.io_stats["record_loads"] == len(candidates)
        store.close()


class TestRecordsInOnePass:
    def test_records_equal_the_per_record_path(self, tmp_path, monkeypatch):
        """``records()`` loads every unparsed record through one open and
        gives what one ``record_for`` per fingerprint gives: first
        appearance order, later duplicate-fingerprint lines collapsed,
        already parsed records reused."""
        import pathlib

        path = tmp_path / "r.jsonl"
        lines = [
            rec(1), rec(2), rec(1, cycles=999), {"cycles": 7, "config": "X"},
            rec(3), rec(2, cycles=998), rec(4),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))

        reference = ResultStore(path)
        want = [reference.record_for(fp) for fp in reference._order]
        assert [r["cycles"] for r in want] == [101, 102, 7, 103, 104]

        store = ResultStore(path)
        early = store.record_for("fp3")
        opens = []
        real_open = pathlib.Path.open
        monkeypatch.setattr(
            pathlib.Path, "open",
            lambda self, *a, **k: opens.append(self) or real_open(self, *a, **k),
        )
        got = store.records()
        assert got == want
        assert opens == [path]
        assert store.io_stats["record_loads"] == len(want)
        assert got[3] is early
        assert store.records() == want
        assert opens == [path]  # everything is cached now


class TestCompaction:
    def _duplicate_archive(self, tmp_path):
        """A store whose file was doubled by an uncoordinated writer."""
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
            store.append(rec(2))
            store.record_error("fpX", "boom")
        path.write_text(path.read_text() * 2)
        errors = store.errors_path
        errors.write_text(errors.read_text() * 2)
        return path

    def test_compact_drops_duplicate_lines(self, tmp_path):
        path = self._duplicate_archive(tmp_path)
        store = ResultStore(path)
        assert len(store) == 2  # dedup already ignores the copies
        stats = store.compact()
        store.close()
        assert stats["records_kept"] == 2
        assert stats["lines_dropped"] == 2
        assert stats["bytes_after"] < stats["bytes_before"]
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["fingerprint"] for r in lines] == ["fp1", "fp2"]

    def test_compacted_store_reopens_via_fresh_index(self, tmp_path):
        """The reopen's scan of a compacted archive finds no duplicates."""
        path = self._duplicate_archive(tmp_path)
        with ResultStore(path) as store:
            store.compact()
        again = ResultStore(path)
        assert again.compact()["lines_dropped"] == 0
        assert [r["fingerprint"] for r in again.records()] == ["fp1", "fp2"]
        again.close()

    def test_compact_dedups_error_sidecar(self, tmp_path):
        path = self._duplicate_archive(tmp_path)
        store = ResultStore(path)
        stats = store.compact()
        store.close()
        assert stats["errors_kept"] == 1
        assert stats["errors_dropped"] == 1
        assert len(store.errors_path.read_text().splitlines()) == 1

    def test_compact_survives_reuse_after(self, tmp_path):
        path = self._duplicate_archive(tmp_path)
        store = ResultStore(path)
        store.compact()
        assert store.append(rec(5))
        assert not store.append(rec(1))
        store.close()
        assert [r["fingerprint"] for r in ResultStore(path).records()] == [
            "fp1", "fp2", "fp5",
        ]


class TestErrorSidecarWarmIntegration:
    def test_warm_error_cache_stops_reprobing(self, tmp_path):
        """A resumed session answers known-illegal candidates from the
        sidecar: zero cost-model runs, outcome still reports the error."""
        from repro.arch.config import AcceleratorConfig
        from repro.campaign.session import ExplorationSession
        from repro.core.configs import paper_dataflow
        from repro.core.evaluator import ExplicitTiles
        from repro.core.workload import workload_from_dataset
        from repro.engine.gemm import GemmTiling
        from repro.engine.spmm import SpmmTiling
        from repro.graphs.datasets import load_dataset

        wl = workload_from_dataset(load_dataset("mutag"))
        hw = AcceleratorConfig(num_pes=64)
        df, _ = paper_dataflow("SP1")
        bad = ExplicitTiles(SpmmTiling(64, 64, 1), GemmTiling(1, 1, 1))

        with ResultStore(tmp_path / "r.jsonl") as store:
            first = ExplorationSession(store=store)
            out = first.evaluator(wl, hw).evaluate_one(df, bad)
            assert not out.ok
            assert first.stats.errors == 1
            assert first.stats.errors_persisted == 1

        with ResultStore(tmp_path / "r.jsonl") as store2:
            second = ExplorationSession(store=store2)
            assert second.warm_error_size == 1
            out2 = second.evaluator(wl, hw).evaluate_one(df, bad)
            assert not out2.ok and out2.error == out.error
            assert second.stats.evaluated == 0
            assert second.stats.warm_hits == 1


class TestSnapshot:
    def test_missing_path_gives_empty_snapshot(self, tmp_path):
        snap = ResultStore.snapshot(tmp_path / "nope.jsonl")
        assert len(snap) == 0
        assert snap.covered_bytes == 0
        assert snap.fingerprints == frozenset()

    def test_snapshot_matches_store_contents(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.extend([rec(1), rec(2), rec(3)])
        snap = ResultStore.snapshot(path)
        assert [r["fingerprint"] for r in snap.records] == ["fp1", "fp2", "fp3"]
        assert snap.fingerprints == {"fp1", "fp2", "fp3"}
        assert snap.covered_bytes == path.stat().st_size

    def test_snapshot_dedups_like_a_resume(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps(rec(1)) + "\n")
            fh.write(json.dumps(rec(1, cycles=999)) + "\n")  # dup fingerprint
            fh.write(json.dumps(rec(2)) + "\n")
        snap = ResultStore.snapshot(path)
        assert [r["cycles"] for r in snap.records] == [101, 102]

    def test_inflight_final_line_excluded_then_picked_up(self, tmp_path):
        """A torn (un-terminated) trailing line is invisible to the
        snapshot and excluded from its cursor, so the incremental refresh
        reads it exactly once after the writer's newline lands."""
        path = tmp_path / "r.jsonl"
        full = json.dumps(rec(1)) + "\n"
        partial = json.dumps(rec(2))[:10]  # writer mid-append
        path.write_text(full + partial)

        snap = ResultStore.snapshot(path)
        assert [r["fingerprint"] for r in snap.records] == ["fp1"]
        assert snap.covered_bytes == len(full.encode())

        # The writer finishes the append.
        path.write_text(full + json.dumps(rec(2)) + "\n")
        fresh = ResultStore.snapshot(path, since=snap)
        assert [r["fingerprint"] for r in fresh.records] == ["fp1", "fp2"]
        assert fresh.covered_bytes == path.stat().st_size

    def test_incremental_refresh_shares_prefix(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.extend([rec(1), rec(2)])
        snap = ResultStore.snapshot(path)
        store.extend([rec(3), rec(4)])
        fresh = ResultStore.snapshot(path, since=snap)
        store.close()
        # New records are exactly the suffix past the old snapshot.
        assert [r["fingerprint"] for r in fresh.records[len(snap.records):]] == [
            "fp3", "fp4",
        ]
        # Prefix record objects are shared, not re-parsed copies.
        assert fresh.records[0] is snap.records[0]

    def test_shrunk_archive_falls_back_to_full_reread(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.extend([rec(1), rec(2), rec(3)])
        snap = ResultStore.snapshot(path)
        # Archive replaced by a shorter one (compaction, manual edit).
        path.write_text(json.dumps(rec(9)) + "\n")
        fresh = ResultStore.snapshot(path, since=snap)
        assert [r["fingerprint"] for r in fresh.records] == ["fp9"]

    def test_snapshot_sees_error_sidecar(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(path) as store:
            store.append(rec(1))
            store.record_error("fpbad", "illegal tiling")
        snap = ResultStore.snapshot(path)
        assert snap.errors == {"fpbad": "illegal tiling"}

    def test_reader_never_writes_while_attached(self, tmp_path):
        """The read-only contract: snapshotting a live store must not
        modify any file the writer owns."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(rec(1))
        before = {
            p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()
        }
        ResultStore.snapshot(path)
        after = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        store.close()
        assert after == before

    def test_concurrent_writer_and_snapshot_readers(self, tmp_path):
        """A snapshot taken at any instant while a writer is appending is
        a consistent prefix: parseable, deduped, append-ordered, and never
        longer than what the writer has finished."""
        import threading

        path = tmp_path / "r.jsonl"
        total = 300
        snaps = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snaps.append(ResultStore.snapshot(path))

        t = threading.Thread(target=reader)
        t.start()
        try:
            with ResultStore(path) as store:
                for i in range(total):
                    store.append(rec(i, payload="x" * (i % 37)))
        finally:
            stop.set()
            t.join()

        final = ResultStore.snapshot(path)
        assert [r["fingerprint"] for r in final.records] == [
            f"fp{i}" for i in range(total)
        ]
        assert snaps, "reader thread never ran"
        for snap in snaps:
            n = len(snap.records)
            assert n <= total
            # Every snapshot is a prefix of the final append order.
            assert [r["fingerprint"] for r in snap.records] == [
                f"fp{i}" for i in range(n)
            ]
