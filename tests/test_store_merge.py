"""Edge cases for merging result stores (repro.distributed.merge).

``merge_stores`` is what turns K shard stores back into one serving
archive, so it has to shrug off exactly the damage a killed worker can
leave behind: torn final lines, duplicated sidecar entries, re-run
shards whose records overlap, and shards that never created a store.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.store import ResultStore
from repro.distributed import merge_stores


def rec(i: int, **extra) -> dict:
    return {"fingerprint": f"fp{i}", "cycles": 100 + i, "config": f"C{i}", **extra}


def make_store(path, records, errors=()):
    with ResultStore(path) as store:
        for record in records:
            store.append(record)
        for fingerprint, error in errors:
            store.record_error(fingerprint, error)
    return path


def read_fps(path):
    return [json.loads(l)["fingerprint"] for l in path.read_text().splitlines()]


class TestMergeStores:
    def test_disjoint_sources_concatenate(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1), rec(2)])
        b = make_store(tmp_path / "b.jsonl", [rec(3)])
        dest = tmp_path / "m.jsonl"
        acct = merge_stores(dest, [a, b])
        assert acct["records_added"] == 3
        assert acct["records_skipped"] == 0
        assert acct["dest_records"] == 3
        assert read_fps(dest) == ["fp1", "fp2", "fp3"]

    def test_overlap_first_source_wins(self, tmp_path):
        # A re-run shard persisted fp2 again — possibly under a newer
        # export schema.  First occurrence wins; the conflict is counted,
        # never silently double-written.
        a = make_store(tmp_path / "a.jsonl", [rec(1), rec(2, schema=1)])
        b = make_store(
            tmp_path / "b.jsonl", [rec(2, schema=2, cycles=999), rec(3)]
        )
        dest = tmp_path / "m.jsonl"
        acct = merge_stores(dest, [a, b])
        assert acct["records_seen"] == 4
        assert acct["records_added"] == 3
        assert acct["records_skipped"] == 1
        merged = {
            r["fingerprint"]: r
            for r in map(json.loads, dest.read_text().splitlines())
        }
        assert merged["fp2"]["schema"] == 1
        assert merged["fp2"]["cycles"] == 102

    def test_torn_final_line_in_source_is_dropped(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1), rec(2)])
        with a.open("a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "fp3", "cyc')  # SIGKILL mid-write
        dest = tmp_path / "m.jsonl"
        acct = merge_stores(dest, [a])
        assert acct["records_seen"] == 2
        assert read_fps(dest) == ["fp1", "fp2"]

    def test_duplicate_error_sidecar_entries_dedup(self, tmp_path):
        a = make_store(
            tmp_path / "a.jsonl", [rec(1)], errors=[("bad1", "illegal tile")]
        )
        # A crash-rerun shard can journal the same error line twice.
        errors_path = a.with_name("a.errors.jsonl")
        line = errors_path.read_text()
        errors_path.write_text(line + line, encoding="utf-8")
        b = make_store(
            tmp_path / "b.jsonl",
            [rec(2)],
            errors=[("bad1", "illegal tile"), ("bad2", "oom")],
        )
        dest = tmp_path / "m.jsonl"
        acct = merge_stores(dest, [a, b])
        assert acct["errors_seen"] == 3  # snapshots pre-dedup within a file
        assert acct["errors_added"] == 2
        assert acct["errors_skipped"] == 1
        snap = ResultStore.snapshot(dest)
        assert snap.errors == {"bad1": "illegal tile", "bad2": "oom"}

    def test_merge_with_itself_is_idempotent(self, tmp_path):
        a = make_store(
            tmp_path / "a.jsonl", [rec(1), rec(2)], errors=[("bad1", "x")]
        )
        before = a.read_bytes()
        acct = merge_stores(a, [a])
        assert acct["records_added"] == 0
        assert acct["records_skipped"] == 2
        assert acct["errors_added"] == 0
        assert a.read_bytes() == before

    def test_remerge_same_sources_adds_nothing(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        b = make_store(tmp_path / "b.jsonl", [rec(2)])
        dest = tmp_path / "m.jsonl"
        first = merge_stores(dest, [a, b])
        second = merge_stores(dest, [a, b])
        assert first["records_added"] == 2
        assert second["records_added"] == 0
        assert second["records_skipped"] == 2
        assert read_fps(dest) == ["fp1", "fp2"]

    def test_missing_sources_recorded_not_raised(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        ghost = tmp_path / "never-created.jsonl"
        acct = merge_stores(tmp_path / "m.jsonl", [a, ghost])
        assert acct["sources"] == [str(a)]
        assert acct["missing_sources"] == [str(ghost)]
        assert acct["records_added"] == 1

    def test_no_resume_rebuilds_destination(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        dest = make_store(tmp_path / "m.jsonl", [rec(9)])
        acct = merge_stores(dest, [a], resume=False)
        assert acct["records_added"] == 1
        assert read_fps(dest) == ["fp1"]  # stale fp9 discarded

    def test_live_destination_store_stays_open(self, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        with ResultStore(tmp_path / "m.jsonl") as dest:
            acct = merge_stores(dest, [a])
            assert acct["records_added"] == 1
            assert dest.append(rec(2))  # caller still owns the handle
        assert read_fps(dest.path) == ["fp1", "fp2"]


class TestMergeCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_store_merge_json(self, capsys, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        b = make_store(tmp_path / "b.jsonl", [rec(1), rec(2)])
        dest = tmp_path / "m.jsonl"
        out = self.run_cli(
            capsys,
            "store",
            "merge",
            str(dest),
            str(a),
            str(b),
            "--json",
        )
        acct = json.loads(out)
        assert acct["records_added"] == 2
        assert acct["records_skipped"] == 1
        assert acct["dest_records"] == 2

    def test_store_merge_human_summary(self, capsys, tmp_path):
        a = make_store(tmp_path / "a.jsonl", [rec(1)])
        ghost = tmp_path / "ghost.jsonl"
        out = self.run_cli(
            capsys, "store", "merge", str(tmp_path / "m.jsonl"), str(a), str(ghost)
        )
        assert "+1 records" in out
        assert "1 missing source(s)" in out

    def test_run_merge_compact_leave_only_archives_and_journals(
        self, capsys, tmp_path
    ):
        """A store is its JSONL file: ``campaign run``, ``store merge`` and
        ``store compact`` leave archives, error sidecars and the checkpoint
        files behind, and nothing else."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "out",
                    "datasets": ["mutag"],
                    "source": {"kind": "random", "n": 60},
                    "hardware": [{"num_pes": 64}],
                }
            )
        )
        out = tmp_path / "out"
        self.run_cli(
            capsys, "campaign", "run", "--spec", str(spec),
            "--out", str(out / "run.jsonl"),
            "--checkpoint", str(out / "run.ckpt.jsonl"),
        )
        self.run_cli(
            capsys, "store", "merge", str(out / "m.jsonl"), str(out / "run.jsonl")
        )
        self.run_cli(capsys, "store", "compact", str(out / "m.jsonl"))
        assert sorted(p.name for p in out.iterdir()) == [
            "m.errors.jsonl",
            "m.jsonl",
            "run.ckpt.jsonl",
            "run.ckpt.jsonl.stats.json",
            "run.errors.jsonl",
            "run.jsonl",
        ]
        assert (out / "m.jsonl").read_bytes() == (out / "run.jsonl").read_bytes()
