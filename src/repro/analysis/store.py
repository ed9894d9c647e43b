"""Persistent JSONL store for design-space evaluation records.

Extends :mod:`repro.analysis.export`'s one-object-per-line schema with
append/resume/dedup semantics so long sweep campaigns survive restarts:
reopening an existing store indexes the fingerprints already on disk and
silently skips re-appending them.  Records are keyed by the candidate
fingerprint the evaluation service computes
(:func:`repro.core.evaluator.candidate_fingerprint`); records lacking one
fall back to a content hash of their canonical JSON encoding.

Dedup is *evaluation*-keyed: two sweep points that map to the same
fingerprint (e.g. a normalization baseline and its swept twin) persist a
single record, so sweep coordinates for duplicates live in the sweep's
returned rows, not in extra archive lines.

A store is its JSONL file; two sidecars ride along:

- ``<store>.errors.jsonl`` — one ``{fingerprint, error}`` line per
  distinct illegal mapping, so a resumed campaign answers known-bad
  candidates from disk instead of re-probing them through the cost model;
- ``<store>.quarantine.jsonl`` — corrupted lines found *mid-file* (a torn
  fragment another writer appended past, bit rot) are **quarantined, not
  fatal**: the scan records ``{offset, line_no, bytes, preview}`` here,
  skips the line in place (no bytes move, so every later offset stays
  valid), and resumes.  Only a torn *final* line is physically healed.
  :meth:`ResultStore.compact` drops quarantined lines from the rewritten
  archive and reports them.

The archive itself stays pure export-schema lines that downstream tooling
can consume unfiltered; :meth:`ResultStore.compact` rewrites it in place
to drop duplicate-fingerprint lines accumulated by uncoordinated writers.

Every file here is read by one scanner, :func:`_scan_jsonl`, in one of
two modes: the *owner* mode of a resuming open heals the tail, the
*read-only* mode of :meth:`ResultStore.peek` / :meth:`ResultStore.snapshot`
never writes and stops at the last newline.  A resuming open is one full
scan that keeps each record's byte offset, not its contents:
:meth:`ResultStore.record_for` seeks to one line on demand.

All mutating methods take an internal lock, so one store instance may be
shared by several threads (serving's query workers).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Mapping

from ..faults.injector import fault_point
from .export import record_to_json

__all__ = [
    "ResultStore",
    "StoreSnapshot",
    "read_jsonl_healing",
]


def read_jsonl_healing(path: Path, *, heal: bool, on_corrupt) -> list[dict]:
    """Every record of a JSONL journal, read by :func:`_scan_jsonl`.

    ``heal=True`` is the path owner's mode, ``heal=False`` the read-only
    mode; ``on_corrupt(offset, raw_line, line_no)`` decides what a
    malformed mid-file line does (raise, quarantine, or skip).  Shared by
    the result store, its sidecars, and the campaign checkpoint so the
    healing semantics can never drift apart.
    """
    records: list[dict] = []
    _scan_jsonl(
        path, heal=heal, on_corrupt=on_corrupt,
        on_record=lambda offset, record: records.append(record),
    )
    return records


def _skip(offset: int, raw: bytes, line_no: int) -> None:
    """``on_corrupt`` for readers that simply step over a malformed line."""


def _scan_jsonl(
    path: Path, *, heal: bool, on_record, on_corrupt, start: int = 0
) -> int:
    """The one JSONL scanner: feed each record to ``on_record(offset,
    record)`` from byte ``start``; returns the byte cursor the scan covers.

    Two modes, chosen by who may touch the file:

    - **owner** (``heal=True``) repairs the two EOF states a kill can
      leave.  A torn partial final line is truncated away; a *valid*
      final line missing its newline (killed between the record write
      and the newline write) is kept and newline-terminated so the next
      append starts on a fresh line.  Only the path's owner may do this:
      a concurrent writer might still be appending the bytes that look
      torn.
    - **read-only** (``heal=False``) never writes: whatever follows the
      last newline is the writer's append in flight, left out of the
      records *and* of the returned cursor.

    A newline-terminated line that is not a JSON object is mid-file
    corruption (a torn fragment another writer appended past, bit rot):
    ``on_corrupt(offset, raw_line, line_no)`` raises, quarantines, or
    skips it; its bytes stay in place so every later offset holds.  The
    cursor covers blank lines too (they occupy bytes; losing them would
    skew every later offset).  With ``start > 0`` line numbers count from
    the scanned suffix.
    """
    offset = start
    tail = None  # the unterminated final line, if any
    with path.open("rb") as fh:
        fh.seek(start)
        for line_no, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                tail = line
                break
            if line.strip():
                try:
                    record = _loads_object(line)
                except ValueError:
                    on_corrupt(offset, line[:-1], line_no)
                else:
                    on_record(offset, record)
            offset += len(line)
    if tail is None or not heal:
        return offset
    try:
        record = _loads_object(tail)
    except ValueError:
        with path.open("r+b") as fh:
            fh.truncate(offset)
        return offset
    with path.open("ab") as fh:
        fh.write(b"\n")
    on_record(offset, record)
    return offset + len(tail) + 1


def _loads_object(line: bytes) -> dict:
    """One JSONL line as a record; ``ValueError`` unless a JSON object."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return record


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable read-only view of a store taken at one instant.

    Produced by :meth:`ResultStore.snapshot` — see its docstring for the
    concurrent-reader contract.  ``covered_bytes`` is the archive byte
    cursor the snapshot's records account for; feed the whole snapshot
    back as ``since=`` to refresh incrementally.  ``age()`` measures how
    stale the view is, which is what a serving index's ``max_staleness``
    knob compares against.
    """

    path: Path
    records: list  # first-occurrence order, fingerprint-deduped
    fingerprints: frozenset
    errors: dict = field(default_factory=dict)  # error-sidecar entries
    covered_bytes: int = 0
    taken_at: float = 0.0

    def age(self, now: float | None = None) -> float:
        """Seconds since this snapshot was taken."""
        return (time.time() if now is None else now) - self.taken_at

    def __len__(self) -> int:
        return len(self.records)


class ResultStore:
    """Append-only, deduplicated JSONL record archive.

    Parameters
    ----------
    path:
        The ``.jsonl`` file backing the store; parent directories are
        created on first append.
    resume:
        When true (default) and ``path`` exists, one scan of its records
        seeds the dedup index, so a restarted campaign skips work already
        persisted.  ``resume=False`` truncates the file (and sidecars)
        instead.
    """

    def __init__(self, path: str | Path, *, resume: bool = True) -> None:
        self.path = Path(path)
        self.errors_path = self.path.with_name(self.path.stem + ".errors.jsonl")
        self.quarantine_path = self.path.with_name(
            self.path.stem + ".quarantine.jsonl"
        )
        self._lock = threading.RLock()
        self._fingerprints: set[str] = set()
        self._offsets: dict[str, int] = {}
        self._schemas: dict[str, int | None] = {}  # explicit-fingerprint records only
        self._tag_counts: dict[str, int] = {}
        self._order: list[str] = []  # fingerprints in first-appearance order
        self._loaded: dict[str, dict] = {}  # lazily parsed record contents
        self._errors: dict[str, str] = {}
        self._size = 0  # archive bytes covered by the in-memory index
        self._duplicate_lines = 0  # same-fingerprint lines seen on disk
        self._quarantine_offsets: set[int] | None = None  # lazily loaded
        self._fh: IO[str] | None = None
        self._err_fh: IO[str] | None = None
        self.io_stats = {"full_scans": 0, "record_loads": 0, "quarantined_lines": 0}
        if self.path.exists():
            if resume:
                self._full_scan()
            else:
                self.path.unlink()
                if self.quarantine_path.exists():
                    self.quarantine_path.unlink()
        if self.errors_path.exists():
            if resume:
                self._errors = self._recover_errors()
            else:
                self.errors_path.unlink()

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------

    def _full_scan(self) -> None:
        """Rebuild the in-memory index from one owner-mode archive scan."""
        self.io_stats["full_scans"] += 1
        self._size = _scan_jsonl(
            self.path, heal=True, on_record=self._adopt, on_corrupt=self._quarantine
        )

    def _quarantine(self, offset: int, raw: bytes, line_no: int) -> None:
        """Record one corrupt mid-file line and keep going.

        The line's bytes stay exactly where they are (rewriting the
        archive under a resuming campaign would invalidate every later
        offset); the sidecar entry is what ``store compact`` reports and
        what lets an operator recover the damaged payload.  Re-scans of
        the same bytes (a later reopen) dedup by offset.
        """
        self.io_stats["quarantined_lines"] += 1
        if self._quarantine_offsets is None:
            self._quarantine_offsets = set()
            if self.quarantine_path.exists():
                for entry in read_jsonl_healing(
                    self.quarantine_path, heal=True, on_corrupt=_skip
                ):
                    self._quarantine_offsets.add(entry.get("offset"))
        if offset in self._quarantine_offsets:
            return
        self._quarantine_offsets.add(offset)
        entry = {
            "offset": offset,
            "line_no": line_no,
            "bytes": len(raw) + 1,
            "preview": raw[:160].decode("utf-8", errors="replace"),
        }
        with self.quarantine_path.open("a", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def _adopt(self, offset: int, record: dict) -> None:
        """Index one on-disk record (first fingerprint occurrence wins)."""
        fp = self.record_fingerprint(record)
        if fp in self._fingerprints:
            self._duplicate_lines += 1
            return
        self._fingerprints.add(fp)
        self._offsets[fp] = offset
        self._order.append(fp)
        if record.get("fingerprint"):
            self._schemas[fp] = record.get("schema")
        tag = self._record_tag(record)
        if tag is not None:
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1

    def _recover_errors(self) -> dict[str, str]:
        """Index the error sidecar, healing a torn final line the same way
        the record archive does.  The sidecar is advisory (worst case a
        known-bad candidate is re-probed once), so corrupt mid-file
        entries are skipped rather than quarantined or fatal."""
        return _error_map(
            read_jsonl_healing(self.errors_path, heal=True, on_corrupt=_skip)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def record_fingerprint(record: Mapping) -> str:
        """The record's dedup key: its fingerprint field, else a content hash."""
        fp = record.get("fingerprint")
        if fp:
            return str(fp)
        blob = record_to_json(record).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:32]

    @staticmethod
    def _record_tag(record: Mapping) -> str | None:
        """The record's campaign-unit attribution (``dataset[@hw-label]``).

        Single-hardware-point campaigns deliberately omit the ``hw`` field
        (records stay byte-identical to the legacy CLI), so their tag is
        the bare dataset name; ``repro campaign status`` resolves that
        against the spec's grid.
        """
        ds = record.get("dataset")
        if not ds:
            return None
        hw = record.get("hw")
        return f"{ds}@{hw}" if hw else str(ds)

    # ------------------------------------------------------------------
    def append(self, record: Mapping) -> bool:
        """Persist ``record`` unless its fingerprint is already stored.

        Returns ``True`` when a line was written, ``False`` on a dedup
        skip.  Lines are flushed eagerly so a killed campaign loses at
        most the record in flight.
        """
        with self._lock:
            fp = self.record_fingerprint(record)
            if fp in self._fingerprints:
                return False
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # newline="" disables universal-newline translation: the
                # byte-offset accounting requires one written "\n" to be
                # exactly one byte.
                self._fh = self.path.open("a", encoding="utf-8", newline="")
            line = record_to_json(record)
            act = fault_point("store.append")
            if act is not None:
                # Cooperative torn/short write: flush a prefix of the line
                # (no newline) exactly as a crash mid-append would leave
                # it, then fail.  _size advances past the fragment so any
                # caller that survives the exception keeps valid offsets;
                # the fragment becomes a mid-file quarantine candidate.
                cut = len(line) // 2 if act.kind == "torn_write" else len(line) // 4
                fragment = line[: max(1, cut)]
                self._fh.write(fragment)
                self._fh.flush()
                self._size += len(fragment.encode("utf-8"))
                act.raise_injected()
            self._fh.write(line)
            self._fh.write("\n")
            self._fh.flush()
            offset = self._size
            self._adopt(offset, dict(record))
            self._loaded[fp] = dict(record)
            self._size = offset + len(line.encode("utf-8")) + 1
            return True

    def extend(self, records: Iterator[Mapping] | list) -> int:
        """Append many records; returns how many were newly written."""
        return sum(1 for record in records if self.append(record))

    # ------------------------------------------------------------------
    def record_error(self, fingerprint: str, error: str) -> bool:
        """Persist an illegal-candidate outcome to the error sidecar.

        Returns ``True`` when a line was written, ``False`` on a dedup
        skip.  Keyed by the same candidate fingerprint as the record
        archive, so the warm cache can answer known-bad candidates from
        disk without ever re-running the cost model on them.
        """
        with self._lock:
            fp = str(fingerprint)
            if fp in self._errors:
                return False
            if self._err_fh is None:
                self.errors_path.parent.mkdir(parents=True, exist_ok=True)
                self._err_fh = self.errors_path.open(
                    "a", encoding="utf-8", newline=""
                )
            line = json.dumps(
                {"fingerprint": fp, "error": str(error)}, sort_keys=True
            )
            act = fault_point("store.error_append")
            if act is not None:
                self._err_fh.write(line[: max(1, len(line) // 2)])
                self._err_fh.flush()
                act.raise_injected()
            self._err_fh.write(line)
            self._err_fh.write("\n")
            self._err_fh.flush()
            self._errors[fp] = str(error)
            return True

    def errors(self) -> dict[str, str]:
        """All persisted illegal-candidate outcomes, fingerprint-keyed."""
        with self._lock:
            return dict(self._errors)

    # ------------------------------------------------------------------
    # Lazy record access
    # ------------------------------------------------------------------

    def record_for(self, fingerprint: str) -> dict:
        """The record behind one fingerprint, parsed on demand.

        Seeks straight to the record's byte offset — a warm start pays
        one line parse per warm *hit*; the open's scan keeps offsets, not
        record contents.  Parsed records are cached; treat them as
        read-only.
        """
        with self._lock:
            record = self._loaded.get(fingerprint)
            if record is None:
                offset = self._offsets[fingerprint]
                self.io_stats["record_loads"] += 1
                with self.path.open("rb") as fh:
                    fh.seek(offset)
                    record = json.loads(fh.readline())
                self._loaded[fingerprint] = record
            return record

    def records(self) -> list[dict]:
        """All records, in first-appearance order (duplicate-fingerprint
        lines collapse onto their first occurrence).

        The not-yet-parsed records load in one forward pass over one open
        file (first-appearance order is ascending offset order); the dicts
        are cached and shared, not copied — treat them as read-only.
        """
        with self._lock:
            missing = [fp for fp in self._order if fp not in self._loaded]
            if missing:
                self.io_stats["record_loads"] += len(missing)
                with self.path.open("rb") as fh:
                    for fp in missing:
                        fh.seek(self._offsets[fp])
                        self._loaded[fp] = json.loads(fh.readline())
            return [self._loaded[fp] for fp in self._order]

    def fingerprint_schemas(self) -> dict[str, int | None]:
        """Export-schema version per explicitly-fingerprinted record.

        Everything a warm cache needs to decide *which* fingerprints it
        can serve — without parsing a single record line.  Content-hash
        fallback keys are excluded: they can never match a candidate
        fingerprint, so serving them warm is impossible by construction.
        """
        with self._lock:
            return dict(self._schemas)

    def tag_counts(self) -> dict[str, int]:
        """Distinct-record counts per ``dataset[@hw]`` attribution tag."""
        with self._lock:
            return dict(self._tag_counts)

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    @classmethod
    def peek(cls, path: str | Path) -> dict:
        """Read-only progress snapshot (for ``repro campaign status``).

        Counts distinct records and per-``dataset[@hw]`` tags in one
        read-only scan.  Never writes, heals, or rebuilds anything: a
        concurrently running campaign may own the files.  An in-flight
        final line and corrupt mid-file lines are left out, exactly as
        :meth:`snapshot` leaves them out.
        """
        path = Path(path)
        fingerprints: set[str] = set()
        counts: dict[str, int] = {}

        def count(offset: int, record: dict) -> None:
            fp = cls.record_fingerprint(record)
            if fp not in fingerprints:
                fingerprints.add(fp)
                tag = cls._record_tag(record)
                if tag is not None:
                    counts[tag] = counts.get(tag, 0) + 1

        if path.exists():
            _scan_jsonl(path, heal=False, on_record=count, on_corrupt=_skip)
        return {"records": len(fingerprints), "unit_counts": counts}

    @classmethod
    def snapshot(
        cls, path: str | Path, *, since: "StoreSnapshot | None" = None
    ) -> "StoreSnapshot":
        """Lock-free, read-only snapshot of a store's record *contents*.

        The read-side contract for attaching to a store that a running
        campaign is still appending to (``repro serve`` over a live
        campaign store):

        - **never writes, heals, truncates, or locks anything** — the
          appending writer owns the files, and this reader touches only
          bytes;
        - an **in-flight final line** (torn, or simply not yet
          newline-terminated) is left out of the snapshot *and* out of
          its byte cursor, so the next snapshot re-reads it once the
          writer finishes the append;
        - the result is a **consistent prefix**: every record whose
          newline had landed on disk when the scan passed it, first
          fingerprint occurrence winning, in append order — exactly what
          a resuming ``ResultStore`` open would adopt for those bytes
          (corrupt mid-file lines, which that open quarantines, are
          skipped);
        - passing the previous snapshot as ``since`` makes the refresh
          **incremental**: only bytes appended after ``since`` are
          parsed (O(changed records)), with the earlier records shared,
          not copied.  A shrunk or replaced archive (size below the old
          cursor) falls back to a full re-read automatically.

        Returns an empty snapshot when the path does not exist yet.
        """
        path = Path(path)
        taken_at = time.time()
        records: list[dict] = []
        fingerprints: set[str] = set()
        start = 0
        if since is not None and Path(since.path) == path:
            try:
                if path.stat().st_size >= since.covered_bytes:
                    records = list(since.records)
                    fingerprints = set(since.fingerprints)
                    start = since.covered_bytes
            except OSError:
                pass

        def keep(offset: int, record: dict) -> None:
            fp = cls.record_fingerprint(record)
            if fp not in fingerprints:
                fingerprints.add(fp)
                records.append(record)

        covered = start
        if path.exists():
            covered = _scan_jsonl(
                path, start=start, heal=False, on_record=keep, on_corrupt=_skip
            )
        errors_path = path.with_name(path.stem + ".errors.jsonl")
        errors = (
            _error_map(read_jsonl_healing(errors_path, heal=False, on_corrupt=_skip))
            if errors_path.exists()
            else {}
        )
        return StoreSnapshot(
            path=path,
            records=records,
            fingerprints=frozenset(fingerprints),
            errors=errors,
            covered_bytes=covered,
            taken_at=taken_at,
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the archive keeping one line per fingerprint.

        Uncoordinated writers (two campaign shards appending to copies of
        the same store, or hand-concatenated archives) can leave
        duplicate-fingerprint lines that every future scan re-parses and
        re-discards.  Compaction rewrites the JSONL atomically with first
        occurrences only — corrupt lines previously quarantined in place
        drop out of the rewrite, and the quarantine sidecar is cleared —
        dedups the error sidecar the same way, and re-scans the rewritten
        archive.  Returns accounting, e.g.::

            {"records_kept": 18, "lines_dropped": 3, "lines_quarantined": 1,
             "bytes_before": ..., "bytes_after": ..., "errors_kept": 2,
             "errors_dropped": 0}
        """
        with self._lock:
            self.close()
            bytes_before = self.path.stat().st_size if self.path.exists() else 0
            lines_dropped = self._duplicate_lines
            lines_quarantined = _count_lines(self.quarantine_path)
            errors_before = _count_lines(self.errors_path)
            if self.path.exists():
                _rewrite_jsonl(self.path, map(record_to_json, self.records()))
            if self.errors_path.exists():
                _rewrite_jsonl(
                    self.errors_path,
                    (
                        json.dumps({"fingerprint": fp, "error": error}, sort_keys=True)
                        for fp, error in self._errors.items()
                    ),
                )
            # The rewrite kept only parsed records, so quarantined lines
            # are gone from the archive; retire their sidecar entries.
            if self.quarantine_path.exists():
                self.quarantine_path.unlink()
            self._quarantine_offsets = None
            # Re-index the rewritten archive from scratch: offsets moved.
            self._fingerprints.clear()
            self._offsets.clear()
            self._schemas.clear()
            self._tag_counts.clear()
            self._order.clear()
            self._loaded.clear()
            self._duplicate_lines = 0
            self._size = 0
            if self.path.exists():
                self._full_scan()
            return {
                "records_kept": len(self._order),
                "lines_dropped": lines_dropped,
                "lines_quarantined": lines_quarantined,
                "bytes_before": bytes_before,
                "bytes_after": self._size,
                "errors_kept": len(self._errors),
                "errors_dropped": errors_before - len(self._errors),
            }

    # ------------------------------------------------------------------
    @property
    def fingerprints(self) -> frozenset[str]:
        return frozenset(self._fingerprints)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if self._err_fh is not None:
                self._err_fh.close()
                self._err_fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _error_map(entries: list[dict]) -> dict[str, str]:
    """Error-sidecar entries as ``{fingerprint: error}``, first entry winning."""
    errors: dict[str, str] = {}
    for entry in entries:
        if entry.get("fingerprint"):
            errors.setdefault(str(entry["fingerprint"]), str(entry.get("error", "")))
    return errors


def _count_lines(path: Path) -> int:
    """Non-blank lines in ``path`` (0 when it does not exist)."""
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def _rewrite_jsonl(path: Path, lines) -> None:
    """Atomically replace ``path`` with ``lines``, one per line, fsynced."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
