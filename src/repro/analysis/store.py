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

Three sidecars ride along with the record archive:

- ``<store>.errors.jsonl`` — one ``{fingerprint, error}`` line per
  distinct illegal mapping, so a resumed campaign answers known-bad
  candidates from disk instead of re-probing them through the cost model;
- ``<store>.index.json`` — an **offset index**: per-record byte offsets,
  schema versions, and ``dataset@hw`` tags, written atomically (fsync +
  rename) whenever the in-memory index has caught up with the file.  A
  store opened with a valid index skips the full JSONL parse entirely:
  only the bytes appended *after* the index was written are scanned, so
  resume and warm-cache preload cost O(changed records), not O(store).
  A stale, torn, or mismatched index is silently rebuilt from a full scan.
- ``<store>.quarantine.jsonl`` — corrupted lines found *mid-file* (a torn
  fragment another writer appended past, bit rot) are **quarantined, not
  fatal**: the scan records ``{offset, line_no, bytes, preview}`` here,
  skips the line in place (no bytes move, so every later offset stays
  valid), and resumes.  Only a torn *final* line is physically healed.
  :meth:`ResultStore.compact` drops quarantined lines from the rewritten
  archive and reports them.
- the archive itself stays pure export-schema lines that downstream
  tooling can consume unfiltered; :meth:`ResultStore.compact` rewrites it
  in place to drop duplicate-fingerprint lines accumulated by
  uncoordinated writers (and refreshes the sidecars).

Record *contents* are loaded lazily: opening a store materializes only
the index, and :meth:`record_for` seeks to one line on demand.  The
``io_stats`` counters (``full_scans`` / ``tail_scans`` / ``record_loads``
/ ``index_used``) make the O(changed-records) claim testable.

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
from ..ioutil import atomic_write_text
from .export import record_to_json

__all__ = [
    "ResultStore",
    "StoreSnapshot",
    "read_jsonl_healing",
    "INDEX_SCHEMA",
]

INDEX_SCHEMA = 1

# Minimum appends between automatic index flushes: bounds how stale the
# sidecar can get when a campaign is killed without close(), i.e. how
# many tail records the next open has to re-scan.  The effective
# interval grows with the store (a flush rewrites the whole sidecar, so
# a fixed interval would cost O(N^2) over a long campaign); the tail
# scan that absorbs the staleness is O(interval) either way.
INDEX_FLUSH_EVERY = 512

# Bytes of the archive head folded into the index digest, guarding the
# offsets against the JSONL being replaced wholesale behind the sidecar.
_HEAD_DIGEST_BYTES = 4096


def read_jsonl_healing(
    path: Path, *, heal: bool, corrupt, on_quarantine=None
) -> list[dict]:
    """Parse a JSONL journal, tolerating a torn final line.

    A writer killed mid-append leaves a partial JSON line at EOF (possibly
    without its newline, which would corrupt the next append too).  That
    lone record in flight is always *ignored*; with ``heal=True`` it is
    also physically truncated away — only the path's owner may do that, a
    concurrent writer might still be appending the very bytes that look
    torn.  Malformed content anywhere else is real corruption: with
    ``on_quarantine(offset, raw_line, line_no)`` provided the bad line is
    reported and *skipped* (its bytes stay in place so later offsets hold);
    otherwise ``corrupt(line_no)`` must build the exception to raise.

    Shared by the result store, its error sidecar, and the campaign
    checkpoint so the healing semantics can never drift apart.
    """
    entries, _ = _scan_jsonl(
        path, start=0, heal=heal, corrupt=corrupt, on_quarantine=on_quarantine
    )
    return [rec for _, _, rec in entries]


def _scan_jsonl(
    path: Path, *, start: int, heal: bool, corrupt, on_quarantine=None
) -> tuple[list[tuple[int, int, dict]], int]:
    """Offset-aware JSONL scan from byte ``start``.

    Returns ``(entries, end)`` where entries are ``(offset, nbytes,
    record)`` with ``nbytes`` including the line's newline, and ``end``
    is the byte cursor the caller's size accounting must resume from —
    past any trailing blank lines (which carry no record but do occupy
    bytes; losing them would skew every later offset) and reflecting any
    healing performed.  Healing repairs the two EOF states a kill can
    leave: a torn partial line is truncated away, and a *valid* final
    line missing its newline (killed between the record write and the
    newline write) gets the newline appended so the next append starts
    on a fresh line.

    Malformed content anywhere *before* EOF is mid-file corruption — a
    torn fragment another writer appended past, or bit rot.  When the
    caller passes ``on_quarantine(offset, raw_line, line_no)`` the line
    is reported and skipped in place (bytes are never rewritten, so every
    later record's offset stays valid); without it, ``corrupt(line_no)``
    builds the exception to raise.  For tail scans (``start > 0``) line
    numbers are relative to the scanned suffix.
    """
    with path.open("rb") as fh:
        fh.seek(start)
        data = fh.read()
    entries: list[tuple[int, int, dict]] = []
    offset = start
    lines = data.split(b"\n")
    for i, line in enumerate(lines):
        final = i == len(lines) - 1
        if final and line == b"":
            break  # clean trailing newline; offset already covers the data
        if not line.strip():
            offset += len(line) + 1
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if not final:
                if on_quarantine is None:
                    raise corrupt(i + 1)
                on_quarantine(offset, line, i + 1)
                offset += len(line) + 1
                continue
            if heal:
                with path.open("r+b") as fh:
                    fh.truncate(offset)
            break
        if final:
            # Valid record, missing newline: keep it, repair the boundary.
            if heal:
                with path.open("ab") as fh:
                    fh.write(b"\n")
            entries.append((offset, len(line) + 1, record))
            offset += len(line) + 1
            break
        entries.append((offset, len(line) + 1, record))
        offset += len(line) + 1
    return entries, offset


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
        When true (default) and ``path`` exists, its records' fingerprints
        seed the dedup index, so a restarted campaign skips work already
        persisted.  With a fresh ``<store>.index.json`` sidecar this costs
        O(records appended since the index was written); without one, a
        single full scan that immediately writes the sidecar for the next
        open.  ``resume=False`` truncates the file (and sidecars) instead.
    """

    def __init__(self, path: str | Path, *, resume: bool = True) -> None:
        self.path = Path(path)
        self.errors_path = self.path.with_name(self.path.stem + ".errors.jsonl")
        self.index_path = self.path.with_name(self.path.stem + ".index.json")
        self.quarantine_path = self.path.with_name(
            self.path.stem + ".quarantine.jsonl"
        )
        self._lock = threading.RLock()
        self._fingerprints: set[str] = set()
        self._offsets: dict[str, int] = {}
        self._schemas: dict[str, int | None] = {}  # explicit-fingerprint records only
        self._tags: dict[str, str | None] = {}
        self._tag_counts: dict[str, int] = {}
        self._order: list[str] = []  # fingerprints in first-appearance order
        self._loaded: dict[str, dict] = {}  # lazily parsed record contents
        self._errors: dict[str, str] = {}
        self._size = 0  # archive bytes covered by the in-memory index
        self._duplicate_lines = 0  # same-fingerprint lines seen on disk
        self._quarantined_lines = 0  # corrupt mid-file lines skipped in place
        self._quarantine_offsets: set[int] | None = None  # lazily loaded
        self._appends_since_flush = 0
        self._index_dirty = False
        self._fh: IO[str] | None = None
        self._err_fh: IO[str] | None = None
        self.io_stats = {
            "full_scans": 0,
            "tail_scans": 0,
            "tail_records": 0,
            "record_loads": 0,
            "index_used": 0,
            "index_rebuilt": 0,
            "quarantined_lines": 0,
        }
        if self.path.exists():
            if resume:
                self._open_resume()
            else:
                self.path.unlink()
                if self.index_path.exists():
                    self.index_path.unlink()
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

    def _open_resume(self) -> None:
        """Rebuild the in-memory index: from the sidecar when it is valid
        (plus an O(changed) tail scan), from a full archive scan otherwise
        — after which the sidecar is written so the *next* open is cheap."""
        loaded = self._load_index()
        if loaded is not None:
            self.io_stats["index_used"] += 1
            if self._size < self.path.stat().st_size:
                self._scan_tail(self._size)
        else:
            self._full_scan()
        # Keep the sidecar covering everything just scanned; a killed
        # campaign then costs the next open only its un-indexed suffix.
        if self._index_dirty:
            self.write_index()

    @classmethod
    def _parse_index_sidecar(
        cls, path: Path, index_path: Path
    ) -> tuple[int, int, dict] | None:
        """Validate the index sidecar against the archive and parse it.

        The single gatekeeper for trusting on-disk offsets — used by the
        resuming open *and* the read-only :meth:`peek`, so the validation
        rules can never drift apart.  Returns ``(covered_bytes,
        duplicate_lines, entries)`` with normalized ``fp -> (offset,
        schema, explicit, tag)`` entries, or ``None`` when the sidecar is
        missing, torn, from another schema, larger than the archive, not
        newline-aligned at its boundary, or its head digest disagrees —
        i.e. whenever the offsets cannot be trusted.
        """
        if not index_path.exists():
            return None
        try:
            idx = json.loads(index_path.read_text(encoding="utf-8"))
            if idx.get("index_schema") != INDEX_SCHEMA:
                raise ValueError("unknown index schema")
            covered = int(idx["store_bytes"])
            if covered > path.stat().st_size:
                raise ValueError("index covers more bytes than the archive holds")
            head_bytes = int(idx.get("head_bytes", 0))
            if cls._head_digest(path, head_bytes) != idx.get("head_digest"):
                raise ValueError("archive head does not match the index")
            if covered > 0:
                with path.open("rb") as fh:
                    fh.seek(covered - 1)
                    if fh.read(1) != b"\n":
                        raise ValueError("index boundary is not newline-aligned")
            entries: dict[str, tuple] = {}
            for fp, (offset, schema, explicit, tag) in idx["records"].items():
                entries[fp] = (int(offset), schema, bool(explicit), tag)
            return covered, int(idx.get("duplicate_lines", 0)), entries
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _load_index(self) -> bool | None:
        """Adopt the index sidecar if it provably matches the archive;
        ``None`` (triggering a full scan) when it cannot be trusted."""
        parsed = self._parse_index_sidecar(self.path, self.index_path)
        if parsed is None:
            if self.index_path.exists():
                self.io_stats["index_rebuilt"] += 1
            return None
        covered, duplicate_lines, entries = parsed
        for fp, (offset, schema, explicit, tag) in entries.items():
            self._offsets[fp] = offset
            if explicit:
                self._schemas[fp] = schema
            self._tags[fp] = tag
            if tag is not None:
                self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        self._fingerprints = set(self._offsets)
        self._order = sorted(self._offsets, key=self._offsets.__getitem__)
        self._size = covered
        self._duplicate_lines = duplicate_lines
        return True

    @staticmethod
    def _head_digest(path: Path, head_bytes: int) -> str:
        with path.open("rb") as fh:
            return hashlib.sha256(fh.read(head_bytes)).hexdigest()[:16]

    def _full_scan(self) -> None:
        self.io_stats["full_scans"] += 1
        entries, end = _scan_jsonl(
            self.path,
            start=0,
            heal=True,
            corrupt=lambda n: ValueError(
                f"{self.path}: corrupt record on line {n} "
                "(not a torn final append); refusing to resume"
            ),
            on_quarantine=self._quarantine,
        )
        for offset, _, record in entries:
            self._adopt(offset, record)
        self._size = end
        self._index_dirty = True

    def _scan_tail(self, start: int) -> None:
        """Index only the records appended after the sidecar was written."""
        self.io_stats["tail_scans"] += 1
        entries, end = _scan_jsonl(
            self.path,
            start=start,
            heal=True,
            corrupt=lambda n: ValueError(
                f"{self.path}: corrupt record on tail line {n} "
                f"(after byte {start}, not a torn final append); "
                "refusing to resume"
            ),
            on_quarantine=self._quarantine,
        )
        for offset, _, record in entries:
            self._adopt(offset, record)
            self.io_stats["tail_records"] += 1
        self._size = end
        if end != start:
            self._index_dirty = True

    def _quarantine(self, offset: int, raw: bytes, line_no: int) -> None:
        """Record one corrupt mid-file line and keep going.

        The line's bytes stay exactly where they are (rewriting the
        archive under a resuming campaign would invalidate every later
        offset); the sidecar entry is what ``store compact`` reports and
        what lets an operator recover the damaged payload.  Re-scans of
        the same bytes (e.g. after an index rebuild) dedup by offset.
        """
        self._quarantined_lines += 1
        self.io_stats["quarantined_lines"] += 1
        if self._quarantine_offsets is None:
            self._quarantine_offsets = set()
            if self.quarantine_path.exists():
                for line in self.quarantine_path.read_text(
                    encoding="utf-8"
                ).splitlines():
                    try:
                        self._quarantine_offsets.add(int(json.loads(line)["offset"]))
                    except (ValueError, KeyError, TypeError):
                        continue
        if offset in self._quarantine_offsets:
            return
        self._quarantine_offsets.add(offset)
        entry = {
            "offset": offset,
            "line_no": line_no,
            "bytes": len(raw) + 1,
            "preview": raw[:160].decode("utf-8", errors="replace"),
        }
        self.quarantine_path.parent.mkdir(parents=True, exist_ok=True)
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
        self._tags[fp] = tag
        if tag is not None:
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1

    def _recover_errors(self) -> dict[str, str]:
        """Index the error sidecar, healing a torn final line the same way
        the record archive does.  The sidecar is advisory (worst case a
        known-bad candidate is re-probed once), so corrupt mid-file
        entries are skipped rather than quarantined or fatal."""
        entries = read_jsonl_healing(
            self.errors_path,
            heal=True,
            corrupt=lambda n: ValueError(
                f"{self.errors_path}: corrupt entry on line {n} "
                "(not a torn final append); refusing to resume"
            ),
            on_quarantine=lambda offset, raw, n: None,
        )
        return {
            str(e["fingerprint"]): str(e.get("error", ""))
            for e in entries
            if e.get("fingerprint")
        }

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
        most the record in flight; the index sidecar is refreshed on
        :meth:`close` and periodically during long append runs — every
        ``max(INDEX_FLUSH_EVERY, records/4)`` appends, an interval that
        grows with the store because each flush rewrites the whole
        sidecar (a fixed interval would cost O(N^2) over a campaign).
        A kill therefore leaves at most ~25% of the records un-indexed,
        and the next open tail-scans exactly that suffix.
        """
        with self._lock:
            fp = self.record_fingerprint(record)
            if fp in self._fingerprints:
                return False
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # newline="" disables universal-newline translation: the
                # byte-offset accounting (and the index built from it)
                # requires one written "\n" to be exactly one byte.
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
            self._index_dirty = True
            self._appends_since_flush += 1
            if self._appends_since_flush >= max(
                INDEX_FLUSH_EVERY, len(self._order) // 4
            ):
                self.write_index()
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

        Seeks straight to the record's byte offset — an index-backed warm
        start pays one line parse per warm *hit* instead of one full-file
        parse per session.  Parsed records are cached; treat them as
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

        Loads lazily: an index-backed store parses the archive only when
        record *contents* are actually requested; the dicts are cached and
        shared, not copied — treat them as read-only.
        """
        with self._lock:
            return [self.record_for(fp) for fp in self._order]

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
    # Index sidecar
    # ------------------------------------------------------------------

    def write_index(self) -> Path:
        """Atomically (re)write ``<store>.index.json`` covering the
        current archive; returns the sidecar path."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            payload = {
                "index_schema": INDEX_SCHEMA,
                "store_bytes": self._size,
                "head_bytes": min(self._size, _HEAD_DIGEST_BYTES),
                "head_digest": (
                    self._head_digest(self.path, min(self._size, _HEAD_DIGEST_BYTES))
                    if self.path.exists()
                    else hashlib.sha256(b"").hexdigest()[:16]
                ),
                "record_count": len(self._order),
                "duplicate_lines": self._duplicate_lines,
                "records": {
                    fp: [
                        self._offsets[fp],
                        self._schemas.get(fp),
                        1 if fp in self._schemas else 0,
                        self._tags.get(fp),
                    ]
                    for fp in self._order
                },
            }
            act = fault_point("store.index_write")
            if act is not None and act.kind == "drop":
                # Simulated fsync loss: the writer believes the sidecar
                # landed (counters reset) but no bytes hit disk.  The next
                # open detects the stale sidecar and tail-scans past it.
                self._index_dirty = False
                self._appends_since_flush = 0
                return self.index_path
            atomic_write_text(
                self.index_path,
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            )
            self._index_dirty = False
            self._appends_since_flush = 0
            return self.index_path

    @classmethod
    def peek(cls, path: str | Path) -> dict:
        """Read-only progress snapshot (for ``repro campaign status``).

        Counts distinct records and per-``dataset[@hw]`` tags using the
        index sidecar when it is valid — scanning only the un-indexed tail
        — and a plain streaming parse otherwise.  Never writes, heals, or
        rebuilds anything: a concurrently running campaign may own the
        files.  A torn final line is silently ignored.
        """
        path = Path(path)
        out: dict = {"records": 0, "unit_counts": {}, "indexed": False}
        if not path.exists():
            return out
        index_path = path.with_name(path.stem + ".index.json")
        start = 0
        fingerprints: set[str] = set()
        counts: dict[str, int] = {}
        parsed = cls._parse_index_sidecar(path, index_path)
        if parsed is not None:
            covered, _, entries = parsed
            for fp, (_, _, _, tag) in entries.items():
                fingerprints.add(fp)
                if tag is not None:
                    counts[tag] = counts.get(tag, 0) + 1
            start = covered
            out["indexed"] = True
        with path.open("rb") as fh:
            fh.seek(start)
            for line in fh:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn in-flight line (or foreign bytes): skip
                fp = cls.record_fingerprint(record)
                if fp in fingerprints:
                    continue
                fingerprints.add(fp)
                tag = cls._record_tag(record)
                if tag is not None:
                    counts[tag] = counts.get(tag, 0) + 1
        out["records"] = len(fingerprints)
        out["unit_counts"] = counts
        return out

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
          a resuming ``ResultStore`` open would adopt for those bytes;
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
        errors: dict[str, str] = {}
        start = 0
        if since is not None and Path(since.path) == path:
            try:
                if path.stat().st_size >= since.covered_bytes:
                    records = list(since.records)
                    fingerprints = set(since.fingerprints)
                    start = since.covered_bytes
            except OSError:
                pass
        covered = start
        if path.exists():
            with path.open("rb") as fh:
                fh.seek(start)
                data = fh.read()
            offset = start
            for line in data.split(b"\n")[:-1]:
                # Iterating only newline-terminated lines: whatever sits
                # after the final "\n" is the writer's append in flight.
                nbytes = len(line) + 1
                if line.strip():
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        # Corrupt *terminated* line mid-file (a torn
                        # fragment an O_APPEND writer appended past): skip
                        # it, exactly as a resuming open quarantines it.
                        # In-flight bytes never get here — they sit after
                        # the final "\n" and are excluded by the split.
                        offset += nbytes
                        covered = offset
                        continue
                    fp = cls.record_fingerprint(record)
                    if fp not in fingerprints:
                        fingerprints.add(fp)
                        records.append(record)
                offset += nbytes
                covered = offset
        errors_path = path.with_name(path.stem + ".errors.jsonl")
        if errors_path.exists():
            with errors_path.open("rb") as fh:
                for line in fh.read().split(b"\n")[:-1]:
                    if not line.strip():
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # advisory sidecar: skip corrupt entries
                    if entry.get("fingerprint"):
                        errors.setdefault(
                            str(entry["fingerprint"]), str(entry.get("error", ""))
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
        dedups the error sidecar the same way, and refreshes the offset
        index.  Returns accounting, e.g.::

            {"records_kept": 18, "lines_dropped": 3, "lines_quarantined": 1,
             "bytes_before": ..., "bytes_after": ..., "errors_kept": 2,
             "errors_dropped": 0}
        """
        with self._lock:
            self.close()
            bytes_before = self.path.stat().st_size if self.path.exists() else 0
            records = self.records() if self.path.exists() else []
            lines_dropped = self._duplicate_lines
            lines_quarantined = 0
            if self.quarantine_path.exists():
                lines_quarantined = sum(
                    1
                    for line in self.quarantine_path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                    if line.strip()
                )
            if self.path.exists():
                tmp = self.path.with_name(self.path.name + ".tmp")
                with tmp.open("w", encoding="utf-8", newline="") as fh:
                    for record in records:
                        fh.write(record_to_json(record))
                        fh.write("\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            errors_before = 0
            if self.errors_path.exists():
                errors_before = sum(
                    1
                    for line in self.errors_path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                    if line.strip()
                )
                tmp = self.errors_path.with_name(self.errors_path.name + ".tmp")
                with tmp.open("w", encoding="utf-8", newline="") as fh:
                    for fp, error in self._errors.items():
                        fh.write(
                            json.dumps(
                                {"fingerprint": fp, "error": error}, sort_keys=True
                            )
                        )
                        fh.write("\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.errors_path)
            # The rewrite kept only parsed records, so quarantined lines
            # are gone from the archive; retire their sidecar entries.
            if self.quarantine_path.exists():
                self.quarantine_path.unlink()
            self._quarantine_offsets = None
            self._quarantined_lines = 0
            # Re-index the rewritten archive from scratch: offsets moved.
            self._fingerprints.clear()
            self._offsets.clear()
            self._schemas.clear()
            self._tags.clear()
            self._tag_counts.clear()
            self._order.clear()
            self._loaded.clear()
            self._duplicate_lines = 0
            self._size = 0
            if self.path.exists():
                self._full_scan()
                self.write_index()
            elif self.index_path.exists():
                self.index_path.unlink()
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
            if self._index_dirty:
                self.write_index()
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
