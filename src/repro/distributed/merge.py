"""Fold shard artifacts back into one authoritative store + checkpoint.

The merge is where the distributed guarantees cash out:

- **stores** merge by candidate-fingerprint dedup, first source winning
  (shards of one plan touch disjoint contexts, so overlaps only happen
  when a killed shard was re-run — and then the records are identical
  anyway).  Sources are read through
  :meth:`~repro.analysis.store.ResultStore.snapshot`, the lock-free
  consistent-prefix reader, so a torn final line in a killed shard's
  store is simply left out instead of poisoning the merge.  Error
  sidecars merge the same way.  The destination is a plain store, ready
  for ``repro serve``.
- **checkpoints** merge by re-journaling every unit in parent grid
  order.  Shard journal lines were produced by the exact same
  ``json.dumps(..., sort_keys=True)`` path a sequential run uses, so the
  merged journal is **byte-identical** to a sequential single-process
  checkpoint — ``cmp`` passes in CI, and ``repro campaign report`` /
  a resumed ``repro campaign run`` accept it as their own.

Merging is idempotent: re-merging the same sources (or a store with
itself) adds zero records.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..analysis.store import ResultStore
from ..campaign.report import CampaignReport, UnitResult
from ..campaign.runner import CampaignCheckpoint, campaign_units
from ..campaign.spec import CampaignSpec, unit_key
from ..errors import DistributedError

__all__ = ["merge_stores", "merge_checkpoints", "assemble_report"]


def merge_stores(
    dest: "str | Path | ResultStore",
    sources: Sequence[str | Path],
    *,
    resume: bool = True,
) -> dict:
    """Merge source stores (+ error sidecars) into ``dest``; accounting.

    ``dest`` may be a path (opened with ``resume`` semantics — pass
    ``resume=False`` to rebuild it from scratch — and closed on return)
    or a live :class:`~repro.analysis.store.ResultStore` the caller
    owns.  Sources are never written to; missing sources are recorded in
    the accounting instead of raising, so a merge over an empty shard's
    never-created store just works.
    """
    owns = not isinstance(dest, ResultStore)
    store = ResultStore(dest, resume=resume) if owns else dest
    acct = {
        "sources": [],
        "missing_sources": [],
        "records_seen": 0,
        "records_added": 0,
        "records_skipped": 0,
        "errors_seen": 0,
        "errors_added": 0,
        "errors_skipped": 0,
    }
    try:
        for src in sources:
            src = Path(src)
            if not src.exists():
                acct["missing_sources"].append(str(src))
                continue
            acct["sources"].append(str(src))
            snap = ResultStore.snapshot(src)
            for record in snap.records:
                acct["records_seen"] += 1
                if store.append(record):
                    acct["records_added"] += 1
                else:
                    acct["records_skipped"] += 1
            for fingerprint, error in snap.errors.items():
                acct["errors_seen"] += 1
                if store.record_error(fingerprint, error):
                    acct["errors_added"] += 1
                else:
                    acct["errors_skipped"] += 1
        acct["dest_path"] = str(store.path)
        acct["dest_records"] = len(store)
    finally:
        if owns:
            store.close()
    return acct


def merge_checkpoints(
    spec: CampaignSpec,
    sources: Sequence[str | Path],
    dest: str | Path,
    *,
    require_complete: bool = True,
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Re-journal shard checkpoints into one sequential-identical file.

    Reads every source journal read-only (a torn final line is ignored,
    exactly as resume would), requires each to be bound to ``spec``'s
    fingerprint, and rewrites ``dest`` from scratch with the union of
    completed units in parent grid order — byte-identical to the journal
    a sequential run would have produced.  Per-unit cache-counter deltas
    from the shard stats sidecars ride along into the merged sidecar
    (they still sum to the campaign's true totals).

    Returns ``(units, counters)`` keyed by unit key.  With
    ``require_complete`` (the default) a unit missing from every source
    raises :class:`~repro.errors.DistributedError`.
    """
    fingerprint = spec.fingerprint()
    found: dict[str, dict] = {}
    counters: dict[str, dict] = {}
    for src in sources:
        src = Path(src)
        if not src.exists():
            continue
        header, units = CampaignCheckpoint.load(src)
        if not header:
            continue
        if header.get("spec_fingerprint") != fingerprint:
            raise DistributedError(
                f"{src}: shard checkpoint belongs to spec "
                f"{header.get('spec_fingerprint')!r}, not {fingerprint!r}"
            )
        for key, rec in units.items():
            found.setdefault(key, rec)
        sidecar = CampaignCheckpoint.load_counters(
            CampaignCheckpoint.stats_path_for(src)
        )
        if sidecar.get("spec_fingerprint") == fingerprint:
            for key, snap in sidecar.get("units", {}).items():
                counters.setdefault(key, snap)
    missing = [key for key in spec.unit_keys() if key not in found]
    if require_complete and missing:
        raise DistributedError(
            f"cannot assemble a complete merged checkpoint for "
            f"{spec.name!r}: units never completed on any shard: {missing}"
        )
    merged = CampaignCheckpoint(dest, fingerprint, resume=False)
    try:
        for ds_name, pt in campaign_units(spec):
            key = unit_key(ds_name, pt)
            rec = found.get(key)
            if rec is not None:
                merged.mark(
                    key, {k: v for k, v in rec.items() if k != "unit"}
                )
        merged.adopt_counters(counters)
    finally:
        merged.close()
    return found, counters


def assemble_report(
    spec: CampaignSpec,
    units_by_key: dict[str, dict],
    *,
    stats: dict | None = None,
    cache: dict | None = None,
    store_path: str | None = None,
    store_records: int | None = None,
    checkpoint_path: str | None = None,
) -> CampaignReport:
    """A :class:`~repro.campaign.report.CampaignReport` from merged units.

    Units come out in grid order with the journal's row dicts, so the
    report's :meth:`~repro.campaign.report.CampaignReport.canonical_json`
    digest is byte-identical to the sequential run's — the acceptance
    check CI enforces.  Units are flagged ``resumed`` (their rows came
    from journals, not this process's evaluator).
    """
    units = []
    for ds_name, pt in campaign_units(spec):
        rec = units_by_key.get(unit_key(ds_name, pt))
        if rec is not None:
            units.append(
                UnitResult(ds_name, pt.key(), rec["rows"], resumed=True)
            )
    return CampaignReport(
        name=spec.name,
        spec_fingerprint=spec.fingerprint(),
        units=units,
        stats=stats or {},
        cache=cache or {},
        store_path=store_path,
        store_records=store_records,
        checkpoint_path=checkpoint_path,
    )
