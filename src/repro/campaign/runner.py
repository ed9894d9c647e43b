"""Campaign execution: expand a spec into units, run them, checkpoint.

A campaign's unit grid is ``datasets x hardware points``; every unit runs
the spec's candidate source through one shared
:class:`~repro.campaign.session.ExplorationSession`.  Two layers make a
killed multi-dataset campaign cheap to restart:

- the **checkpoint** (:class:`CampaignCheckpoint`, a JSONL sidecar)
  records each *completed* unit with its result rows, so finished units
  are skipped wholesale on the next invocation — their rows come from the
  checkpoint, not the cost model;
- the session's **store-backed warm cache** covers the unit that was in
  flight when the campaign died: its already-persisted candidates are
  answered from disk, so the re-run unit performs only the evaluations
  that never completed.

Together a resumed campaign whose units all finished performs **zero**
new cost-model evaluations (asserted in ``tests/test_campaign.py``).

Execution itself lives in :mod:`repro.campaign.scheduler`, which runs
the units strictly in grid order; the checkpoint and report are the same
bytes for any shard count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Collection, Iterator

from ..analysis.store import read_jsonl_healing
from ..errors import CampaignError
from ..faults.injector import fault_point
from ..ioutil import atomic_write_text
from .report import CampaignReport
from .scheduler import run_units_sequential
from .session import ExplorationSession
from .spec import CampaignSpec, HardwarePoint

__all__ = [
    "CampaignResumeError",
    "CampaignCheckpoint",
    "campaign_units",
    "run_campaign",
]

CHECKPOINT_SCHEMA = 1


class CampaignResumeError(CampaignError, RuntimeError):
    """A checkpoint exists but cannot drive this campaign (spec drifted,
    or the file is corrupt beyond a torn final append).

    A :class:`~repro.errors.CampaignError` (so ``except ReproError``
    catches it) that stays a ``RuntimeError`` for historical call sites.
    """


class CampaignCheckpoint:
    """Append-only JSONL journal of completed campaign units.

    Line 1 is a header binding the file to one spec fingerprint; every
    further line is one completed unit with its result rows.  A campaign
    killed mid-append leaves a torn final line, which is healed exactly
    like the result store's (dropped and truncated); corruption anywhere
    else raises :class:`CampaignResumeError`.
    """

    def __init__(
        self,
        path: str | Path,
        spec_fingerprint: str,
        *,
        resume: bool = True,
    ) -> None:
        self.path = Path(path)
        self.spec_fingerprint = spec_fingerprint
        self.done: dict[str, dict] = {}
        self.unit_counters: dict[str, dict] = {}
        self._last_counters: dict[str, int] = {}
        self._fh = None
        if self.path.exists() and not resume:
            self.path.unlink()
            self.stats_path.unlink(missing_ok=True)
        header: dict = {}
        if self.path.exists():
            header, units = self._read(self.path, heal=True)
            if header:
                if header.get("spec_fingerprint") != spec_fingerprint:
                    raise CampaignResumeError(
                        f"{self.path}: checkpoint belongs to spec "
                        f"{header.get('spec_fingerprint')!r}, not "
                        f"{spec_fingerprint!r}; pass --no-resume to restart"
                    )
                self.done = units
                sidecar = self.load_counters(self.stats_path)
                if sidecar.get("spec_fingerprint") == spec_fingerprint:
                    # Keep snapshots only for units the checkpoint still
                    # vouches for (a torn tail may have dropped one) —
                    # and push the pruning to disk, so a concurrent
                    # read-only `campaign status` never serves snapshots
                    # for units the journal no longer records.
                    loaded = sidecar.get("units", {})
                    self.unit_counters = {
                        key: snap
                        for key, snap in loaded.items()
                        if key in self.done
                    }
                    if set(self.unit_counters) != set(loaded):
                        self._write_counters()
            else:
                # The campaign died while appending the header itself:
                # nothing completed, so start the checkpoint over.
                self.path.unlink()
                self.stats_path.unlink(missing_ok=True)
        if not header:
            # Fresh journal: a leftover same-fingerprint sidecar (e.g. the
            # journal was deleted by hand) would otherwise masquerade as
            # this run's accounting.
            self.stats_path.unlink(missing_ok=True)
            self._append(
                {
                    "campaign_schema": CHECKPOINT_SCHEMA,
                    "spec_fingerprint": spec_fingerprint,
                }
            )

    @staticmethod
    def stats_path_for(path: str | Path) -> Path:
        """Where the cache-counters sidecar lives for a checkpoint path."""
        path = Path(path)
        return path.with_name(path.name + ".stats.json")

    @property
    def stats_path(self) -> Path:
        """The cache-counters sidecar next to the checkpoint journal.

        Kept out of the journal itself on purpose: counter snapshots are
        *execution accounting* (how units are split over shards changes
        the hit/miss split), while the journal's bytes are guaranteed
        identical for any shard count.
        """
        return self.stats_path_for(self.path)

    @staticmethod
    def load_counters(path: str | Path) -> dict:
        """Read-only sidecar load; ``{}`` when absent or unreadable.

        The single gatekeeper for every sidecar consumer (``campaign
        status``, ``campaign report``, the resume path, the distributed
        merge).  A sidecar torn mid-write or hand-edited into the wrong
        shape must degrade — status prints unit progress without cache
        columns — never crash, so the ``units`` mapping is normalized to
        ``{unit_key: {counter: number}}`` with malformed entries dropped.
        """
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        units: dict[str, dict] = {}
        loaded = raw.get("units")
        if isinstance(loaded, dict):
            for key, snap in loaded.items():
                if not isinstance(snap, dict):
                    continue
                units[str(key)] = {
                    str(name): value
                    for name, value in snap.items()
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                }
        sidecar = dict(raw)
        sidecar["units"] = units
        return sidecar

    def _write_counters(self) -> None:
        payload = {
            "spec_fingerprint": self.spec_fingerprint,
            "units": self.unit_counters,
        }
        # The sidecar is advisory accounting: losing one write costs a
        # status display its cache columns, never campaign correctness —
        # so a failed write degrades (and the next mark retries) instead
        # of killing the run that was about to journal real results.
        try:
            act = fault_point("checkpoint.stats")
            if act is not None and act.kind == "drop":
                return
            atomic_write_text(
                self.stats_path,
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: Path, *, heal: bool = False) -> tuple[dict, dict[str, dict]]:
        """Parse a checkpoint file, tolerating a torn final line.

        A torn final line (a campaign killed mid-append) is always
        *ignored*; it is physically truncated away only with
        ``heal=True`` — the resume path, which owns the file.  Read-only
        callers must not rewrite it, and leave out any final line not
        yet newline-terminated: a concurrently running campaign may still
        be appending those very bytes.

        Returns ``({}, {})`` when nothing valid is on disk (an empty
        file, or only a torn header): the resume path then starts the
        checkpoint over, and status reports "no checkpoint yet".
        """

        def corrupt(offset: int, raw: bytes, line_no: int) -> None:
            raise CampaignResumeError(
                f"{path}: corrupt checkpoint line {line_no} "
                "(not a torn final append); pass --no-resume to restart"
            )

        records = read_jsonl_healing(path, heal=heal, on_corrupt=corrupt)
        if not records:
            return {}, {}
        if "campaign_schema" not in records[0]:
            raise CampaignResumeError(
                f"{path}: missing checkpoint header; pass --no-resume to "
                "restart"
            )
        units = {rec["unit"]: rec for rec in records[1:]}
        return records[0], units

    @classmethod
    def load(cls, path: str | Path) -> tuple[dict, dict[str, dict]]:
        """Read-only view (for ``campaign status`` / ``report``): never
        modifies the file, even to heal a torn final line."""
        return cls._read(Path(path), heal=False)

    # ------------------------------------------------------------------
    def _append(self, obj: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        line = json.dumps(obj, sort_keys=True)
        act = fault_point("checkpoint.mark")
        if act is not None:
            # Torn mark: flush half the journal line without its newline,
            # then die — the healing read on resume must truncate it and
            # re-run only the unit whose mark was lost.
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            act.raise_injected()
        self._fh.write(line)
        self._fh.write("\n")
        self._fh.flush()

    def mark(
        self, unit_key: str, payload: dict, *, counters: dict | None = None
    ) -> None:
        """Journal one completed unit (flushed eagerly).

        ``counters`` is an optional session cache-efficacy snapshot
        (cumulative at mark time).  What the stats *sidecar* records is
        the per-unit **delta** since the previous mark of this run —
        deltas stay meaningful per unit (units run and mark one at a
        time) and *sum* to the true totals even across a kill/resume,
        where each session's counters restart at zero.
        They never enter the journal line, whose bytes must stay
        scheduling-invariant.
        """
        record = {"unit": unit_key, **payload}
        self._append(record)
        self.done[unit_key] = record
        if counters is not None:
            self.unit_counters[unit_key] = {
                key: value - self._last_counters.get(key, 0)
                for key, value in counters.items()
            }
            self._last_counters = dict(counters)
            self._write_counters()

    def adopt_counters(self, units: dict[str, dict]) -> None:
        """Install per-unit counter snapshots wholesale and persist them.

        Used by the distributed merge: shard checkpoints each carry the
        per-unit *deltas* their worker recorded, and the merged
        checkpoint re-journals the units, so their snapshots are adopted
        verbatim (they still sum to the campaign's true totals).  Only
        units the journal vouches for are kept.
        """
        self.unit_counters = {
            key: dict(units[key]) for key in self.done if key in units
        }
        if self.unit_counters:
            self._write_counters()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Unit expansion and execution
# ----------------------------------------------------------------------

def campaign_units(
    spec: CampaignSpec,
) -> Iterator[tuple[str, HardwarePoint]]:
    """The unit grid in execution order: datasets outer, hardware inner
    (matching the legacy per-dataset CLI's record order)."""
    for ds in spec.datasets:
        for pt in spec.hardware:
            yield ds, pt


def run_campaign(
    spec: CampaignSpec,
    *,
    store: Any | None = None,
    checkpoint: CampaignCheckpoint | None = None,
    session: ExplorationSession | None = None,
    only_units: "Collection[str] | None" = None,
) -> CampaignReport:
    """Run (or resume) every unit of ``spec`` through one session.

    ``store`` seeds the session's warm cache and receives fresh records;
    ``checkpoint`` skips completed units and journals new ones; pass an
    existing ``session`` to share its memos and caches (``store`` is then
    ignored).  Units run one at a time in grid order.

    ``only_units`` restricts execution to a subset of the spec's unit
    keys (grid order is preserved; the report covers only the subset).
    This is how a distributed shard runs its assignment under the *full*
    parent spec — the spec fingerprint, and with it checkpoint binding
    and candidate fingerprints, stay identical to a sequential run.
    """
    spec.validate()
    if only_units is not None:
        unknown = sorted(set(only_units) - set(spec.unit_keys()))
        if unknown:
            raise CampaignError(
                f"only_units names unknown unit keys {unknown}; "
                f"spec {spec.name!r} has {spec.unit_keys()}"
            )
        only_units = frozenset(only_units)
    if session is None:
        session = ExplorationSession(store=store)
    units = run_units_sequential(
        spec, session, checkpoint=checkpoint, only_units=only_units
    )
    # The report's ``stats`` carry only the scheduling-invariant counters
    # (identical for any shard count); cache-efficacy counters are
    # execution accounting and ride separately in ``cache``.
    stats = session.stats.as_dict()
    from ..core.evaluator import EvalStats

    for name in EvalStats.EXECUTION_FIELDS:
        stats.pop(name, None)
    return CampaignReport(
        name=spec.name,
        spec_fingerprint=spec.fingerprint(),
        units=units,
        stats=stats,
        cache=session.cache_counters(),
        store_path=str(session.store.path) if session.store is not None else None,
        store_records=len(session.store) if session.store is not None else None,
        checkpoint_path=str(checkpoint.path) if checkpoint is not None else None,
    )
