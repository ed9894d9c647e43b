"""One shard's worker: run an assignment, journal progress, heartbeat.

A shard worker is deliberately just the existing campaign machinery with
three twists:

- it runs the **full parent spec** restricted to its assigned unit keys
  (``run_campaign(..., only_units=...)``), so the spec fingerprint — and
  with it checkpoint binding and candidate fingerprints — is identical
  to a sequential run;
- its store and checkpoint are **private shard files** derived from the
  merged store's path (``<stem>.shard<I>.jsonl`` etc.), so workers never
  contend on a file and the merge step owns the fold-back;
- it maintains a **progress sidecar** (atomic JSON rewrite) carrying a
  heartbeat timestamp, per-unit completion, live evaluation counters,
  and — on failure — the error with its traceback.  The coordinator
  *peeks* this file; it never talks to the worker directly, which is
  exactly the posture a multi-machine deployment needs.

A relaunched worker (after a crash or a coordinator kill) simply resumes
from its own shard checkpoint + store warm cache: completed units answer
from the journal, the interrupted unit replays persisted candidates from
disk, and the run performs **zero** duplicate cost-model evaluations —
the property the distributed-smoke CI job asserts.

``fail_after_units`` / ``pause_after_units`` are failure injection for
tests and the EXPERIMENTS.md recipe: raise after K units, or keep
heartbeating without progressing (a livelocked worker the coordinator
must SIGKILL on observation).
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..analysis.store import ResultStore
from ..campaign.report import CampaignReport
from ..campaign.runner import CampaignCheckpoint, run_campaign
from ..campaign.session import ExplorationSession
from ..campaign.spec import CampaignSpec
from ..errors import DistributedError
from ..faults.injector import fault_point
from ..ioutil import atomic_write_text, retry_io

if TYPE_CHECKING:  # pragma: no cover
    from .shardplan import ShardPlan

__all__ = [
    "PROGRESS_SCHEMA",
    "ShardPaths",
    "shard_paths",
    "plan_path_for",
    "load_progress",
    "run_shard",
    "ShardFailureInjected",
]

PROGRESS_SCHEMA = 1
DEFAULT_HEARTBEAT_INTERVAL = 1.0


class ShardFailureInjected(DistributedError):
    """The ``fail_after_units`` injection fired (tests / recipes only)."""


@dataclass(frozen=True)
class ShardPaths:
    """Where one shard's private artifacts live."""

    store: Path
    checkpoint: Path
    progress: Path
    log: Path


def shard_paths(base_store: str | Path, shard_index: int) -> ShardPaths:
    """Shard artifact paths derived from the merged store's path.

    ``runs/name.jsonl`` + shard 1 → ``runs/name.shard1.jsonl`` (store),
    ``.shard1.checkpoint.jsonl``, ``.shard1.progress.json``,
    ``.shard1.log``.  One derivation shared by the worker, the
    coordinator, and ``repro store merge`` defaults.
    """
    base = Path(base_store)
    prefix = f"{base.stem}.shard{shard_index}"
    return ShardPaths(
        store=base.with_name(f"{prefix}.jsonl"),
        checkpoint=base.with_name(f"{prefix}.checkpoint.jsonl"),
        progress=base.with_name(f"{prefix}.progress.json"),
        log=base.with_name(f"{prefix}.log"),
    )


def plan_path_for(base_store: str | Path) -> Path:
    """Where the shard plan sits next to the merged store."""
    base = Path(base_store)
    return base.with_name(f"{base.stem}.plan.json")


def base_store_for(spec: CampaignSpec) -> Path:
    """The merged-store path a spec implies (mirrors the CLI default)."""
    return Path(spec.store) if spec.store else Path("runs") / f"{spec.name}.jsonl"


def load_progress(path: str | Path) -> dict:
    """Read-only progress-sidecar load; ``{}`` when absent/torn/foreign.

    The coordinator polls this while the worker rewrites it, so a
    half-replaced or hand-damaged file must degrade, never raise.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("progress_schema") != PROGRESS_SCHEMA:
        return {}
    return raw


class _ProgressWriter:
    """Atomic, thread-safe rewrites of one shard's progress sidecar."""

    def __init__(
        self,
        path: Path,
        *,
        spec_fingerprint: str,
        plan_fingerprint: str,
        shard_index: int,
        attempt: int,
        assigned: list[str],
    ) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._state = {
            "progress_schema": PROGRESS_SCHEMA,
            "spec_fingerprint": spec_fingerprint,
            "plan_fingerprint": plan_fingerprint,
            "shard_index": shard_index,
            "attempt": attempt,
            "pid": os.getpid(),
            "state": "starting",
            "started_at": time.time(),
            "heartbeat_at": time.time(),
            "assigned": list(assigned),
            "done_units": [],
            "stats": {},
            "error": None,
        }

    def update(self, **fields) -> None:
        with self._lock:
            self._state.update(fields)
            self._state["heartbeat_at"] = time.time()
            self._flush()

    def mark_unit(self, unit_key: str) -> None:
        with self._lock:
            self._state["done_units"].append(unit_key)
            self._state["heartbeat_at"] = time.time()
            self._flush()

    def heartbeat(self, stats: dict | None = None) -> None:
        with self._lock:
            if stats is not None:
                self._state["stats"] = stats
            self._state["heartbeat_at"] = time.time()
            self._flush()

    def _flush(self) -> None:
        # The coordinator's whole view of this worker is this file: a
        # transient write failure must not kill a healthy shard, so retry
        # briefly; if the mount is really gone the raise ends the worker
        # and the coordinator handles it like any crash.  fsync'd rename
        # keeps a poller from ever seeing a torn heartbeat.
        retry_io(
            lambda: atomic_write_text(
                self.path,
                json.dumps(self._state, indent=2, sort_keys=True) + "\n",
            ),
            attempts=3,
            base_delay=0.02,
            seed=self._state.get("shard_index", 0),
        )


class _ShardCheckpoint(CampaignCheckpoint):
    """A campaign checkpoint that reports each mark to the shard worker
    (progress journaling and failure injection hang off completions)."""

    def __init__(self, *args, on_mark=None, **kwargs) -> None:
        self._on_mark = on_mark
        super().__init__(*args, **kwargs)

    def mark(self, unit_key: str, payload: dict, *, counters=None) -> None:
        super().mark(unit_key, payload, counters=counters)
        if self._on_mark is not None:
            self._on_mark(unit_key)


def run_shard(
    spec: CampaignSpec,
    plan: "ShardPlan",
    shard_index: int,
    *,
    resume: bool = True,
    base_store: str | Path | None = None,
    attempt: int = 0,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    fail_after_units: int | None = None,
    pause_after_units: int | None = None,
) -> tuple[CampaignReport, ShardPaths]:
    """Run (or resume) one shard's assignment; returns (report, paths).

    The worker-process entry point behind ``repro campaign shard-run``;
    its units run one at a time in this process.  The progress sidecar
    ends in state ``"done"`` (with the final scheduling-invariant stats)
    or ``"failed"`` (with the error and its traceback); a killed worker
    just stops heartbeating, which is the coordinator's cue.
    """
    spec.validate()
    plan.validate_against(spec)
    if not 0 <= shard_index < plan.num_shards:
        raise DistributedError(
            f"shard index {shard_index} out of range for a "
            f"{plan.num_shards}-shard plan"
        )
    assigned = list(plan.assignments[shard_index])
    paths = shard_paths(base_store or base_store_for(spec), shard_index)
    progress = _ProgressWriter(
        paths.progress,
        spec_fingerprint=spec.fingerprint(),
        plan_fingerprint=plan.fingerprint(),
        shard_index=shard_index,
        attempt=attempt,
        assigned=assigned,
    )
    marks = 0

    store = ResultStore(paths.store, resume=resume)
    session = ExplorationSession(store=store)
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            # Fault seam "worker.heartbeat": kill at the Nth beat (hard
            # os._exit — the progress file freezes mid-run, exactly what
            # a powered-off host looks like), or hang/delay the beat so
            # the coordinator's staleness watchdog has something to see.
            fault_point("worker.heartbeat")
            progress.heartbeat(session.stats.as_dict())

    def on_mark(unit_key: str) -> None:
        nonlocal marks
        marks += 1
        progress.heartbeat(session.stats.as_dict())
        progress.mark_unit(unit_key)
        if fail_after_units is not None and marks >= fail_after_units:
            raise ShardFailureInjected(
                f"shard {shard_index}: injected failure after "
                f"{marks} unit(s)"
            )
        if pause_after_units is not None and marks >= pause_after_units:
            # Livelock on purpose: keep heartbeating, never progress.
            # Models a worker that is alive but wedged — the coordinator
            # observes the unit counter stalling and SIGKILLs us.
            progress.update(state="paused", stats=session.stats.as_dict())
            while True:  # pragma: no cover - exits only via SIGKILL
                time.sleep(heartbeat_interval)

    checkpoint = _ShardCheckpoint(
        paths.checkpoint, spec.fingerprint(), resume=resume, on_mark=on_mark
    )
    heart = threading.Thread(
        target=beat, name=f"shard{shard_index}-heartbeat", daemon=True
    )
    # Fault seam "worker.start": a slow-start delay (models cold NFS /
    # container pull) or an immediate kill before any progress lands.
    fault_point("worker.start")
    progress.update(state="running")
    heart.start()
    try:
        report = run_campaign(
            spec,
            session=session,
            checkpoint=checkpoint,
            only_units=frozenset(assigned),
        )
    except BaseException as exc:
        stop.set()
        progress.update(
            state="failed",
            stats=session.stats.as_dict(),
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        )
        raise
    else:
        stop.set()
        progress.update(state="done", stats=report.stats)
        return report, paths
    finally:
        heart.join(timeout=5.0)
        checkpoint.close()
        store.close()
