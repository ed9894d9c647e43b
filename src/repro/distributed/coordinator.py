"""Spawn, watch, and heal a fleet of shard workers; merge the results.

The coordinator is the only component with a global view.  It owns four
responsibilities, each deliberately small:

1. **plan** — partition the spec (:mod:`~repro.distributed.shardplan`)
   and persist the plan next to the merged store, so every worker can
   verify its assignment against the same fingerprinted artifact;
2. **spawn** — one ``repro campaign shard-run`` subprocess per shard
   (process separation models multi-machine deployment: workers share
   nothing but the filesystem);
3. **watch** — poll each worker's progress sidecar.  A worker that
   exits non-zero, or whose heartbeat goes stale (crashed hard, wedged,
   SIGKILLed), is relaunched with backoff up to ``max_retries``.  The
   relaunch is cheap by construction: the replacement resumes from the
   shard's own checkpoint and store warm cache, so recovery performs
   **zero** duplicate cost-model evaluations;
4. **merge** — fold shard stores and checkpoints into the authoritative
   artifacts (:mod:`~repro.distributed.merge`) and assemble a
   :class:`~repro.campaign.report.CampaignReport` whose digest is
   byte-identical to a sequential run's.

``kill_shard``/``kill_after_units`` are the failure-injection hooks the
tests and the distributed-smoke CI job use: the chosen shard's first
attempt is started with ``--pause-after-units`` (alive but wedged), and
the coordinator SIGKILLs it as soon as its progress sidecar shows the
requested unit count — a fully deterministic "worker died mid-campaign"
scenario, observed and healed through the public machinery only.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..campaign.report import CampaignReport
from ..campaign.spec import CampaignSpec
from ..errors import DistributedError
from ..faults.injector import fault_point
from ..ioutil import atomic_write_text, retry_io
from .merge import assemble_report, merge_checkpoints, merge_stores
from .shardplan import ShardPlan, plan_shards
from .worker import base_store_for, load_progress, plan_path_for, shard_paths

__all__ = [
    "ShardAttempt",
    "DistRunResult",
    "DistributedCoordinator",
    "coordinator_state_path",
    "load_coordinator_state",
]

COORDINATOR_STATE_SCHEMA = 1


def coordinator_state_path(base_store: str | Path) -> Path:
    """Where the coordinator's supervision sidecar lives for a store."""
    base = Path(base_store)
    return base.with_name(f"{base.stem}.coordinator.json")


def load_coordinator_state(base_store: str | Path) -> dict:
    """Read-only load of the supervision sidecar; ``{}`` when absent,
    torn, or from another schema (``campaign status`` degrades, never
    crashes, on a file a running coordinator may be rewriting)."""
    try:
        raw = json.loads(
            coordinator_state_path(base_store).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return {}
    if (
        not isinstance(raw, dict)
        or raw.get("coordinator_schema") != COORDINATOR_STATE_SCHEMA
    ):
        return {}
    return raw

# The scheduling-invariant stat keys a report renders; summed attempts
# are seeded with zeros so render() never KeyErrors on a sparse shard.
_STAT_KEYS = (
    "evaluated",
    "cache_hits",
    "warm_hits",
    "errors",
    "persisted",
    "store_skips",
    "errors_persisted",
)


@dataclass
class ShardAttempt:
    """One worker subprocess's lifetime, as the coordinator saw it."""

    shard: int
    attempt: int
    outcome: str  # "done" | "failed" | "killed" | "stalled"
    returncode: int | None
    units_done: int
    stats: dict = field(default_factory=dict)
    injected: bool = False  # coordinator-injected kill (tests/recipes)
    error: dict | None = None

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "returncode": self.returncode,
            "units_done": self.units_done,
            "stats": self.stats,
            "injected": self.injected,
            "error": self.error,
        }


@dataclass
class DistRunResult:
    """Everything a ``dist-run`` produced: the sequential-identical
    report plus the distributed-execution accounting around it."""

    report: CampaignReport
    plan: ShardPlan
    attempts: list[ShardAttempt]
    merge: dict
    store_path: str
    checkpoint_path: str

    def stat_total(self, key: str) -> int:
        """Sum one counter over every attempt (e.g. ``store_skips`` —
        0 across the board is the zero-duplicate-evaluation witness)."""
        return sum(int(a.stats.get(key, 0) or 0) for a in self.attempts)

    def to_dict(self) -> dict:
        return {
            **self.report.to_dict(),
            "digest": self.report.digest(),
            "plan": self.plan.to_dict(),
            "attempts": [a.to_dict() for a in self.attempts],
            "merge": self.merge,
        }


class _ShardState:
    """Mutable supervision state for one shard slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: subprocess.Popen | None = None
        self.log_fh = None
        self.attempt = -1  # bumped by each launch
        self.retries_used = 0
        self.started = 0.0  # monotonic launch time
        self.relaunch_at: float | None = None
        self.completed = False
        self.injected_pending = False
        self.injected_done = False


class DistributedCoordinator:
    """Run one campaign spec across N shard worker subprocesses.

    Parameters mirror ``repro campaign dist-run``.  ``spec_path`` must
    be a spec *file* (workers re-load it; the spec never crosses a pipe).
    ``heartbeat_timeout`` declares a worker dead when its progress
    sidecar's heartbeat is older than this many seconds (a never-started
    worker gets a grace period of the same length on top).
    """

    def __init__(
        self,
        spec_path: str | Path,
        *,
        shards: int = 2,
        policy: str = "round-robin",
        out: str | Path | None = None,
        checkpoint: str | Path | None = None,
        resume: bool = True,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 2,
        max_total_retries: int | None = None,
        backoff: float = 0.5,
        retry_jitter: float = 0.25,
        poll_interval: float = 0.05,
        kill_shard: int | None = None,
        kill_after_units: int = 1,
        python: str | None = None,
    ) -> None:
        self.spec_path = Path(spec_path)
        self.spec = CampaignSpec.load(self.spec_path).validate()
        self.shards = shards
        self.policy = policy
        self.base_store = Path(out) if out else base_store_for(self.spec)
        if checkpoint:
            self.checkpoint_path = Path(checkpoint)
        elif self.spec.checkpoint:
            self.checkpoint_path = Path(self.spec.checkpoint)
        else:
            self.checkpoint_path = self.base_store.with_name(
                f"{self.base_store.stem}.checkpoint.jsonl"
            )
        self.resume = resume
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        # Fleet-wide relaunch ceiling: per-shard caps alone let one
        # flapping host burn `shards * max_retries` relaunches before
        # anything gives up.  Defaults to exactly that product, so a
        # caller who only thinks per-shard keeps the old semantics while
        # a storm across shards is now bounded too.
        self.max_total_retries = (
            max_total_retries
            if max_total_retries is not None
            else max_retries * max(1, shards)
        )
        self.backoff = backoff
        self.retry_jitter = retry_jitter
        self.poll_interval = poll_interval
        self.kill_shard = kill_shard
        self.kill_after_units = kill_after_units
        self.python = python or sys.executable
        self.plan: ShardPlan = plan_shards(self.spec, shards, policy)
        self.attempts: list[ShardAttempt] = []
        self.retries_total = 0
        # Seeded by the plan fingerprint: backoff jitter is bounded and
        # reproducible for a given (spec, shards, policy).
        self._rng = random.Random(self.plan.fingerprint())

    # -- worker process management -------------------------------------
    def _command(self, state: _ShardState) -> list[str]:
        cmd = [
            self.python,
            "-m",
            "repro",
            "campaign",
            "shard-run",
            "--spec",
            str(self.spec_path),
            "--plan",
            str(plan_path_for(self.base_store)),
            "--shard-index",
            str(state.index),
            "--base-store",
            str(self.base_store),
            "--attempt",
            str(state.attempt),
            "--heartbeat-interval",
            str(self.heartbeat_interval),
        ]
        if not self.resume and state.attempt == 0:
            cmd.append("--no-resume")
        if state.injected_pending:
            cmd += ["--pause-after-units", str(self.kill_after_units)]
        return cmd

    def _launch(self, state: _ShardState) -> None:
        state.attempt += 1
        state.injected_pending = (
            self.kill_shard == state.index
            and not state.injected_done
            and state.attempt == 0
        )
        paths = shard_paths(self.base_store, state.index)
        paths.log.parent.mkdir(parents=True, exist_ok=True)
        state.log_fh = paths.log.open("a", encoding="utf-8")
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        state.proc = subprocess.Popen(
            self._command(state),
            stdout=state.log_fh,
            stderr=subprocess.STDOUT,
            env=env,
        )
        state.started = time.monotonic()
        state.relaunch_at = None

    def _record(self, state: _ShardState, outcome: str, rc: int | None) -> None:
        progress = load_progress(shard_paths(self.base_store, state.index).progress)
        self.attempts.append(
            ShardAttempt(
                shard=state.index,
                attempt=state.attempt,
                outcome=outcome,
                returncode=rc,
                units_done=len(progress.get("done_units") or ()),
                stats=dict(progress.get("stats") or {}),
                injected=state.injected_pending,
                error=progress.get("error"),
            )
        )
        if state.injected_pending:
            state.injected_done = True
            state.injected_pending = False
        if state.log_fh is not None:
            state.log_fh.close()
            state.log_fh = None
        self._write_state("running")

    def _write_state(self, label: str) -> None:
        """Publish supervision accounting for ``campaign status``.

        Advisory by design: written atomically after every attempt
        record, readable mid-run, and a write failure never disturbs the
        run it describes.
        """
        per_shard: dict[str, int] = {}
        for attempt in self.attempts:
            if attempt.outcome != "done" and not attempt.injected:
                key = str(attempt.shard)
                per_shard[key] = per_shard.get(key, 0) + 1
        payload = {
            "coordinator_schema": COORDINATOR_STATE_SCHEMA,
            "spec_fingerprint": self.spec.fingerprint(),
            "plan_fingerprint": self.plan.fingerprint(),
            "state": label,
            "shards": self.shards,
            "attempts": len(self.attempts),
            "retries_total": self.retries_total,
            "max_retries": self.max_retries,
            "max_total_retries": self.max_total_retries,
            "retries_by_shard": per_shard,
            "last_outcome": self.attempts[-1].outcome if self.attempts else None,
            "updated_at": time.time(),
        }
        try:
            atomic_write_text(
                coordinator_state_path(self.base_store),
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        except OSError:
            pass

    def _fail_or_retry(self, state: _ShardState, outcome: str, rc: int | None) -> None:
        self._record(state, outcome, rc)
        injected = self.attempts[-1].injected
        if not injected:
            state.retries_used += 1
            self.retries_total += 1
            if state.retries_used > self.max_retries:
                raise DistributedError(
                    f"shard {state.index} failed {state.retries_used} "
                    f"time(s), retries exhausted; last outcome {outcome!r} "
                    f"(rc={rc}); recorded error: "
                    f"{self.attempts[-1].error}; see "
                    f"{shard_paths(self.base_store, state.index).log}"
                )
            if self.retries_total > self.max_total_retries:
                raise DistributedError(
                    f"fleet retry budget exhausted: {self.retries_total} "
                    f"relaunches across all shards exceed "
                    f"max_total_retries={self.max_total_retries}; last "
                    f"failure was shard {state.index} ({outcome!r}, rc={rc})"
                )
        state.proc = None
        # Linear backoff with bounded, seeded jitter: concurrent failing
        # shards decorrelate their relaunches instead of stampeding the
        # filesystem in lockstep, and a replay sees the same delays.
        delay = self.backoff * max(1, state.retries_used)
        delay *= 1.0 + self.retry_jitter * self._rng.random()
        state.relaunch_at = time.monotonic() + delay

    def _kill(self, state: _ShardState) -> int | None:
        try:
            state.proc.send_signal(signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            pass
        try:
            return state.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL
            return None

    # -- supervision loop ----------------------------------------------
    def _poll(self, state: _ShardState) -> None:
        paths = shard_paths(self.base_store, state.index)
        rc = state.proc.poll()
        if rc is not None:
            progress = load_progress(paths.progress)
            if rc == 0 and progress.get("state") == "done":
                state.completed = True
                self._record(state, "done", rc)
                state.proc = None
            else:
                self._fail_or_retry(state, "failed", rc)
            return
        progress = load_progress(paths.progress)
        if (
            state.injected_pending
            and len(progress.get("done_units") or ())
            >= self.kill_after_units
        ):
            rc = self._kill(state)
            self._fail_or_retry(state, "killed", rc)
            return
        if progress and progress.get("attempt") == state.attempt:
            stale = time.time() - progress.get("heartbeat_at", 0.0)
            if stale > self.heartbeat_timeout:
                rc = self._kill(state)
                self._fail_or_retry(state, "stalled", rc)
        elif time.monotonic() - state.started > 2 * self.heartbeat_timeout:
            # Never wrote this attempt's progress: died before starting,
            # or can't reach the filesystem.  Same medicine.
            rc = self._kill(state)
            self._fail_or_retry(state, "stalled", rc)

    def _with_io_retry(self, label: str, fn):
        """Run coordinator-side I/O under bounded-jitter retry.

        One transient OSError (shared mount hiccup — or the
        ``coordinator.io`` fault seam) must not abandon a fleet's worth
        of finished shard work; a persistent one still propagates.
        """

        def attempt():
            fault_point("coordinator.io")
            return fn()

        return retry_io(
            attempt,
            attempts=3,
            base_delay=self.backoff / 4 if self.backoff > 0 else 0.05,
            jitter=self.retry_jitter,
            seed=int(self.plan.fingerprint(), 16) ^ len(label),
        )

    def run(self) -> DistRunResult:
        """Drive every shard to completion, then merge; the entry point."""
        self._with_io_retry(
            "plan", lambda: self.plan.save(plan_path_for(self.base_store))
        )
        self._write_state("running")
        states = [_ShardState(i) for i in range(self.shards)]
        for state in states:
            self._launch(state)
        try:
            while not all(s.completed for s in states):
                for state in states:
                    if state.completed:
                        continue
                    if state.proc is not None:
                        self._poll(state)
                    elif (
                        state.relaunch_at is not None
                        and time.monotonic() >= state.relaunch_at
                    ):
                        self._launch(state)
                time.sleep(self.poll_interval)
        except BaseException:
            self._write_state("failed")
            raise
        finally:
            for state in states:
                if state.proc is not None and state.proc.poll() is None:
                    self._kill(state)
                if state.log_fh is not None:
                    state.log_fh.close()
                    state.log_fh = None
        result = self._merge()
        self._write_state("done")
        return result

    # -- fold-back ------------------------------------------------------
    def _merge(self) -> DistRunResult:
        all_paths = [shard_paths(self.base_store, i) for i in range(self.shards)]
        acct = self._with_io_retry(
            "merge-stores",
            lambda: merge_stores(
                self.base_store,
                [p.store for p in all_paths],
                resume=self.resume,
            ),
        )
        units, counters = self._with_io_retry(
            "merge-checkpoints",
            lambda: merge_checkpoints(
                self.spec,
                [p.checkpoint for p in all_paths],
                self.checkpoint_path,
            ),
        )
        # Sum only the scheduling-invariant counters: a killed attempt's
        # last heartbeat snapshot also carries execution fields
        # (phase_hits/...), which the report contract keeps out of stats.
        stats = {key: 0 for key in _STAT_KEYS}
        for attempt in self.attempts:
            for key in _STAT_KEYS:
                value = attempt.stats.get(key, 0)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    stats[key] += int(value)
        cache: dict[str, int] = {}
        for snap in counters.values():
            for key, value in snap.items():
                cache[key] = cache.get(key, 0) + int(value)
        report = assemble_report(
            self.spec,
            units,
            stats=stats,
            cache=cache,
            store_path=str(self.base_store),
            store_records=acct.get("dest_records"),
            checkpoint_path=str(self.checkpoint_path),
        )
        return DistRunResult(
            report=report,
            plan=self.plan,
            attempts=self.attempts,
            merge=acct,
            store_path=str(self.base_store),
            checkpoint_path=str(self.checkpoint_path),
        )
