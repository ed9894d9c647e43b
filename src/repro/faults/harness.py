"""Crash-consistency harness: run a campaign under faults, prove three
invariants, emit a machine-readable report.

For each :class:`~repro.faults.plan.FaultPlan` the harness

1. runs the spec **sequentially and unfaulted** once (cached across
   plans) to pin the reference artifacts,
2. runs the same spec as a **distributed campaign with the plan
   active** — tolerating a mid-run failure, then finishing with a
   fault-free *recovery* resume, exactly what an operator would do —
3. spins the **serving front-end** over the recovered store (faults
   still active, so serving-tier triggers fire) and interrogates it
   over real HTTP,

and then asserts the contract this library makes about crashes:

- **byte_identical** — merged store (sorted-line digest), merged
  checkpoint (exact bytes), and report digest all equal the unfaulted
  sequential run's;
- **zero_duplicate_evals** — no attempt, faulted or recovery, ever
  re-evaluated a candidate the store already held
  (``store_skips == 0`` summed over every attempt; a record *lost* to
  a torn append is re-evaluated but was never persisted, so it does
  not count — and must not);
- **serving_degrades** — every HTTP answer is well-formed JSON with a
  status in {200, 400, 503, 504}, 503s carry ``Retry-After``, and no
  request hangs.  Never a 500, never a stuck socket.

The report (:class:`HarnessReport`) carries each plan's fire journal,
so a CI failure replays locally from the plan file alone — see the
"Chaos harness" section of EXPERIMENTS.md.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..campaign.runner import CampaignCheckpoint, run_campaign
from ..campaign.spec import CampaignSpec
from ..errors import ReproError
from ..ioutil import atomic_write_text
from .injector import activate, deactivate, default_log_path, read_events
from .plan import FaultPlan, SITES

__all__ = [
    "HARNESS_SCHEMA",
    "InvariantCheck",
    "PlanOutcome",
    "HarnessReport",
    "run_harness",
]

HARNESS_SCHEMA = 1

_SERVING_SITES = frozenset(s for s in SITES if s.startswith("serving."))
_REQUEST_TIMEOUT_FLOOR = 15.0  # per-HTTP-request hang bound (seconds)


@dataclass
class InvariantCheck:
    """One invariant's verdict for one plan."""

    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class PlanOutcome:
    """Everything the harness observed while torturing one plan."""

    plan: dict
    fingerprint: str
    invariants: list[InvariantCheck]
    events: list[dict]
    first_error: str | None
    recovered: bool

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "fingerprint": self.fingerprint,
            "ok": self.ok,
            "invariants": [inv.to_dict() for inv in self.invariants],
            "events": self.events,
            "first_error": self.first_error,
            "recovered": self.recovered,
        }


@dataclass
class HarnessReport:
    """The harness's full verdict, JSON-serializable for CI artifacts."""

    spec_fingerprint: str
    reference: dict
    outcomes: list[PlanOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "harness_schema": HARNESS_SCHEMA,
            "ok": self.ok,
            "spec_fingerprint": self.spec_fingerprint,
            "reference": self.reference,
            "plans": [outcome.to_dict() for outcome in self.outcomes],
        }

    def save(self, path: str | Path) -> Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def render(self) -> str:
        lines = [
            f"chaos harness: {'PASS' if self.ok else 'FAIL'} "
            f"({len(self.outcomes)} plan(s), spec {self.spec_fingerprint})"
        ]
        for outcome in self.outcomes:
            fired = ", ".join(
                f"{e['site']}:{e['kind']}" for e in outcome.events
            ) or "nothing fired"
            lines.append(
                f"  plan {outcome.fingerprint}: "
                f"{'ok' if outcome.ok else 'FAIL'} ({fired})"
            )
            for inv in outcome.invariants:
                mark = "ok " if inv.ok else "FAIL"
                lines.append(f"    [{mark}] {inv.name}")
                if not inv.ok:
                    for key, value in inv.detail.items():
                        lines.append(f"          {key}: {value}")
        return "\n".join(lines)


# -- digests ------------------------------------------------------------


def _file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _store_digest(path: Path) -> str | None:
    """Order-insensitive content digest: shard merge order is not part
    of the store contract, the record *set* is (the distributed-smoke
    ``diff <(sort ...)`` idiom, as one hash)."""
    try:
        lines = sorted(
            line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        )
    except OSError:
        return None
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- reference (sequential, unfaulted) ----------------------------------


def _reference_run(spec: CampaignSpec, ref_dir: Path) -> dict:
    from ..analysis.store import ResultStore

    ref_dir.mkdir(parents=True, exist_ok=True)
    store_path = ref_dir / "store.jsonl"
    ckpt_path = ref_dir / "store.checkpoint.jsonl"
    store = ResultStore(store_path, resume=False)
    checkpoint = CampaignCheckpoint(
        ckpt_path, spec.fingerprint(), resume=False
    )
    try:
        report = run_campaign(spec, store=store, checkpoint=checkpoint)
    finally:
        checkpoint.close()
        store.close()
    return {
        "store": str(store_path),
        "checkpoint": str(ckpt_path),
        "store_digest": _store_digest(store_path),
        "checkpoint_digest": _file_digest(ckpt_path),
        "report_digest": report.digest(),
        "evaluated": report.stats.get("evaluated", 0),
    }


# -- faulted distributed run --------------------------------------------


def _faulted_campaign(
    spec_path: Path,
    work: Path,
    *,
    shards: int,
    heartbeat_interval: float,
    heartbeat_timeout: float,
    max_retries: int,
) -> tuple[object, list, str | None, bool]:
    """Run dist-run under the active plan; one fault-free recovery resume
    is allowed (that *is* the crash-consistency story being tested).

    Returns ``(result, all_attempts, first_error, recovered)``.
    """
    from ..distributed.coordinator import DistributedCoordinator

    def make(resume: bool) -> DistributedCoordinator:
        return DistributedCoordinator(
            spec_path,
            shards=shards,
            out=work / "store.jsonl",
            checkpoint=work / "store.checkpoint.jsonl",
            resume=resume,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
        )

    attempts: list = []
    first_error: str | None = None
    coordinator = make(resume=False)
    try:
        result = coordinator.run()
        attempts = list(coordinator.attempts)
        return result, attempts, None, False
    except (ReproError, OSError) as exc:
        first_error = f"{type(exc).__name__}: {exc}"
        attempts = list(coordinator.attempts)
    # Recovery: faults off, resume from whatever the crash left behind.
    deactivate()
    recovery = make(resume=True)
    result = recovery.run()
    attempts += list(recovery.attempts)
    return result, attempts, first_error, True


# -- serving probe ------------------------------------------------------


async def _http_request(
    host: str, port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, dict, dict]:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    lines = head_part.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, json.loads(body_part) if body_part else {}


def _probe_serving(
    spec: CampaignSpec, store_path: Path, *, search_deadline: float
) -> InvariantCheck:
    """Fire real HTTP at a server over the recovered store and demand
    graceful degradation: bounded answers, no 500s, Retry-After on shed.
    """
    from ..campaign.runner import campaign_units
    from ..serving.frontend import DataflowServer
    from ..serving.service import DataflowService

    datasets = sorted({ds for ds, _ in campaign_units(spec)})
    request_timeout = max(_REQUEST_TIMEOUT_FLOOR, 6 * search_deadline)
    probes: list[dict] = []
    violations: list[str] = []

    async def scenario(server: DataflowServer) -> None:
        requests: list[tuple[str, str, dict | None]] = [
            ("GET", "/healthz", None),
            *[("POST", "/query", {"dataset": ds}) for ds in datasets],
            # An index miss by construction: forces the live-search path
            # so serving.live_search triggers (delay/raise) actually run.
            (
                "POST",
                "/query",
                {
                    "graph": {
                        "num_vertices": 8,
                        "edges": [[i, (i + 1) % 8] for i in range(8)],
                        "name": "harness-ring8",
                    },
                    "in_features": 4,
                    "out_features": 4,
                },
            ),
            ("GET", "/stats", None),
        ]
        for method, path, body in requests:
            started = time.monotonic()
            try:
                status, headers, payload = await asyncio.wait_for(
                    _http_request(server.host, server.port, method, path, body),
                    timeout=request_timeout,
                )
            except (asyncio.TimeoutError, TimeoutError):
                violations.append(
                    f"{method} {path}: no answer within {request_timeout}s "
                    "(hang)"
                )
                continue
            except (ValueError, ConnectionError) as exc:
                violations.append(f"{method} {path}: malformed answer: {exc}")
                continue
            probe = {
                "request": f"{method} {path}",
                "status": status,
                "elapsed_s": round(time.monotonic() - started, 3),
                "source": payload.get("source"),
            }
            probes.append(probe)
            if status not in (200, 400, 503, 504):
                violations.append(
                    f"{method} {path}: status {status} "
                    f"(body: {json.dumps(payload)[:200]})"
                )
            if status == 503 and "retry-after" not in headers:
                violations.append(f"{method} {path}: 503 without Retry-After")
            if status != 200 and "error" not in payload:
                violations.append(
                    f"{method} {path}: non-200 without an 'error' field"
                )

    async def main() -> None:
        service = DataflowService(
            attach=[store_path],
            live_budget=4,
            search_deadline=search_deadline,
        )
        server = DataflowServer(
            service, host="127.0.0.1", port=0, timeout=request_timeout,
            max_queue=4, name="chaos-harness",
        )
        try:
            await server.start()
            await scenario(server)
        finally:
            await server.stop()
            service.close()

    asyncio.run(main())
    return InvariantCheck(
        name="serving_degrades",
        ok=not violations,
        detail={"violations": violations, "probes": probes},
    )


# -- entry point --------------------------------------------------------


def run_harness(
    spec_path: str | Path,
    plans: list[FaultPlan],
    *,
    out_dir: str | Path,
    shards: int = 2,
    heartbeat_interval: float = 0.1,
    heartbeat_timeout: float = 5.0,
    max_retries: int = 3,
    search_deadline: float = 0.75,
) -> HarnessReport:
    """Torture ``spec_path`` under each plan and check all 3 invariants.

    ``out_dir`` receives one subdirectory per plan (store, checkpoint,
    shard artifacts, fault plan + fire journal) plus ``reference/`` for
    the unfaulted sequential run — everything needed to replay a failure
    by hand.  The report is returned, not written; callers (the CLI, CI)
    decide where it lands.
    """
    spec_path = Path(spec_path)
    spec = CampaignSpec.load(spec_path).validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    deactivate()  # the reference must not inherit an ambient plan
    reference = _reference_run(spec, out_dir / "reference")

    outcomes: list[PlanOutcome] = []
    for plan in plans:
        work = out_dir / f"plan-{plan.fingerprint()}"
        work.mkdir(parents=True, exist_ok=True)
        plan_path = work / "fault-plan.json"
        plan.save(plan_path)
        log_path = default_log_path(plan_path)
        activate(plan_path, log_path=log_path)
        first_error: str | None = None
        recovered = False
        invariants: list[InvariantCheck] = []
        try:
            result, attempts, first_error, recovered = _faulted_campaign(
                spec_path,
                work,
                shards=shards,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                max_retries=max_retries,
            )
            store_digest = _store_digest(work / "store.jsonl")
            ckpt_digest = _file_digest(work / "store.checkpoint.jsonl")
            report_digest = result.report.digest()
            invariants.append(
                InvariantCheck(
                    name="byte_identical",
                    ok=(
                        store_digest == reference["store_digest"]
                        and ckpt_digest == reference["checkpoint_digest"]
                        and report_digest == reference["report_digest"]
                    ),
                    detail={
                        "store": [store_digest, reference["store_digest"]],
                        "checkpoint": [
                            ckpt_digest, reference["checkpoint_digest"]
                        ],
                        "report": [
                            report_digest, reference["report_digest"]
                        ],
                    },
                )
            )
            # A lost (torn) record re-evaluates without ever having been
            # persisted, so store_skips — an append refused because the
            # fingerprint is already on disk — is exactly the duplicate-
            # evaluation witness, across faulted AND recovery attempts.
            dup = sum(
                int(a.stats.get("store_skips", 0) or 0) for a in attempts
            )
            invariants.append(
                InvariantCheck(
                    name="zero_duplicate_evals",
                    ok=dup == 0,
                    detail={"store_skips": dup, "attempts": len(attempts)},
                )
            )
            # Serving probes run with the plan still active when it has
            # serving-tier sites; a campaign-only plan's serving pass is
            # the (still required) fault-free sanity check.
            if not any(site in _SERVING_SITES for site, _ in plan.sites):
                deactivate()
            elif recovered:
                # Re-arm after the recovery pass turned faults off; keep
                # the journal (replay record + remaining fire budget).
                activate(plan_path, log_path=log_path, fresh=False)
            invariants.append(
                _probe_serving(
                    spec, work / "store.jsonl",
                    search_deadline=search_deadline,
                )
            )
        except Exception as exc:  # harness must report, not die
            invariants.append(
                InvariantCheck(
                    name="harness_completed",
                    ok=False,
                    detail={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
        finally:
            deactivate()
        outcomes.append(
            PlanOutcome(
                plan=plan.to_dict(),
                fingerprint=plan.fingerprint(),
                invariants=invariants,
                events=read_events(log_path),
                first_error=first_error,
                recovered=recovered,
            )
        )
    return HarnessReport(
        spec_fingerprint=spec.fingerprint(),
        reference=reference,
        outcomes=outcomes,
    )
