"""Runtime half of the fault layer: decide-and-enact at each seam.

Instrumented seams call :func:`fault_point` with their site name.  With
no plan active (the overwhelmingly common case) that is one global-flag
check and costs nothing.  With a plan active, the injector keeps a
per-site hit counter and seeded RNG, consults the shared *fire journal*
for the site's remaining global budget, and either

- enacts a **generic** kind itself — ``raise`` (:class:`InjectedFault`),
  ``io_error``/``enospc`` (``OSError``), ``kill`` (``os._exit(137)``),
  ``hang``/``delay`` (sleep) — or
- returns a :class:`FaultAction` for a **cooperative** kind the seam
  must implement (``torn_write``, ``short_write``, ``drop``, ``shed``),
  because only the seam can, e.g., write half a line and flush it.

Activation crosses process boundaries through two environment
variables, inherited by shard workers:

- ``REPRO_FAULT_PLAN`` — path of the plan JSON;
- ``REPRO_FAULT_LOG`` — path of the fire journal (defaults to the plan
  path + ``.events.jsonl``).

The journal is an O_APPEND JSONL file, one line per fire.  It is what
makes ``times`` a *global* budget: a ``kill`` that took down a worker
is visible to the relaunched worker, which therefore does not re-fire
and crash-loop the coordinator.  It doubles as the replay record — the
harness and tests read it back with :func:`read_events`.

The budget is check-then-append without a cross-process lock, so two
worker processes reaching the same site's ``after`` in the same instant
can each fire once — *at-least-once*, never a crash loop.  Within one
process the injector lock makes the budget exact.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError
from .plan import FaultPlan, FaultPlanError, FaultTrigger

__all__ = [
    "PLAN_ENV",
    "LOG_ENV",
    "InjectedFault",
    "FaultAction",
    "FaultInjector",
    "fault_point",
    "activate",
    "deactivate",
    "active_injector",
    "read_events",
]

PLAN_ENV = "REPRO_FAULT_PLAN"
LOG_ENV = "REPRO_FAULT_LOG"
KILL_EXIT_CODE = 137
_HANG_DEFAULT = 3600.0
_DELAY_DEFAULT = 0.5


class InjectedFault(ReproError):
    """A deliberate failure from an active fault plan.

    Deliberately a :class:`ReproError` so it travels the same failure
    paths as any library error — the point is to exercise the *real*
    ones.
    """

    def __init__(self, site: str, kind: str, hit: int) -> None:
        super().__init__(f"injected fault at {site} (kind={kind}, hit={hit})")
        self.site = site
        self.kind = kind
        self.hit = hit


@dataclass(frozen=True)
class FaultAction:
    """A cooperative fire the calling seam must enact."""

    site: str
    kind: str
    hit: int
    trigger: FaultTrigger

    def raise_injected(self) -> None:
        """The standard way a seam finishes a torn/short write."""
        raise InjectedFault(self.site, self.kind, self.hit)


class _SiteState:
    __slots__ = ("trigger", "rng", "hits")

    def __init__(self, trigger: FaultTrigger, rng) -> None:
        self.trigger = trigger
        self.rng = rng
        self.hits = 0


class FaultInjector:
    """One process's view of an active plan (plus the shared journal)."""

    def __init__(self, plan: FaultPlan, log_path: str | Path) -> None:
        self.plan = plan
        self.log_path = Path(log_path)
        self._lock = threading.Lock()
        self._states = {
            site: _SiteState(trig, plan.site_rng(site))
            for site, trig in plan.sites
        }

    # -- journal --------------------------------------------------------
    def _journal_count(self, site: str) -> int:
        try:
            text = self.log_path.read_text(encoding="utf-8")
        except OSError:
            return 0
        count = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn journal line: the fire still happened once
            if event.get("site") == site:
                count += 1
        return count

    def _journal_append(self, event: dict) -> None:
        payload = (
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)

    # -- decision + enactment -------------------------------------------
    def check(self, site: str) -> FaultAction | None:
        state = self._states.get(site)
        if state is None:
            return None
        with self._lock:
            state.hits += 1
            hit = state.hits
            trig = state.trigger
            if hit < trig.after:
                return None
            if trig.p is not None and state.rng.random() >= trig.p:
                return None
            # Global budget: re-read the shared journal at decision time
            # so fires by dead predecessors (or sibling processes) count.
            if trig.times is not None and self._journal_count(site) >= trig.times:
                return None
            self._journal_append(
                {
                    "site": site,
                    "kind": trig.kind,
                    "hit": hit,
                    "pid": os.getpid(),
                    "plan": self.plan.fingerprint(),
                }
            )
        return self._enact(site, trig, hit)

    def _enact(
        self, site: str, trig: FaultTrigger, hit: int
    ) -> FaultAction | None:
        kind = trig.kind
        if kind == "raise":
            raise InjectedFault(site, kind, hit)
        if kind == "io_error":
            code = trig.errno if trig.errno is not None else _errno.EIO
            raise OSError(code, f"injected I/O error at {site} (hit={hit})")
        if kind == "enospc":
            raise OSError(
                _errno.ENOSPC, f"injected ENOSPC at {site} (hit={hit})"
            )
        if kind == "kill":
            os._exit(KILL_EXIT_CODE)
        if kind == "hang":
            time.sleep(trig.seconds if trig.seconds is not None else _HANG_DEFAULT)
            return None
        if kind in ("delay", "slow_start"):
            time.sleep(
                trig.seconds if trig.seconds is not None else _DELAY_DEFAULT
            )
            return None
        # Cooperative kinds: the seam enacts the effect.
        return FaultAction(site=site, kind=kind, hit=hit, trigger=trig)


# -- process-global activation ------------------------------------------

_LOCK = threading.Lock()
_RESOLVED = False
_INJECTOR: FaultInjector | None = None


def default_log_path(plan_path: str | Path) -> Path:
    return Path(str(plan_path) + ".events.jsonl")


def activate(
    plan: FaultPlan | str | Path,
    *,
    log_path: str | Path | None = None,
    fresh: bool = True,
) -> FaultInjector:
    """Activate a plan for this process *and its children* (via env).

    ``fresh=False`` keeps an existing fire journal — for re-arming the
    same run after a recovery pass, where prior fires must stay both
    visible (the replay record) and counted (the ``times`` budget).
    """
    global _RESOLVED, _INJECTOR
    if isinstance(plan, (str, Path)):
        plan_path = Path(plan)
        plan_obj = FaultPlan.load(plan_path)
    else:
        # Materialize the plan so child processes can load it from env.
        import tempfile

        plan_obj = plan
        plan_path = Path(tempfile.gettempdir()) / (
            f"repro-fault-plan.{plan_obj.fingerprint()}.json"
        )
        plan_obj.save(plan_path)
    log = Path(log_path) if log_path is not None else default_log_path(plan_path)
    # A top-level activation starts a fresh run: the journal's job is to
    # share fire counts with *descendants* of this activation, not to
    # leak budget spent by a previous run of the same plan.
    if fresh:
        try:
            log.unlink()
        except OSError:
            pass
    os.environ[PLAN_ENV] = str(plan_path)
    os.environ[LOG_ENV] = str(log)
    with _LOCK:
        _INJECTOR = FaultInjector(plan_obj, log)
        _RESOLVED = True
    return _INJECTOR


def deactivate() -> None:
    """Deactivate injection in this process and stop child inheritance."""
    global _RESOLVED, _INJECTOR
    os.environ.pop(PLAN_ENV, None)
    os.environ.pop(LOG_ENV, None)
    with _LOCK:
        _INJECTOR = None
        _RESOLVED = True


def active_injector() -> FaultInjector | None:
    """The process-wide injector, resolved lazily from the environment."""
    global _RESOLVED, _INJECTOR
    if _RESOLVED:
        return _INJECTOR
    with _LOCK:
        if _RESOLVED:
            return _INJECTOR
        plan_path = os.environ.get(PLAN_ENV)
        if plan_path:
            plan = FaultPlan.load(plan_path)  # loud: faults were requested
            log = os.environ.get(LOG_ENV) or str(default_log_path(plan_path))
            _INJECTOR = FaultInjector(plan, log)
        else:
            _INJECTOR = None
        _RESOLVED = True
    return _INJECTOR


def _reset_for_tests() -> None:
    """Forget the resolved state so the next call re-reads the env."""
    global _RESOLVED, _INJECTOR
    with _LOCK:
        _RESOLVED = False
        _INJECTOR = None


def fault_point(site: str) -> FaultAction | None:
    """The one call every instrumented seam makes.

    Free when no plan is active.  May raise (``raise``/``io_error``/
    ``enospc``), sleep (``delay``/``hang``), exit the process
    (``kill``), or return a cooperative :class:`FaultAction`.
    """
    inj = active_injector()
    if inj is None:
        return None
    return inj.check(site)


def read_events(log_path: str | Path) -> list[dict]:
    """Parse a fire journal (torn final lines tolerated, like any JSONL)."""
    try:
        text = Path(log_path).read_text(encoding="utf-8")
    except OSError:
        return []
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events
