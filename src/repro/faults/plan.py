"""Deterministic, fingerprinted fault plans.

A :class:`FaultPlan` maps *injection sites* — named I/O and process
seams the library already has (store appends, index sidecar writes,
checkpoint journal marks, worker heartbeats,
serving's live search, ...) — to seeded triggers.  Like
:class:`~repro.distributed.shardplan.ShardPlan`, a plan is a value: it
round-trips through JSON, carries its own content fingerprint, and
contains no clocks or ambient randomness, so a CI failure can be
replayed byte-for-byte from the plan file alone.

A trigger fires at a seam according to:

- ``after`` — arm on the Nth hit of the site (1-based; earlier hits
  pass through untouched),
- ``p`` — optional per-hit probability once armed, drawn from a
  per-site RNG seeded by ``(plan seed, site name)`` so two sites (or
  the same site in a replay) see identical sequences,
- ``times`` — a *global* fire budget enforced through a shared append
  journal, so a fault that kills a worker does not re-fire in the
  relaunched worker and spin the coordinator forever.

What a fire *does* is the trigger's ``kind`` — see :data:`SITES` for
which kinds each seam supports and :mod:`repro.faults.injector` for the
effect semantics.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import ReproError

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "SITES",
    "FAULT_SCENARIOS",
    "FaultPlanError",
    "FaultTrigger",
    "FaultPlan",
    "scenario_plan",
    "random_plan",
]

FAULT_PLAN_SCHEMA = 1

# site name -> kinds that seam knows how to enact.  Generic kinds
# (raise / io_error / enospc / kill / hang / delay) are enacted
# by the injector itself; cooperative kinds (torn_write / short_write /
# drop / shed) are returned to the seam, which implements the effect.
SITES: dict[str, tuple[str, ...]] = {
    # analysis/store.py -- the JSONL result archive and its sidecars
    "store.append": ("torn_write", "short_write", "enospc", "io_error"),
    "store.error_append": ("torn_write", "io_error"),
    # campaign/runner.py -- the checkpoint journal + stats sidecar
    "checkpoint.mark": ("torn_write", "io_error"),
    "checkpoint.stats": ("drop", "io_error"),
    # distributed/worker.py -- shard worker lifecycle
    "worker.start": ("delay", "kill"),
    "worker.heartbeat": ("kill", "hang", "delay"),
    # distributed/coordinator.py -- merge/plan I/O (healed by retry_io)
    "coordinator.io": ("io_error",),
    # serving/{service,frontend}.py
    "serving.live_search": ("delay", "raise"),
    "serving.refresh": ("drop", "io_error"),
    "serving.admit": ("shed",),
}

_KINDS = frozenset(kind for kinds in SITES.values() for kind in kinds)


class FaultPlanError(ReproError, ValueError):
    """A fault plan is malformed: unknown site, kind the site cannot
    enact, bad trigger field, or a fingerprint that does not match the
    file contents."""


@dataclass(frozen=True)
class FaultTrigger:
    """When (and what) one site injects.

    ``seconds`` parameterizes ``delay``/``hang``; ``errno`` overrides
    the errno of ``io_error`` (default ``EIO``).  ``times=None`` means
    an unlimited fire budget.
    """

    kind: str
    after: int = 1
    times: int | None = 1
    p: float | None = None
    seconds: float | None = None
    errno: int | None = None

    def validate(self, site: str) -> "FaultTrigger":
        kinds = SITES.get(site)
        if kinds is None:
            raise FaultPlanError(
                f"unknown fault site {site!r}; pick from {sorted(SITES)}"
            )
        if self.kind not in kinds:
            raise FaultPlanError(
                f"site {site!r} cannot enact kind {self.kind!r} "
                f"(supported: {list(kinds)})"
            )
        if self.after < 1:
            raise FaultPlanError(f"{site}: 'after' must be >= 1, got {self.after}")
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"{site}: 'times' must be >= 1 or null, got {self.times}"
            )
        if self.p is not None and not (0.0 < self.p <= 1.0):
            raise FaultPlanError(f"{site}: 'p' must be in (0, 1], got {self.p}")
        if self.seconds is not None and self.seconds < 0:
            raise FaultPlanError(f"{site}: 'seconds' must be >= 0")
        return self

    def _canonical(self) -> dict:
        out: dict = {"kind": self.kind, "after": self.after, "times": self.times}
        if self.p is not None:
            out["p"] = self.p
        if self.seconds is not None:
            out["seconds"] = self.seconds
        if self.errno is not None:
            out["errno"] = self.errno
        return out

    @classmethod
    def from_dict(cls, site: str, data: Mapping) -> "FaultTrigger":
        if not isinstance(data, Mapping):
            raise FaultPlanError(f"trigger for site {site!r} must be an object")
        unknown = set(data) - {"kind", "after", "times", "p", "seconds", "errno"}
        if unknown:
            raise FaultPlanError(
                f"trigger for site {site!r} has unknown fields {sorted(unknown)}"
            )
        try:
            trig = cls(
                kind=str(data["kind"]),
                after=int(data.get("after", 1)),
                times=(
                    None if data.get("times", 1) is None
                    else int(data.get("times", 1))
                ),
                p=None if data.get("p") is None else float(data["p"]),
                seconds=(
                    None if data.get("seconds") is None else float(data["seconds"])
                ),
                errno=None if data.get("errno") is None else int(data["errno"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(
                f"malformed trigger for site {site!r}: {exc}"
            ) from exc
        return trig.validate(site)


@dataclass(frozen=True)
class FaultPlan:
    """One immutable, fingerprinted assignment of triggers to sites."""

    seed: int
    sites: tuple[tuple[str, FaultTrigger], ...]  # sorted by site name

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sites", tuple(sorted(self.sites, key=lambda st: st[0]))
        )

    @property
    def triggers(self) -> dict[str, FaultTrigger]:
        return dict(self.sites)

    def site_seed(self, site: str) -> int:
        """Seed for one site's private RNG — a pure function of the plan
        seed and the site name, so replays and unrelated sites agree."""
        blob = f"{self.seed}:{site}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

    def site_rng(self, site: str) -> random.Random:
        return random.Random(self.site_seed(site))

    # -- serialization (ShardPlan pattern) ------------------------------
    def _canonical(self) -> dict:
        return {
            "fault_schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "sites": {site: trig._canonical() for site, trig in self.sites},
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self._canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        out = self._canonical()
        out["fingerprint"] = self.fingerprint()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultPlanError("fault plan must be a JSON object")
        if data.get("fault_schema") != FAULT_PLAN_SCHEMA:
            raise FaultPlanError(
                f"unsupported fault plan schema {data.get('fault_schema')!r} "
                f"(expected {FAULT_PLAN_SCHEMA})"
            )
        sites = data.get("sites")
        if not isinstance(sites, Mapping) or not sites:
            raise FaultPlanError("fault plan needs a non-empty 'sites' object")
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"bad plan seed: {exc}") from exc
        plan = cls(
            seed=seed,
            sites=tuple(
                (str(site), FaultTrigger.from_dict(str(site), trig))
                for site, trig in sites.items()
            ),
        )
        stored = data.get("fingerprint")
        if stored is not None and stored != plan.fingerprint():
            raise FaultPlanError(
                f"fault plan fingerprint mismatch: file says {stored!r}, "
                f"contents hash to {plan.fingerprint()!r} (edited by hand?)"
            )
        return plan

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        except ValueError as exc:
            raise FaultPlanError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        # Local import keeps this module importable before ioutil exists
        # in frozen deployments; also avoids a hard cycle if ioutil ever
        # wants fault points of its own.
        from ..ioutil import atomic_write_text

        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def build(
        cls, seed: int, triggers: Mapping[str, Mapping | FaultTrigger]
    ) -> "FaultPlan":
        """Convenience constructor from ``{site: trigger-ish}``."""
        sites = []
        for site, trig in triggers.items():
            if isinstance(trig, FaultTrigger):
                sites.append((site, trig.validate(site)))
            else:
                sites.append((site, FaultTrigger.from_dict(site, trig)))
        if not sites:
            raise FaultPlanError("fault plan needs at least one site")
        return cls(seed=seed, sites=tuple(sites))


# -- canned plans -------------------------------------------------------

FAULT_SCENARIOS = ("worker-kill", "torn-append", "serving-timeout")


def scenario_plan(name: str, *, seed: int = 0) -> FaultPlan:
    """The named CI chaos scenarios, parameterized only by ``seed``.

    - ``worker-kill`` — hard-kill a shard worker at its Nth heartbeat
      (N = 1 + seed % 3); the coordinator must relaunch and the merge
      must still be byte-identical with zero duplicate evaluations.
    - ``torn-append`` — tear a store append mid-line (the Nth append,
      N = 1 + seed % 2); resume must heal it.
    - ``serving-timeout`` — stall the live search past the watchdog
      deadline and force one queue shed; every answer must still be a
      well-formed degraded response, never a 500 or a hang.
    """
    if name == "worker-kill":
        return FaultPlan.build(
            seed,
            {"worker.heartbeat": {"kind": "kill", "after": 1 + seed % 3}},
        )
    if name == "torn-append":
        return FaultPlan.build(
            seed,
            {"store.append": {"kind": "torn_write", "after": 1 + seed % 2}},
        )
    if name == "serving-timeout":
        return FaultPlan.build(
            seed,
            {
                "serving.live_search": {"kind": "delay", "seconds": 1.5},
                "serving.admit": {"kind": "shed", "after": 1},
            },
        )
    raise FaultPlanError(
        f"unknown fault scenario {name!r}; pick from {list(FAULT_SCENARIOS)}"
    )


# Sites (and the kinds drawn for them) that a campaign run can always
# recover from — the pool the randomized harness plans draw on.
_RANDOM_POOL: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("store.append", ("torn_write", "short_write", "enospc")),
    ("checkpoint.mark", ("torn_write",)),
    ("worker.start", ("delay",)),
    ("worker.heartbeat", ("kill",)),
)


def random_plan(seed: int, *, max_sites: int = 2) -> FaultPlan:
    """A randomized-but-reproducible campaign-tier plan for the harness.

    Pure function of ``seed``: draws 1..``max_sites`` distinct sites
    from the recoverable pool, each with a drawn kind, ``after`` in
    1..3, and a single-fire budget.
    """
    rng = random.Random(seed)
    count = rng.randint(1, max(1, max_sites))
    picks = rng.sample(list(_RANDOM_POOL), min(count, len(_RANDOM_POOL)))
    triggers: dict[str, dict] = {}
    for site, kinds in picks:
        # worker.start is hit exactly once per worker process, so any
        # 'after' beyond 1 would silently never fire.
        after = 1 if site == "worker.start" else rng.randint(1, 3)
        trig: dict = {"kind": rng.choice(list(kinds)), "after": after}
        if trig["kind"] == "delay":
            trig["seconds"] = round(0.05 + 0.2 * rng.random(), 3)
        triggers[site] = trig
    return FaultPlan.build(seed, triggers)


def iter_sites() -> Iterable[str]:
    return iter(SITES)
