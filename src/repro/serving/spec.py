"""Declarative serving specifications (``repro serve --spec ...``).

Mirrors the campaign layer's spec philosophy: a :class:`ServeSpec` is a
plain JSON-round-trippable description of one service deployment — which
stores to index, the default objective/strategy/budget, the staleness
and distance thresholds, and the front-end's host/port/limits — so the
same file reproduces the same service on any machine.  Execution policy
that *does* belong here (timeouts, queue depth) is front-end behaviour,
not exploration policy, which is why this is not a
:class:`~repro.campaign.spec.CampaignSpec` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.optimizer import OBJECTIVES
from ..errors import ServiceError

__all__ = ["ServeSpecError", "ServeSpec"]

_STRATEGIES = ("paper", "exhaustive", "random")


class ServeSpecError(ServiceError, ValueError):
    """A serve spec failed validation (unknown objective, bad limits, ...).

    A :class:`~repro.errors.ServiceError` (so ``except ReproError``
    catches it) that is also a ``ValueError`` for parse-style call sites.
    """


@dataclass
class ServeSpec:
    """One dataflow-service deployment, declaratively.

    ``store`` is the writable store path (live-search records land
    there); ``attach`` lists read-only stores to index alongside it.
    The remaining fields parameterize :class:`~repro.serving.service.DataflowService`
    and :class:`~repro.serving.frontend.DataflowServer` one-to-one.
    """

    name: str
    store: str | None = None
    attach: list[str] = field(default_factory=list)
    objective: str = "cycles"
    strategy: str = "paper"
    live_budget: int | None = 32
    max_distance: float = 0.5
    max_staleness: float | None = None
    seed: int = 0
    host: str = "127.0.0.1"
    port: int = 8077
    timeout: float = 30.0
    max_queue: int = 16

    # ------------------------------------------------------------------
    def validate(self) -> "ServeSpec":
        """Raise :class:`ServeSpecError` on any inconsistency."""
        if not self.name or not str(self.name).strip():
            raise ServeSpecError("service needs a non-empty name")
        if self.store is None and not self.attach:
            raise ServeSpecError(
                "service needs a 'store' or at least one 'attach' path"
            )
        if self.objective not in OBJECTIVES:
            raise ServeSpecError(
                f"unknown objective {self.objective!r}; "
                f"pick from {sorted(OBJECTIVES)}"
            )
        if self.strategy not in _STRATEGIES:
            raise ServeSpecError(
                f"unknown strategy {self.strategy!r}; "
                f"pick from {sorted(_STRATEGIES)}"
            )
        if self.live_budget is not None and (
            not isinstance(self.live_budget, int)
            or isinstance(self.live_budget, bool)
            or self.live_budget < 1
        ):
            raise ServeSpecError("live_budget must be an integer >= 1 (or null)")
        if self.max_distance < 0:
            raise ServeSpecError("max_distance must be >= 0")
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ServeSpecError("max_staleness must be >= 0 (or null)")
        # Port 0 is legal on purpose: bind-to-free-port, with the actual
        # port reported once listening (tests and the CI smoke rely on it).
        if not (0 <= self.port < 65536):
            raise ServeSpecError(f"port {self.port} out of range")
        if self.timeout <= 0:
            raise ServeSpecError("timeout must be > 0 seconds")
        if self.max_queue < 1:
            raise ServeSpecError("max_queue must be >= 1")
        return self

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "objective": self.objective,
            "strategy": self.strategy,
            "live_budget": self.live_budget,
            "max_distance": self.max_distance,
            "max_staleness": self.max_staleness,
            "seed": self.seed,
            "host": self.host,
            "port": self.port,
            "timeout": self.timeout,
            "max_queue": self.max_queue,
        }
        if self.store is not None:
            out["store"] = self.store
        if self.attach:
            out["attach"] = list(self.attach)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeSpec":
        known = {
            "name", "store", "attach", "objective", "strategy",
            "live_budget", "max_distance", "max_staleness", "seed",
            "host", "port", "timeout", "max_queue",
        }
        unknown = set(data) - known
        if unknown:
            raise ServeSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "name" not in data:
            raise ServeSpecError("spec is missing required field 'name'")
        attach = data.get("attach", [])
        if isinstance(attach, str):
            attach = [attach]
        try:
            spec = cls(
                name=data["name"],
                store=data.get("store"),
                attach=[str(p) for p in attach],
                objective=data.get("objective", "cycles"),
                strategy=data.get("strategy", "paper"),
                live_budget=data.get("live_budget", 32),
                max_distance=float(data.get("max_distance", 0.5)),
                max_staleness=(
                    None
                    if data.get("max_staleness") is None
                    else float(data["max_staleness"])
                ),
                seed=int(data.get("seed", 0)),
                host=str(data.get("host", "127.0.0.1")),
                port=int(data.get("port", 8077)),
                timeout=float(data.get("timeout", 30.0)),
                max_queue=int(data.get("max_queue", 16)),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ServeSpecError):
                raise
            raise ServeSpecError(str(exc)) from exc
        return spec.validate()

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServeSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServeSpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "ServeSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save(self, path: str | Path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json() + "\n", encoding="utf-8")
        return p

    # ------------------------------------------------------------------
    def build_service(self):
        """Construct the spec's :class:`~repro.serving.service.DataflowService`."""
        from .service import DataflowService

        self.validate()
        return DataflowService(
            store=self.store,
            attach=self.attach,
            objective=self.objective,
            strategy=self.strategy,
            live_budget=self.live_budget,
            max_distance=self.max_distance,
            max_staleness=self.max_staleness,
            seed=self.seed,
        )
