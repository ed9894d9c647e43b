"""Declarative campaign specifications (the *what* of exploration).

A :class:`CampaignSpec` is a plain, JSON/TOML-round-trippable description
of one exploration campaign: which datasets, which hardware points, which
candidate source, under which objective/budget/seed.  It deliberately
contains no *execution* policy — shard counts and caches belong to the
runners and :class:`~repro.campaign.session.ExplorationSession` — so the same spec
file reproduces the same records on a laptop and on a 64-core box.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..arch.config import AcceleratorConfig
from ..errors import CampaignError
from ..graphs.datasets import dataset_names

__all__ = [
    "CampaignSpecError",
    "HardwarePoint",
    "CandidateSource",
    "CampaignSpec",
    "SOURCE_KINDS",
    "unit_key",
]


class CampaignSpecError(CampaignError, ValueError):
    """A campaign spec failed validation (unknown dataset, bad source, ...).

    A :class:`~repro.errors.CampaignError` (so ``except ReproError``
    catches it) that stays a ``ValueError`` for historical call sites.
    """


def unit_key(dataset: str, pt: "HardwarePoint") -> str:
    """The canonical ``dataset@hw`` unit key.

    The checkpoint journal, the scheduler's resume skip, and ``campaign
    status``'s record attribution all join on this exact string — derive
    it only through here.
    """
    return f"{dataset}@{pt.key()}"


@dataclass(frozen=True)
class HardwarePoint:
    """One accelerator coordinate of the campaign's hardware grid.

    Mirrors the CLI's hardware knobs: PE count, distribution/reduction
    bandwidth (``None`` = sufficient), and finite global-buffer capacity
    in KiB (``None`` = sufficient).  ``label``, when set, is merged into
    every record of this point as an ``hw`` field; single-point campaigns
    usually leave it unset so their records stay byte-identical to the
    legacy per-dataset CLI output.
    """

    num_pes: int = 512
    bandwidth: int | None = None
    gb_kib: int | None = None
    label: str | None = None

    def config(self) -> AcceleratorConfig:
        return AcceleratorConfig(
            num_pes=self.num_pes,
            dist_bw=self.bandwidth,
            red_bw=self.bandwidth,
            gb_bytes=self.gb_kib * 1024 if self.gb_kib else None,
        )

    def key(self) -> str:
        """Stable unit-key fragment (label wins when given)."""
        if self.label:
            return self.label
        parts = [f"pes{self.num_pes}"]
        if self.bandwidth is not None:
            parts.append(f"bw{self.bandwidth}")
        if self.gb_kib is not None:
            parts.append(f"gb{self.gb_kib}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"num_pes": self.num_pes}
        if self.bandwidth is not None:
            out["bandwidth"] = self.bandwidth
        if self.gb_kib is not None:
            out["gb_kib"] = self.gb_kib
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HardwarePoint":
        unknown = set(data) - {"num_pes", "bandwidth", "gb_kib", "label"}
        if unknown:
            raise CampaignSpecError(
                f"unknown hardware-point fields: {sorted(unknown)}"
            )
        for key in ("num_pes", "bandwidth", "gb_kib"):
            value = data.get(key)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise CampaignSpecError(
                    f"hardware-point field {key!r} must be an integer, "
                    f"got {value!r}"
                )
        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise CampaignSpecError("hardware-point label must be a string")
        return cls(**data)


# Allowed parameter keys per candidate-source kind (forwarded verbatim to
# the strategy behind the kind).
SOURCE_KINDS: dict[str, frozenset[str]] = {
    "table5": frozenset({"configs"}),
    "exhaustive": frozenset(),
    "pareto": frozenset({"max_evals"}),
    "random": frozenset({"n"}),
    "pe_allocation": frozenset({"config_names", "splits"}),
    "num_pes": frozenset({"pe_counts", "config_names", "baseline"}),
    "bandwidth": frozenset({"bandwidths", "config_names", "num_pes"}),
}


@dataclass(frozen=True)
class CandidateSource:
    """Where a unit's candidate mappings come from.

    ``kind`` picks the strategy; ``params`` (kind-specific, validated
    against :data:`SOURCE_KINDS`) tune it — e.g. the splits of a
    ``pe_allocation`` sweep or the draw count ``n`` of ``random``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidateSource":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise CampaignSpecError("source needs a 'kind' field")
        return cls(kind=kind, params=data)


@dataclass
class CampaignSpec:
    """One declarative exploration campaign.

    ``datasets`` x ``hardware`` is the unit grid; ``source`` supplies each
    unit's candidates; ``objective``/``budget``/``seed`` parameterize the
    search.  ``store``/``checkpoint`` optionally pin the campaign's
    artifact paths (the CLI defaults them to ``runs/<name>[.checkpoint].jsonl``
    and lets flags override).
    """

    name: str
    datasets: list[str]
    source: CandidateSource
    hardware: list[HardwarePoint] = field(
        default_factory=lambda: [HardwarePoint()]
    )
    objective: str = "cycles"
    budget: int | None = None
    seed: int = 0
    store: str | None = None
    checkpoint: str | None = None
    # Block-partitioned evaluation: None (whole-graph), {"blocks": k}, or
    # {"budget_bytes": n} — resolved per unit against its workload.
    partition: dict | None = None

    # ------------------------------------------------------------------
    def validate(self) -> "CampaignSpec":
        """Raise :class:`CampaignSpecError` on any inconsistency."""
        if not self.name or not str(self.name).strip():
            raise CampaignSpecError("campaign needs a non-empty name")
        if not self.datasets:
            raise CampaignSpecError("campaign needs at least one dataset")
        known = set(dataset_names())
        unknown = [d for d in self.datasets if d not in known]
        if unknown:
            raise CampaignSpecError(
                f"unknown datasets {unknown}; known: {sorted(known)}"
            )
        if len(set(self.datasets)) != len(self.datasets):
            raise CampaignSpecError("duplicate datasets in campaign")
        if not self.hardware:
            raise CampaignSpecError("campaign needs at least one hardware point")
        keys = [pt.key() for pt in self.hardware]
        if len(set(keys)) != len(keys):
            raise CampaignSpecError(
                f"hardware points collide on unit keys {keys}; add labels"
            )
        for pt in self.hardware:
            if pt.num_pes < 1:
                raise CampaignSpecError(f"hardware point {pt} needs num_pes >= 1")
        if self.source.kind not in SOURCE_KINDS:
            raise CampaignSpecError(
                f"unknown source kind {self.source.kind!r}; "
                f"pick from {sorted(SOURCE_KINDS)}"
            )
        bad = set(self.source.params) - SOURCE_KINDS[self.source.kind]
        if bad:
            raise CampaignSpecError(
                f"source kind {self.source.kind!r} does not accept params "
                f"{sorted(bad)}; allowed: {sorted(SOURCE_KINDS[self.source.kind])}"
            )
        # The accelerator-scale and bandwidth case studies sweep their own
        # hardware grids; a spec-level grid would be silently ignored.
        if self.source.kind == "num_pes":
            pt = self.hardware[0]
            if (
                len(self.hardware) != 1
                or pt.num_pes != HardwarePoint().num_pes
                or pt.bandwidth is not None
                or pt.gb_kib is not None
            ):
                raise CampaignSpecError(
                    "the 'num_pes' source sweeps its own accelerator-scale "
                    "grid (source param 'pe_counts'); leave 'hardware' unset"
                )
        if self.source.kind == "bandwidth":
            pt = self.hardware[0]
            if len(self.hardware) != 1 or pt.bandwidth is not None or pt.gb_kib is not None:
                raise CampaignSpecError(
                    "the 'bandwidth' source sweeps its own bandwidth grid "
                    "(source param 'bandwidths'); 'hardware' may only set "
                    "num_pes"
                )
            if "num_pes" in self.source.params and pt.num_pes != HardwarePoint().num_pes:
                raise CampaignSpecError(
                    "set the 'bandwidth' source's PE count either via the "
                    "hardware point or the 'num_pes' param, not both"
                )
        from ..core.optimizer import OBJECTIVES

        if self.objective not in OBJECTIVES:
            raise CampaignSpecError(
                f"unknown objective {self.objective!r}; "
                f"pick from {sorted(OBJECTIVES)}"
            )
        if self.budget is not None and (
            not isinstance(self.budget, int)
            or isinstance(self.budget, bool)
            or self.budget < 1
        ):
            raise CampaignSpecError("budget must be an integer >= 1 (or null)")
        if self.partition is not None:
            from ..core.partitioned import normalize_partition

            try:
                normalized = normalize_partition(self.partition)
            except ValueError as exc:
                raise CampaignSpecError(f"bad partition spec: {exc}") from exc
            if normalized != self.partition:
                raise CampaignSpecError(
                    "spec partition must be in canonical form "
                    '({"blocks": k} or {"budget_bytes": n}), '
                    f"got {self.partition!r}"
                )
        return self

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "datasets": list(self.datasets),
            "hardware": [pt.to_dict() for pt in self.hardware],
            "source": self.source.to_dict(),
            "objective": self.objective,
            "budget": self.budget,
            "seed": self.seed,
        }
        if self.store is not None:
            out["store"] = self.store
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        # Emitted only when set: pre-partitioning specs keep their exact
        # serialized form — and therefore their fingerprints.
        if self.partition is not None:
            out["partition"] = dict(self.partition)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        known = {
            "name", "datasets", "hardware", "source", "objective",
            "budget", "seed", "store", "checkpoint", "partition",
        }
        unknown = set(data) - known
        if unknown:
            raise CampaignSpecError(f"unknown spec fields: {sorted(unknown)}")
        for req in ("name", "datasets", "source"):
            if req not in data:
                raise CampaignSpecError(f"spec is missing required field {req!r}")
        try:
            source = CandidateSource.from_dict(data["source"])
            hardware = [
                HardwarePoint.from_dict(pt)
                for pt in data.get("hardware", [{"num_pes": 512}])
            ]
            spec = cls(
                name=data["name"],
                datasets=list(data["datasets"]),
                source=source,
                hardware=hardware,
                objective=data.get("objective", "cycles"),
                budget=data.get("budget"),
                seed=int(data.get("seed", 0)),
                store=data.get("store"),
                checkpoint=data.get("checkpoint"),
                partition=data.get("partition"),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, CampaignSpecError):
                raise
            raise CampaignSpecError(str(exc)) from exc
        return spec.validate()

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec file — TOML by ``.toml`` suffix, JSON otherwise."""
        p = Path(path)
        if p.suffix.lower() == ".toml":
            import tomllib

            try:
                data = tomllib.loads(p.read_text(encoding="utf-8"))
            except tomllib.TOMLDecodeError as exc:
                raise CampaignSpecError(f"{p}: invalid TOML: {exc}") from exc
            return cls.from_dict(data)
        return cls.from_json(p.read_text(encoding="utf-8"))

    def save(self, path: str | Path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json() + "\n", encoding="utf-8")
        return p

    # ------------------------------------------------------------------
    def unit_keys(self) -> list[str]:
        """Every ``dataset@hw`` unit key, in grid (execution) order.

        The scheduler journals completions and ``campaign status``
        attributes store records against exactly these keys.
        """
        return [
            unit_key(ds, pt) for ds in self.datasets for pt in self.hardware
        ]

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the exploration-defining fields.

        Artifact paths (``store``/``checkpoint``) are excluded so moving
        a campaign's files does not invalidate its checkpoint.
        """
        payload = self.to_dict()
        payload.pop("store", None)
        payload.pop("checkpoint", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
