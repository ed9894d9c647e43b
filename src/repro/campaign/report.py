"""Campaign results: per-unit rows plus whole-campaign accounting.

A :class:`CampaignReport` is what :func:`~repro.campaign.runner.run_campaign`
returns and what ``repro campaign report`` re-renders from a checkpoint:
one :class:`UnitResult` per ``(dataset, hardware)`` unit (its tidy row
dictionaries, exactly what the underlying strategy produced) plus the
session's evaluation counters, so "did the resume actually cost zero
cost-model runs?" is a field, not a guess.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["UnitResult", "CampaignReport", "cache_efficacy_line", "hit_rate"]


def hit_rate(hits: float, misses: float) -> float | None:
    """Hit fraction in [0, 1], or ``None`` when nothing was looked up."""
    total = hits + misses
    return hits / total if total else None


def cache_efficacy_line(counters: dict) -> str:
    """One-line cache summary from a ``{phase_*, tilestats_*}`` snapshot."""

    def fmt(kind: str) -> str:
        hits = counters.get(f"{kind}_hits", 0)
        misses = counters.get(f"{kind}_misses", 0)
        rate = hit_rate(hits, misses)
        pct = "-" if rate is None else f"{100 * rate:.0f}%"
        return f"{hits} hits / {misses} misses ({pct})"

    return (
        f"caches: phase-engine {fmt('phase')}; tilestats {fmt('tilestats')}"
    )


@dataclass
class UnitResult:
    """One ``(dataset, hardware)`` unit's outcome."""

    dataset: str
    hw: str  # the hardware point's unit-key fragment
    rows: list[dict]
    resumed: bool = False  # answered wholesale from the checkpoint

    @property
    def key(self) -> str:
        return f"{self.dataset}@{self.hw}"

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "hw": self.hw,
            "resumed": self.resumed,
            "rows": self.rows,
        }


@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign run (or resume)."""

    name: str
    spec_fingerprint: str
    units: list[UnitResult] = field(default_factory=list)
    # Scheduling-invariant evaluation counters (EvalStats minus its
    # execution fields): identical for any shard count
    # of the same spec — what the determinism tests and CI diff.
    stats: dict = field(default_factory=dict)
    # Cache-efficacy counters (phase-engine + tilestats hits/misses):
    # execution accounting — with shards the hit/miss split depends on
    # which shard ran which unit, so these are reported but never
    # compared across runs.
    cache: dict = field(default_factory=dict)
    store_path: str | None = None
    store_records: int | None = None
    checkpoint_path: str | None = None

    @property
    def resumed_units(self) -> int:
        return sum(u.resumed for u in self.units)

    def unit(self, dataset: str, hw: str | None = None) -> UnitResult:
        for u in self.units:
            if u.dataset == dataset and (hw is None or u.hw == hw):
                return u
        raise KeyError(f"no unit for ({dataset!r}, {hw!r})")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "spec_fingerprint": self.spec_fingerprint,
            "units": [u.to_dict() for u in self.units],
            "stats": self.stats,
            "cache": self.cache,
            "store_path": self.store_path,
            "store_records": self.store_records,
            "checkpoint_path": self.checkpoint_path,
        }

    def canonical(self) -> dict:
        """The scheduling-invariant view of this report.

        Everything here — unit order and row bytes — must be identical
        whether the campaign ran in one process or sharded, fresh
        or resumed.  Execution accounting (``stats``, ``resumed`` flags) and
        artifact paths are excluded: they describe *how* a particular
        invocation got its answers, not the answers.  The determinism
        tests and the CI campaign jobs diff exactly this.
        """
        return {
            "name": self.name,
            "spec_fingerprint": self.spec_fingerprint,
            "units": [
                {"dataset": u.dataset, "hw": u.hw, "rows": u.rows}
                for u in self.units
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content hash of :meth:`canonical` (cheap byte-identity checks)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        """Human-readable summary table."""
        from ..analysis.report import format_table

        rows: list[list[Any]] = [
            [
                u.dataset,
                u.hw,
                len(u.rows),
                "checkpoint" if u.resumed else "evaluated",
            ]
            for u in self.units
        ]
        table = format_table(
            ["dataset", "hw", "rows", "how"],
            rows,
            title=f"campaign {self.name!r}: {len(self.units)} units "
            f"({self.resumed_units} from checkpoint)",
        )
        lines = [table]
        if self.stats:
            lines.append(
                "evaluations: {evaluated} fresh, {cache_hits} memo hits, "
                "{warm_hits} warm-cache hits, {errors} illegal; "
                "{persisted} records persisted".format(**self.stats)
            )
        if self.cache:
            lines.append(cache_efficacy_line(self.cache))
        if self.store_path is not None:
            lines.append(f"store: {self.store_records} records in {self.store_path}")
        if self.checkpoint_path is not None:
            lines.append(f"checkpoint: {self.checkpoint_path}")
        return "\n".join(lines)
