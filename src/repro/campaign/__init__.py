"""Declarative design-space exploration campaigns.

This package is the scheduling front-end over the core evaluation
service, layered as ``spec -> session -> report``:

- :class:`~repro.campaign.spec.CampaignSpec` (``spec.py``) declares
  *what* to explore — datasets x hardware grid x candidate source
  (``table5`` | ``exhaustive`` | ``random`` | the Figs. 14-16 case-study
  knob sweeps) plus objective, budget, and seed.  Specs round-trip
  through plain JSON/TOML files so campaigns are versionable artifacts.
- :class:`~repro.campaign.session.ExplorationSession` (``session.py``)
  owns *how* candidates get evaluated: per-context memos, sparsity and
  phase-engine caches shared by every ``(workload, hardware)`` context, and a
  :class:`~repro.analysis.store.ResultStore`-backed warm cache that
  answers previously persisted candidates from disk with zero cost-model
  runs.  ``session.evaluator(wl, hw)`` hands out thin
  :class:`~repro.core.evaluator.DataflowEvaluator` views.
- :func:`~repro.campaign.runner.run_campaign` (``runner.py``) expands a
  spec into per-``(dataset, hardware)`` units, runs them through one
  session, and checkpoints each completed unit so a killed campaign
  restarts where it left off; results aggregate into a
  :class:`~repro.campaign.report.CampaignReport` (``report.py``).
- :mod:`~repro.campaign.scheduler` (``scheduler.py``) runs the units
  one at a time in grid order, so checkpoint lines and report rows are
  the same bytes on every run; :mod:`repro.distributed` shards the unit
  grid over processes and merges back to those same bytes.

The CLI front-end is ``repro campaign run|status|report --spec FILE``;
``repro sweep`` and ``repro search`` delegate to one-shot specs.
"""

from .report import CampaignReport, UnitResult
from .runner import (
    CampaignCheckpoint,
    CampaignResumeError,
    campaign_units,
    run_campaign,
)
from .session import ExplorationSession
from .spec import (
    CampaignSpec,
    CampaignSpecError,
    CandidateSource,
    HardwarePoint,
    unit_key,
)

__all__ = [
    "CampaignReport",
    "UnitResult",
    "CampaignCheckpoint",
    "CampaignResumeError",
    "campaign_units",
    "run_campaign",
    "ExplorationSession",
    "CampaignSpec",
    "CampaignSpecError",
    "CandidateSource",
    "HardwarePoint",
    "unit_key",
]
