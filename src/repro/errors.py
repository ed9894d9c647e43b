"""The library's unified exception hierarchy.

Every error the public API (:mod:`repro.api`) can raise descends from
:class:`ReproError`, so consumers embedding the library can write one
``except ReproError`` instead of enumerating subsystem exceptions.  The
historical classes keep their historical bases too (``LegalityError`` is
still a ``ValueError``, ``CampaignResumeError`` still a ``RuntimeError``,
...), so existing ``except`` clauses keep working unchanged.

The tree::

    ReproError
    ├── ApiUsageError (ValueError)           repro.api
    ├── LegalityError (ValueError)           repro.core.legality
    │   └── SweepError                       repro.analysis.sweep
    │       └── SweepBaselineError
    ├── CampaignError
    │   ├── CampaignSpecError (ValueError)   repro.campaign.spec
    │   ├── CampaignResumeError (RuntimeError) repro.campaign.runner
    │   ├── ShardPlanError (ValueError)      repro.distributed.shardplan
    │   └── DistributedError                 repro.distributed.coordinator
    ├── FaultPlanError (ValueError)          repro.faults.plan
    ├── InjectedFault                        repro.faults.injector
    └── ServiceError                         repro.serving
        ├── BudgetExhausted
        └── QueueFullError

This module is deliberately a leaf: it imports nothing from the library,
so any layer (core, analysis, campaign, serving) can base its exceptions
here without cycles.  Subsystem exceptions stay *defined* next to the
code that raises them; only the roots live here.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ApiUsageError",
    "CampaignError",
    "DistributedError",
    "ServiceError",
    "BudgetExhausted",
    "QueueFullError",
]


class ReproError(Exception):
    """Root of every exception the repro library raises on purpose."""


class ApiUsageError(ReproError, ValueError):
    """Bad arguments to a :mod:`repro.api` entry point — an unknown
    dataset name, malformed dataflow notation, and the like.  Also a
    ``ValueError`` so argument-checking call sites keep working."""


class CampaignError(ReproError):
    """Root of campaign-layer failures (bad spec, unresumable checkpoint)."""


class DistributedError(CampaignError):
    """A distributed campaign run failed for good: a shard exhausted its
    retries, a shard plan does not match the spec, or the merged
    artifacts are incomplete.  The message carries the failing shard's
    recorded error (and worker traceback text when one survived)."""


class ServiceError(ReproError):
    """Root of dataflow-serving failures (bad query, no index entry, ...)."""


class BudgetExhausted(ServiceError):
    """A live search ran out of its candidate budget (or was given none)
    without producing a legal mapping; the service degrades to the
    best-known Pareto point when one exists, else this propagates."""


class QueueFullError(ServiceError):
    """The serving front-end shed this request: the concurrent-query queue
    is at its depth limit.  Back off and retry."""
