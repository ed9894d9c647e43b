"""Deterministic fault injection + the crash-consistency harness.

``repro.faults`` wraps the I/O and process seams the library already
has — store appends and sidecar writes, checkpoint journal marks,
shard-worker heartbeats, serving's live search and admission — behind
named *injection sites*.  A fingerprinted, seeded
:class:`FaultPlan` maps sites to triggers; activating it (env var or
``--fault-plan``) makes any failure replayable byte-for-byte.

The harness (:mod:`repro.faults.harness`, imported lazily — it pulls in
the campaign/distributed/serving stacks) runs a campaign under a plan
and checks the three crash-consistency invariants: byte-identical
artifacts vs. an unfaulted sequential run, zero duplicate cost-model
evaluations, and serving that degrades instead of failing.
"""

from .injector import (
    LOG_ENV,
    PLAN_ENV,
    FaultAction,
    FaultInjector,
    InjectedFault,
    activate,
    active_injector,
    deactivate,
    fault_point,
    read_events,
)
from .plan import (
    FAULT_PLAN_SCHEMA,
    FAULT_SCENARIOS,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultTrigger,
    random_plan,
    scenario_plan,
)

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "FAULT_SCENARIOS",
    "SITES",
    "PLAN_ENV",
    "LOG_ENV",
    "FaultPlan",
    "FaultPlanError",
    "FaultTrigger",
    "FaultAction",
    "FaultInjector",
    "InjectedFault",
    "fault_point",
    "activate",
    "deactivate",
    "active_injector",
    "read_events",
    "scenario_plan",
    "random_plan",
]
