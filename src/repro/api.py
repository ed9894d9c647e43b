"""The blessed public API, consolidated.

Everything an external caller needs, behind stable typed signatures:

- :func:`evaluate` — cost one dataflow on one workload (the quickstart);
- :func:`sweep` — the Table V baseline sweep over one or all datasets;
- :func:`search` — the mapping optimizer (paper §VI) on one dataset;
- :func:`run_campaign` — declarative multi-dataset / multi-hardware
  exploration from a :class:`~repro.campaign.spec.CampaignSpec`, a dict,
  or a spec file path;
- :func:`shard_plan` / :func:`dist_run` / :func:`merge_stores` — the
  distributed layer: partition a campaign over shard worker processes
  under a fault-tolerant coordinator and merge the shard stores back
  into artifacts byte-identical to a sequential run;
- :class:`~repro.serving.service.DataflowService` / :func:`serve` — the
  online dataflow-selection layer over persisted campaign results;
- :class:`~repro.faults.plan.FaultPlan` / :func:`scenario_plan` /
  :func:`random_plan` / :func:`run_harness` — the deterministic,
  seeded fault-injection layer and the crash-consistency harness that
  proves recovery is byte-identical, duplicate-free, and gracefully
  degraded at the serving tier.

``sweep`` and ``search`` are one-shot campaigns under the hood — the
spec-building that used to live in the CLI happens here, so library
callers and ``repro sweep``/``repro search`` share one code path (the
CLI now delegates to these functions).  Every failure raised on purpose
anywhere below is a :class:`~repro.errors.ReproError` subclass, so
``except ReproError`` is the one catch-all an embedding application
needs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from .analysis.store import ResultStore
from .arch.config import AcceleratorConfig
from .campaign.report import CampaignReport
from .campaign.runner import CampaignCheckpoint
from .campaign.runner import run_campaign as _run_campaign
from .campaign.spec import CampaignSpec, CandidateSource, HardwarePoint
from .core.configs import paper_config_names, paper_dataflow
from .core.interphase import RunResult
from .core.omega import run_gnn_dataflow
from .core.taxonomy import Dataflow, SPVariant, parse_dataflow
from .core.tiling import TileHint
from .core.workload import GNNWorkload, workload_from_dataset
from .distributed import (
    DistributedCoordinator,
    DistRunResult,
    ShardPlan,
    merge_stores,
    plan_shards,
)
from .errors import ApiUsageError, ReproError
from .faults.harness import HarnessReport, run_harness
from .faults.plan import FaultPlan, random_plan, scenario_plan
from .graphs.datasets import Dataset, dataset_names, load_dataset
from .serving.frontend import serve
from .serving.service import DataflowService, QueryResult
from .serving.spec import ServeSpec

__all__ = [
    "evaluate",
    "sweep",
    "search",
    "run_campaign",
    "shard_plan",
    "dist_run",
    "merge_stores",
    "ShardPlan",
    "DistRunResult",
    "FaultPlan",
    "scenario_plan",
    "random_plan",
    "run_harness",
    "HarnessReport",
    "serve",
    "DataflowService",
    "QueryResult",
    "ServeSpec",
    "ReproError",
    "ApiUsageError",
]


def _resolve_workload(
    workload: "GNNWorkload | Dataset | str", *, seed: int = 0
) -> GNNWorkload:
    """A workload from whatever the caller has: a :class:`GNNWorkload`,
    a realized :class:`Dataset`, or a Table IV dataset name."""
    if isinstance(workload, GNNWorkload):
        return workload
    if isinstance(workload, Dataset):
        return workload_from_dataset(workload)
    try:
        return workload_from_dataset(load_dataset(str(workload), seed=seed))
    except KeyError as exc:
        raise ApiUsageError(
            f"unknown dataset {workload!r}; known: {dataset_names()}"
        ) from exc


def _resolve_dataflow(
    dataflow: "Dataflow | str",
    *,
    sp_optimized: bool = False,
    pe_split: float = 0.5,
) -> tuple[Dataflow, TileHint | None]:
    """A (dataflow, hint) pair from a :class:`Dataflow`, a Table V config
    name (``"SP2"``), or taxonomy notation (``"PP_AC(VtFsNt, VsGsFt)"``)."""
    if isinstance(dataflow, Dataflow):
        return dataflow, None
    if dataflow in paper_config_names():
        return paper_dataflow(dataflow, pe_split=pe_split)
    try:
        parsed = parse_dataflow(
            dataflow,
            sp_variant=SPVariant.OPTIMIZED if sp_optimized else None,
            pe_split=pe_split,
        )
    except ReproError:
        raise
    except ValueError as exc:
        raise ApiUsageError(
            f"{exc} (expected a Table V config name from "
            f"{paper_config_names()} or taxonomy notation)"
        ) from exc
    return parsed, None


def _hardware_point(
    num_pes: int, bandwidth: int | None, gb_kib: int | None
) -> HardwarePoint:
    return HardwarePoint(num_pes=num_pes, bandwidth=bandwidth, gb_kib=gb_kib)


def evaluate(
    workload: "GNNWorkload | Dataset | str",
    dataflow: "Dataflow | str",
    *,
    hint: TileHint | None = None,
    num_pes: int = 512,
    bandwidth: int | None = None,
    gb_kib: int | None = None,
    sp_optimized: bool = False,
    pe_split: float = 0.5,
    seed: int = 0,
    partition: "int | dict | None" = None,
) -> RunResult:
    """Cost one dataflow on one workload (the one-call quickstart).

    ``workload`` may be a dataset name (synthesized at ``seed``), a
    loaded :class:`~repro.graphs.datasets.Dataset`, or a bare
    :class:`~repro.core.workload.GNNWorkload`; ``dataflow`` may be a
    Table V config name, taxonomy notation, or a parsed
    :class:`~repro.core.taxonomy.Dataflow`.  Returns the full
    :class:`~repro.core.interphase.RunResult`; illegal mappings raise
    :class:`~repro.core.legality.LegalityError` (a
    :class:`~repro.errors.ReproError`).

    ``partition`` enables block-partitioned evaluation for graphs whose
    working set exceeds on-chip capacity: an int block count, or
    ``{"blocks": k}`` / ``{"budget_bytes": n}`` (blocks sized so one
    block's streamed working set fits ``n`` bytes).  See
    :mod:`repro.core.partitioned`.
    """
    wl = _resolve_workload(workload, seed=seed)
    df, config_hint = _resolve_dataflow(
        dataflow, sp_optimized=sp_optimized, pe_split=pe_split
    )
    hw = _hardware_point(num_pes, bandwidth, gb_kib).config()
    return run_gnn_dataflow(
        wl, df, hw, hint=hint or config_hint, partition=partition
    )


def sweep(
    datasets: "Sequence[str] | str | None" = None,
    *,
    num_pes: int = 512,
    bandwidth: int | None = None,
    gb_kib: int | None = None,
    seed: int = 0,
    store: "ResultStore | str | Path | None" = None,
    name: str = "sweep",
    partition_budget: int | None = None,
) -> CampaignReport:
    """Run the Table V configuration sweep (the Fig. 11 baseline).

    ``datasets`` is one name, a list, or ``None`` for every Table IV
    dataset.  Returns a :class:`~repro.campaign.report.CampaignReport`
    whose units carry one row per config (``config``/``cycles``/... —
    what ``repro sweep`` renders).  ``store`` (a
    :class:`~repro.analysis.store.ResultStore` or a path) persists every
    record and warm-starts repeats.  ``partition_budget`` (bytes) switches
    every unit to block-partitioned evaluation with blocks sized to fit
    the budget (the large-graph tier).
    """
    if datasets is None:
        targets = dataset_names()
    elif isinstance(datasets, str):
        targets = [datasets]
    else:
        targets = list(datasets)
    spec = CampaignSpec(
        name=name,
        datasets=targets,
        source=CandidateSource("table5"),
        hardware=[_hardware_point(num_pes, bandwidth, gb_kib)],
        seed=seed,
        partition=(
            {"budget_bytes": partition_budget} if partition_budget else None
        ),
    )
    return run_campaign(spec, store=store)


def search(
    dataset: str,
    *,
    objective: str = "cycles",
    budget: int | None = 200,
    strategy: str = "exhaustive",
    num_pes: int = 512,
    bandwidth: int | None = None,
    gb_kib: int | None = None,
    seed: int = 0,
    store: "ResultStore | str | Path | None" = None,
    name: str | None = None,
    partition_budget: int | None = None,
) -> CampaignReport:
    """Run the mapping optimizer (paper §VI) on one dataset.

    Sweeps the Table V baseline and the chosen candidate ``strategy``
    through one shared evaluator (so both draw from the same memo), and
    reports the winner under ``objective`` (``cycles``/``energy``/
    ``edp``) within ``budget`` successful evaluations.  ``strategy`` is
    ``"exhaustive"`` (the hint-portfolio sweep), ``"pareto"`` (the
    factored per-phase Pareto search over the full 6,656-point design
    space — same optimum, a fraction of the evaluations), or ``"random"``
    (``budget`` uniform draws).  The single unit's row carries
    ``paper_best``, ``search_best``, ``search_score``, ``evaluated``,
    ``gain``, and ``top5``; a pareto row adds probe/front accounting
    under ``pareto``.  ``partition_budget`` (bytes) switches the unit to
    block-partitioned evaluation with blocks sized to fit the budget.
    """
    spec = CampaignSpec(
        name=name or f"search-{dataset}",
        datasets=[dataset],
        source=CandidateSource(strategy),
        hardware=[_hardware_point(num_pes, bandwidth, gb_kib)],
        objective=objective,
        budget=budget,
        seed=seed,
        partition=(
            {"budget_bytes": partition_budget} if partition_budget else None
        ),
    )
    return run_campaign(spec, store=store)


def run_campaign(
    spec: "CampaignSpec | Mapping[str, Any] | str | Path",
    *,
    store: "ResultStore | str | Path | None" = None,
    checkpoint: "CampaignCheckpoint | str | Path | None" = None,
    resume: bool = True,
    session: Any | None = None,
) -> CampaignReport:
    """Run (or resume) a declarative exploration campaign.

    ``spec`` may be a :class:`~repro.campaign.spec.CampaignSpec`, a
    spec-shaped mapping, or a path to a ``.json``/``.toml`` spec file.
    ``store`` and ``checkpoint`` accept live objects or paths (paths are
    opened with ``resume`` semantics and closed on return; objects stay
    the caller's to close).  Raises
    :class:`~repro.campaign.spec.CampaignSpecError` /
    :class:`~repro.campaign.runner.CampaignResumeError` — both
    :class:`~repro.errors.CampaignError` — on bad inputs.
    """
    if isinstance(spec, (str, Path)):
        spec = CampaignSpec.load(spec)
    elif not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    owns_store = store is not None and not isinstance(store, ResultStore)
    if owns_store:
        store = ResultStore(store, resume=resume)
    owns_ckpt = checkpoint is not None and not isinstance(
        checkpoint, CampaignCheckpoint
    )
    if owns_ckpt:
        checkpoint = CampaignCheckpoint(
            checkpoint, spec.fingerprint(), resume=resume
        )
    try:
        return _run_campaign(
            spec,
            store=store,
            checkpoint=checkpoint,
            session=session,
        )
    finally:
        if owns_ckpt:
            checkpoint.close()
        if owns_store:
            store.close()


def shard_plan(
    spec: "CampaignSpec | Mapping[str, Any] | str | Path",
    shards: int,
    *,
    policy: str = "round-robin",
) -> ShardPlan:
    """Partition a campaign's unit grid into ``shards`` assignments.

    ``spec`` takes the same shapes as :func:`run_campaign`.  Returns the
    deterministic, fingerprinted
    :class:`~repro.distributed.shardplan.ShardPlan` that ``dist_run``
    and ``repro campaign shard-run`` execute against.  Raises
    :class:`~repro.distributed.shardplan.ShardPlanError` (a
    :class:`~repro.errors.CampaignError`) on bad inputs.
    """
    if isinstance(spec, (str, Path)):
        spec = CampaignSpec.load(spec)
    elif not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    return plan_shards(spec, shards, policy)


def dist_run(
    spec_path: str | Path,
    *,
    workers: int = 2,
    policy: str = "round-robin",
    out: "str | Path | None" = None,
    checkpoint: "str | Path | None" = None,
    resume: bool = True,
    **coordinator_options: Any,
) -> DistRunResult:
    """Run a campaign spec *file* across ``workers`` shard processes.

    The distributed counterpart of :func:`run_campaign`: plans the
    shards, spawns one ``repro campaign shard-run`` subprocess each,
    supervises them (heartbeat timeouts, retry/backoff relaunches that
    warm-start with zero duplicate evaluations), and merges the shard
    stores and checkpoints into artifacts byte-identical to a sequential
    run.  ``spec_path`` must be a file — workers re-load it themselves.
    Extra keyword arguments reach
    :class:`~repro.distributed.coordinator.DistributedCoordinator`
    (``heartbeat_timeout``, ``max_retries``, failure injection, ...).
    Returns a :class:`~repro.distributed.coordinator.DistRunResult`;
    raises :class:`~repro.errors.DistributedError` when a shard exhausts
    its retries.
    """
    return DistributedCoordinator(
        spec_path,
        shards=workers,
        policy=policy,
        out=out,
        checkpoint=checkpoint,
        resume=resume,
        **coordinator_options,
    ).run()
