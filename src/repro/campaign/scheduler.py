"""Campaign unit execution: one ``(dataset, hardware)`` unit at a time.

:func:`~repro.campaign.runner.run_campaign` hands its unit grid to
:func:`run_units_sequential`, which runs the units strictly in grid
order through one shared session.  Parallelism lives above this layer:
``repro.distributed`` shards the unit grid over worker processes.
Within one process, units run one at a time:

- **each dataset is synthesised once per run**: the grid walks datasets
  outer, so a dataset is synthesised the first time one of its units
  actually runs and dropped when the walk moves on.  One dataset is alive
  at a time, a fully checkpointed dataset is never synthesised, and
  nothing is kept between runs;
- **checkpoint lines are journaled in grid order**, each as soon as its
  unit completes, so the checkpoint file is the same bytes on every run;
- **report rows are deterministic** because each unit's rows are a pure
  function of the spec and the cost model;
- **a failing unit stops the campaign**: units before it are
  checkpointed, units after it never start.  A killed campaign's
  evaluations are already in the result store, so the resumed run
  replays the interrupted unit from the warm cache.
"""

from __future__ import annotations

from typing import Any

from ..analysis.sweep import sweep_bandwidth, sweep_num_pes, sweep_pe_allocation
from ..core.configs import paper_config_names, paper_dataflow
from ..core.legality import LegalityError
from ..core.optimizer import MappingOptimizer, search_paper_configs
from ..core.workload import GNNWorkload, workload_from_dataset
from ..graphs.datasets import load_dataset
from .report import UnitResult
from .session import ExplorationSession
from .spec import CampaignSpec, HardwarePoint, unit_key

__all__ = [
    "checkpoint_payload",
    "run_unit",
    "run_units_sequential",
]


def checkpoint_payload(ds_name: str, pt: HardwarePoint, rows: list) -> dict:
    """The checkpoint journal entry for one completed unit."""
    return {"dataset": ds_name, "hw": pt.key(), "rows": rows}


def run_units_sequential(
    spec: CampaignSpec,
    session: ExplorationSession,
    checkpoint: Any | None = None,
    only_units: "frozenset[str] | None" = None,
) -> list[UnitResult]:
    """Execute (or resume) the spec's units strictly in grid order.

    Units the ``checkpoint`` already journals are reported from it
    (``resumed=True``) without running; every other unit runs, then is
    journaled before the next one starts, so a failing unit stops the
    campaign with no side effects past it.  ``only_units`` restricts
    execution to a subset of unit keys (a distributed shard's
    assignment), in grid order.
    """
    from .runner import campaign_units  # runner imports us; lazy back-ref

    units: list[UnitResult] = []
    wl_name, wl = None, None  # the one dataset alive, synthesised on demand
    for ds_name, pt in campaign_units(spec):
        key = unit_key(ds_name, pt)
        if only_units is not None and key not in only_units:
            continue
        if checkpoint is not None and key in checkpoint.done:
            units.append(
                UnitResult(
                    ds_name, pt.key(), checkpoint.done[key]["rows"],
                    resumed=True,
                )
            )
            continue
        if wl_name != ds_name:
            wl = None  # drop the previous dataset before the next one exists
            wl = workload_from_dataset(load_dataset(ds_name, seed=spec.seed))
            wl_name = ds_name
        rows = run_unit(session, spec, ds_name, pt, wl)
        if checkpoint is not None:
            checkpoint.mark(
                key,
                checkpoint_payload(ds_name, pt, rows),
                counters=session.cache_counters(),
            )
        units.append(UnitResult(ds_name, pt.key(), rows))
    return units


def run_unit(
    session: ExplorationSession,
    spec: CampaignSpec,
    ds_name: str,
    pt: HardwarePoint,
    wl: GNNWorkload,
) -> list[dict]:
    """Run one unit's candidate source on ``wl``, the workload of dataset
    ``ds_name`` at ``spec.seed``; returns JSON-safe row dicts.

    The caller synthesises ``wl``: :func:`run_units_sequential` builds
    each dataset once per run and shares it across that dataset's
    hardware points.  Rows depend only on ``(spec, unit)`` and the cost
    model, never on the shard count or what ran before.
    """
    hw = pt.config()
    extra: dict[str, Any] = {"dataset": ds_name, "seed": spec.seed}
    if pt.label:
        extra["hw"] = pt.label
    kind = spec.source.kind
    params = dict(spec.source.params)
    partition = spec.partition

    if kind == "table5":
        names = list(params.get("configs") or paper_config_names())
        ev = session.evaluator(wl, hw, record_extra=extra, partition=partition)
        stream = ev.stream(
            lambda: ((*paper_dataflow(c), {"config": c}) for c in names),
            label="table5",
        )
        outcomes = ev.evaluate(stream)
        for c, o in zip(names, outcomes):
            if not o.ok:  # Table V rows are all legal by construction
                raise LegalityError(f"{c} on {ds_name}: {o.error}")
        return [
            {"config": c, "cycles": int(o.cycles)}
            for c, o in zip(names, outcomes)
        ]

    if kind in ("exhaustive", "pareto", "random"):
        opt = MappingOptimizer(
            wl, hw, objective=spec.objective, session=session,
            record_extra=extra, partition=partition,
        )
        # The Table V baseline shares the unit's evaluator, so the
        # broader search draws from the same memo and store stream.
        paper = search_paper_configs(
            wl, hw, objective=spec.objective, evaluator=opt.evaluator
        )
        if kind == "exhaustive":
            full = opt.exhaustive(budget=spec.budget)
        elif kind == "pareto":
            max_evals = params.get("max_evals")
            full = opt.pareto(
                max_evals=int(max_evals) if max_evals else spec.budget
            )
        else:
            n = int(params.get("n") or spec.budget or 64)
            full = opt.random_search(n, seed=spec.seed)
        row = {
            "paper_best": list(paper.top(1)[0]),
            "search_best": str(full.best_dataflow),
            "search_score": full.best_score,
            "evaluated": full.evaluated,
            "gain": paper.best_score / full.best_score,
            "top5": [list(t) for t in full.top(5)],
        }
        if kind == "pareto" and opt.last_pareto_report is not None:
            rep = opt.last_pareto_report
            row["pareto"] = {
                "probes": rep.probes,
                "candidates": len(rep.candidates),
                "evaluated_delta": rep.evaluated_delta,
                "design_space": rep.design_space,
                "evaluated_fraction": rep.evaluated_fraction,
            }
        return [row]

    if kind == "pe_allocation":
        return sweep_pe_allocation(
            wl, hw, session=session, record_extra=extra,
            partition=partition, **params
        )
    if kind == "num_pes":
        return sweep_num_pes(
            wl, session=session, record_extra=extra,
            partition=partition, **params
        )
    if kind == "bandwidth":
        # The unit's hardware point supplies the PE count unless the
        # source param already pinned it (spec validation forbids both).
        params.setdefault("num_pes", pt.num_pes)
        return sweep_bandwidth(
            wl, session=session, record_extra=extra,
            partition=partition, **params
        )
    raise ValueError(f"unhandled source kind {kind!r}")  # pragma: no cover
