"""Command-line interface: run OMEGA experiments without writing code.

Subcommands
-----------
``run``        cost one dataflow on one dataset
``sweep``      all Table V configurations on one or all datasets (Fig. 11)
``search``     mapping optimizer (paper §VI)
``campaign``   spec-driven multi-dataset / multi-hardware exploration
``serve``      dataflow selection service over campaign stores (JSON/HTTP)
``store``      maintain result stores (compaction, merge)
``faults``     deterministic fault plans + crash-consistency harness
``golden``     regenerate or drift-check the golden regression records
``enumerate``  design-space counts (Table II's 6,656)
``datasets``   list the Table IV workloads and their synthesized stats
``describe``   narrate a dataflow's behaviour (Tables I-III, in prose)
``study``      parametric crossover studies (density / skew / phase order)

``sweep``, ``search``, ``campaign`` and ``golden`` route through the
evaluation service in-process, and ``--out results.jsonl`` streams every
evaluated point into a resumable, deduplicated store that doubles as a
warm cache on the next invocation.  ``sweep`` and ``search``
are one-shot campaign specs under the hood; ``campaign run --spec FILE``
drives the full declarative pipeline with checkpointed resume.

``campaign dist-run --workers N`` shards a campaign over N worker
*processes* (``shard-plan`` partitions the unit grid, ``shard-run`` is
one worker's entry point) under a fault-tolerant coordinator, then
merges the shard stores and checkpoints back into artifacts — and a
report digest — byte-identical to a sequential run; ``store merge``
exposes the fold-back on its own.

Examples::

    python -m repro run --dataset citeseer --dataflow "PP_AC(VtFsNt, VsGsFt)"
    python -m repro sweep --dataset collab --normalize
    python -m repro sweep --out runs/table5.jsonl
    python -m repro search --dataset cora --objective edp --budget 200
    python -m repro campaign run --spec examples/campaign_table5.json
    python -m repro campaign status --spec examples/campaign_table5.json
    python -m repro campaign shard-plan --spec spec.json --shards 4
    python -m repro campaign dist-run --spec spec.json --workers 2
    python -m repro store merge runs/all.jsonl runs/all.shard*.jsonl
    python -m repro serve --spec examples/serve_citeseer.json
    python -m repro serve --store runs/table5-mini.jsonl
    python -m repro store compact runs/table5-mini.jsonl
    python -m repro golden --check
    python -m repro enumerate
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import api
from .arch.config import AcceleratorConfig
from .analysis.report import format_table, gb_breakdown_row
from .analysis.store import ResultStore
from .campaign import (
    CampaignCheckpoint,
    CampaignSpec,
    campaign_units,
    run_campaign,
)
from .core.configs import paper_config_names, paper_dataflow
from .core.enumeration import count_design_space
from .core.evaluator import DataflowEvaluator
from .core.omega import run_gnn_dataflow
from .core.taxonomy import SPVariant, parse_dataflow
from .core.workload import workload_from_dataset
from .graphs.datasets import dataset_names, load_dataset
from .graphs.stats import graph_stats

__all__ = ["main", "build_parser"]


def _hw_from_args(args: argparse.Namespace) -> AcceleratorConfig:
    return AcceleratorConfig(
        num_pes=args.pes,
        dist_bw=args.bandwidth,
        red_bw=args.bandwidth,
        gb_bytes=args.gb_kib * 1024 if args.gb_kib else None,
    )


def _add_hw_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pes", type=int, default=512, help="PE count (default 512)")
    p.add_argument(
        "--bandwidth",
        type=int,
        default=None,
        help="GB distribution/reduction width in elements/cycle (default: sufficient)",
    )
    p.add_argument(
        "--gb-kib",
        type=int,
        default=None,
        help="finite global-buffer capacity in KiB (default: sufficient)",
    )
    p.add_argument("--seed", type=int, default=0, help="dataset synthesis seed")


def _add_service_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=None,
        metavar="JSONL",
        help="stream evaluated records into this resumable jsonl store",
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate --out instead of resuming (skipping) persisted records",
    )


def _make_store(args: argparse.Namespace) -> ResultStore | None:
    if not args.out:
        return None
    return ResultStore(args.out, resume=not args.no_resume)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMEGA: multiphase GNN dataflow cost model (IPDPS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="cost one dataflow on one dataset")
    p_run.add_argument("--dataset", required=True, choices=dataset_names())
    p_run.add_argument(
        "--dataflow",
        required=True,
        help="taxonomy notation, e.g. 'PP_AC(VtFsNt, VsGsFt)', or a Table V name like SP2",
    )
    p_run.add_argument("--sp-optimized", action="store_true")
    p_run.add_argument("--pe-split", type=float, default=0.5)
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    _add_hw_args(p_run)

    p_sweep = sub.add_parser("sweep", help="Table V sweep (Fig. 11 row)")
    p_sweep.add_argument("--dataset", choices=dataset_names(), default=None,
                         help="default: all datasets")
    p_sweep.add_argument("--normalize", action="store_true",
                         help="normalize runtimes to Seq1")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument(
        "--partition-budget", type=int, default=None, metavar="BYTES",
        help="block-partitioned evaluation: cut each graph into "
             "nnz-balanced row blocks sized to fit this many bytes",
    )
    _add_hw_args(p_sweep)
    _add_service_args(p_sweep)

    p_search = sub.add_parser("search", help="mapping optimizer (paper §VI)")
    p_search.add_argument("--dataset", required=True, choices=dataset_names())
    p_search.add_argument("--objective", choices=("cycles", "energy", "edp"),
                          default="cycles")
    p_search.add_argument(
        "--budget", type=int, default=None,
        help="cap on successful evaluations (default: 200 for "
             "exhaustive/random; the pareto strategy's own 25%%-of-space "
             "bound otherwise)",
    )
    p_search.add_argument(
        "--strategy", choices=("exhaustive", "pareto", "random"),
        default="exhaustive",
        help="candidate source: hint-portfolio sweep (default), factored "
             "per-phase Pareto search over the full design space, or "
             "uniform random draws",
    )
    p_search.add_argument("--json", action="store_true")
    p_search.add_argument(
        "--partition-budget", type=int, default=None, metavar="BYTES",
        help="block-partitioned evaluation: cut the graph into "
             "nnz-balanced row blocks sized to fit this many bytes",
    )
    _add_hw_args(p_search)
    _add_service_args(p_search)

    p_campaign = sub.add_parser(
        "campaign", help="spec-driven multi-dataset / multi-hardware DSE"
    )
    csub = p_campaign.add_subparsers(dest="campaign_command", required=True)
    for name, help_text in (
        ("run", "run (or resume) every unit of a campaign spec"),
        ("status", "show checkpoint/store progress without evaluating"),
        ("report", "re-render a completed campaign from its checkpoint"),
    ):
        p_c = csub.add_parser(name, help=help_text)
        p_c.add_argument(
            "--spec", required=True, metavar="FILE",
            help="campaign spec file (.json or .toml)",
        )
        p_c.add_argument(
            "--out", default=None, metavar="JSONL",
            help="record store (default: spec's 'store', else runs/<name>.jsonl)",
        )
        p_c.add_argument(
            "--checkpoint", default=None, metavar="JSONL",
            help="unit checkpoint (default: spec's 'checkpoint', "
            "else runs/<name>.checkpoint.jsonl)",
        )
        p_c.add_argument("--json", action="store_true")
        if name == "run":
            p_c.add_argument(
                "--fault-plan", default=None, metavar="JSON",
                help="activate a deterministic fault-injection plan for "
                "this run (repro faults plan)",
            )
            p_c.add_argument(
                "--no-resume",
                action="store_true",
                help="discard the existing checkpoint and store; restart",
            )

    from .distributed.shardplan import SHARD_POLICIES

    p_plan = csub.add_parser(
        "shard-plan",
        help="partition a campaign's unit grid into N fingerprinted shards",
    )
    p_plan.add_argument(
        "--spec", required=True, metavar="FILE",
        help="campaign spec file (.json or .toml)",
    )
    p_plan.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="number of shard assignments to produce",
    )
    p_plan.add_argument(
        "--policy", choices=SHARD_POLICIES, default="round-robin",
        help="round-robin over the grid, or cost-weighted LPT (default: "
        "round-robin)",
    )
    p_plan.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the plan file here (default: print only)",
    )
    p_plan.add_argument("--json", action="store_true")

    p_shard = csub.add_parser(
        "shard-run",
        help="run one shard's assignment into its private store "
        "(the dist-run worker entry point; also usable by hand)",
    )
    p_shard.add_argument(
        "--spec", required=True, metavar="FILE",
        help="the FULL parent campaign spec (never a sub-spec)",
    )
    p_shard.add_argument(
        "--plan", default=None, metavar="JSON",
        help="shard plan file (default: derive from --shards/--policy)",
    )
    p_shard.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="derive the plan on the fly instead of loading --plan",
    )
    p_shard.add_argument(
        "--policy", choices=SHARD_POLICIES, default="round-robin",
    )
    p_shard.add_argument(
        "--shard-index", type=int, required=True, metavar="I",
        help="which shard of the plan this worker owns",
    )
    p_shard.add_argument(
        "--base-store", default=None, metavar="JSONL",
        help="merged-store path the shard artifact names derive from "
        "(default: spec's 'store', else runs/<name>.jsonl)",
    )
    p_shard.add_argument(
        "--no-resume", action="store_true",
        help="discard this shard's checkpoint and store; restart",
    )
    p_shard.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SEC",
        help="progress-sidecar heartbeat period (default 1.0)",
    )
    p_shard.add_argument("--attempt", type=int, default=0, help=argparse.SUPPRESS)
    p_shard.add_argument(
        "--fail-after-units", type=int, default=None, metavar="K",
        help="failure injection: raise after K completed units",
    )
    p_shard.add_argument(
        "--pause-after-units", type=int, default=None, metavar="K",
        help="failure injection: after K units, heartbeat forever without "
        "progressing (a wedged worker the coordinator must kill)",
    )
    p_shard.add_argument("--json", action="store_true")

    p_dist = csub.add_parser(
        "dist-run",
        help="shard a campaign over worker processes under a "
        "fault-tolerant coordinator, then merge byte-identical artifacts",
    )
    p_dist.add_argument(
        "--spec", required=True, metavar="FILE",
        help="campaign spec file (.json or .toml)",
    )
    p_dist.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="shard worker processes (default 2)",
    )
    p_dist.add_argument(
        "--policy", choices=SHARD_POLICIES, default="round-robin",
    )
    p_dist.add_argument(
        "--out", default=None, metavar="JSONL",
        help="merged store (default: spec's 'store', else runs/<name>.jsonl)",
    )
    p_dist.add_argument(
        "--checkpoint", default=None, metavar="JSONL",
        help="merged checkpoint (default: spec's 'checkpoint', else "
        "derived from the merged store path)",
    )
    p_dist.add_argument(
        "--no-resume", action="store_true",
        help="discard shard and merged artifacts; restart from scratch",
    )
    p_dist.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="SEC",
        help="worker heartbeat period (default 0.25)",
    )
    p_dist.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SEC",
        help="declare a worker dead after this much heartbeat silence",
    )
    p_dist.add_argument(
        "--max-retries", type=int, default=2, metavar="R",
        help="relaunches per shard before giving up (default 2)",
    )
    p_dist.add_argument(
        "--max-total-retries", type=int, default=None, metavar="R",
        help="fleet-wide relaunch ceiling across all shards "
        "(default: max-retries * shards)",
    )
    p_dist.add_argument(
        "--backoff", type=float, default=0.5, metavar="SEC",
        help="relaunch backoff base (default 0.5)",
    )
    p_dist.add_argument(
        "--retry-jitter", type=float, default=0.25, metavar="FRAC",
        help="bounded seeded jitter on relaunch backoff (default 0.25)",
    )
    p_dist.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="activate a deterministic fault-injection plan for the "
        "coordinator and every shard worker (repro faults plan)",
    )
    p_dist.add_argument(
        "--kill-shard", type=int, default=None, metavar="I",
        help="failure injection: wedge shard I's first attempt and "
        "SIGKILL it once --kill-after-units units completed",
    )
    p_dist.add_argument(
        "--kill-after-units", type=int, default=1, metavar="K",
        help="units shard --kill-shard completes before the injected kill",
    )
    p_dist.add_argument("--json", action="store_true")

    p_serve = sub.add_parser(
        "serve",
        help="dataflow selection service over campaign stores (JSON/HTTP)",
    )
    p_serve.add_argument(
        "--spec", default=None, metavar="FILE",
        help="serve spec file (.json) — stores, objective, limits "
        "(optional when --store is given)",
    )
    p_serve.add_argument(
        "--store", action="append", default=None, metavar="JSONL",
        help="attach a read-only store to the index (repeatable; e.g. a "
        "dist-run's merged store).  Without --spec, an ad-hoc service "
        "is built over exactly these stores.",
    )
    p_serve.add_argument(
        "--host", default=None, help="override the spec's bind host"
    )
    p_serve.add_argument(
        "--port", type=int, default=None,
        help="override the spec's port (0 = pick a free port)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="activate a deterministic fault-injection plan for the "
        "service (serving.* sites: timeouts, stale snapshots, shedding)",
    )

    p_store = sub.add_parser(
        "store", help="maintain result stores (compaction, merge)"
    )
    stsub = p_store.add_subparsers(dest="store_command", required=True)
    p_compact = stsub.add_parser(
        "compact",
        help="rewrite a store dropping duplicate-fingerprint lines and "
        "quarantined corrupt lines; dedup the error sidecar",
    )
    p_compact.add_argument("path", metavar="JSONL", help="store to compact")
    p_compact.add_argument("--json", action="store_true")
    p_merge = stsub.add_parser(
        "merge",
        help="merge K stores (+ error sidecars) into one deduplicated "
        "store (idempotent)",
    )
    p_merge.add_argument("dest", metavar="DEST_JSONL", help="merged store")
    p_merge.add_argument(
        "sources", nargs="+", metavar="SRC_JSONL",
        help="source stores (read-only; typically shard stores)",
    )
    p_merge.add_argument(
        "--no-resume", action="store_true",
        help="truncate DEST first instead of merging into its records",
    )
    p_merge.add_argument("--json", action="store_true")

    from .faults.plan import FAULT_SCENARIOS

    p_faults = sub.add_parser(
        "faults",
        help="deterministic fault injection: plans + crash-consistency "
        "harness",
    )
    fsub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_fplan = fsub.add_parser(
        "plan",
        help="write a canned scenario plan or a seeded randomized plan",
    )
    p_fplan.add_argument(
        "--scenario", choices=FAULT_SCENARIOS, default=None,
        help="one of the canned CI chaos scenarios",
    )
    p_fplan.add_argument(
        "--random", action="store_true",
        help="draw a randomized recoverable campaign-tier plan instead",
    )
    p_fplan.add_argument(
        "--seed", type=int, default=0,
        help="plan seed (parameterizes scenario and random plans alike)",
    )
    p_fplan.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the fingerprinted plan file here (default: print only)",
    )
    p_fplan.add_argument("--json", action="store_true")
    p_fharness = fsub.add_parser(
        "harness",
        help="run the crash-consistency harness: campaign + serving "
        "under each plan, assert byte-identical recovery, zero duplicate "
        "evaluations, and graceful serving degradation",
    )
    p_fharness.add_argument(
        "--spec", required=True, metavar="FILE",
        help="campaign spec file (.json or .toml)",
    )
    p_fharness.add_argument(
        "--plan", action="append", default=[], metavar="JSON",
        help="fault plan file to run (repeatable)",
    )
    p_fharness.add_argument(
        "--scenario", action="append", default=[], choices=FAULT_SCENARIOS,
        help="add a canned scenario plan (repeatable)",
    )
    p_fharness.add_argument(
        "--random-plans", type=int, default=0, metavar="N",
        help="add N randomized plans (seeds --seed .. --seed+N-1)",
    )
    p_fharness.add_argument("--seed", type=int, default=0)
    p_fharness.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard worker processes for the faulted runs (default 2)",
    )
    p_fharness.add_argument(
        "--heartbeat-interval", type=float, default=0.1, metavar="SEC",
    )
    p_fharness.add_argument(
        "--heartbeat-timeout", type=float, default=5.0, metavar="SEC",
    )
    p_fharness.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="work dir for reference + per-plan artifacts "
        "(default: runs/chaos-<spec name>)",
    )
    p_fharness.add_argument(
        "--report", default=None, metavar="JSON",
        help="also write the JSON harness report here",
    )
    p_fharness.add_argument("--json", action="store_true")

    p_golden = sub.add_parser(
        "golden",
        help="regenerate or drift-check tests/golden regression records",
    )
    p_golden.add_argument(
        "--out",
        default="tests/golden/table5_mutag_citeseer.jsonl",
        help="golden jsonl path (default: the tier-1 test's archive)",
    )
    p_golden.add_argument(
        "--check",
        action="store_true",
        help="compare freshly derived records against --out; exit 1 on drift",
    )
    p_golden.add_argument(
        "--datasets", nargs="+", default=["mutag", "citeseer"],
        choices=dataset_names(), metavar="DS",
    )

    p_enum = sub.add_parser("enumerate", help="design-space counts (Table II)")
    p_enum.add_argument("--json", action="store_true")

    p_desc = sub.add_parser("describe", help="explain a dataflow in prose")
    p_desc.add_argument("dataflow", help="taxonomy notation or Table V name")
    p_desc.add_argument("--sp-optimized", action="store_true")
    p_desc.add_argument("--pe-split", type=float, default=0.5)

    p_ds = sub.add_parser("datasets", help="list Table IV workloads")
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--json", action="store_true")

    p_study = sub.add_parser("study", help="parametric crossover studies")
    p_study.add_argument(
        "kind", choices=("density", "skew", "order"),
        help="density: temporal vs spatial N; skew: low vs high T_V; order: AC vs CA",
    )
    p_study.add_argument("--json", action="store_true")

    return parser


def _activate_fault_plan(args: argparse.Namespace) -> None:
    """Arm ``--fault-plan`` (if given) for this process and its children."""
    path = getattr(args, "fault_plan", None)
    if path:
        from .faults.injector import activate

        activate(path)


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults.plan import FaultPlan, scenario_plan, random_plan

    if args.faults_command == "plan":
        if args.random == (args.scenario is not None):
            print("faults plan needs exactly one of --scenario / --random",
                  file=sys.stderr)
            return 2
        plan = (
            random_plan(args.seed) if args.random
            else scenario_plan(args.scenario, seed=args.seed)
        )
        if args.out:
            plan.save(args.out)
        if args.json or not args.out:
            print(plan.to_json())
        else:
            sites = ", ".join(
                f"{site}:{trig.kind}" for site, trig in plan.sites
            )
            print(f"fault plan {plan.fingerprint()} ({sites}) -> {args.out}")
        return 0

    # harness
    from pathlib import Path

    from .faults.harness import run_harness

    plans = [FaultPlan.load(p) for p in args.plan]
    plans += [scenario_plan(name, seed=args.seed) for name in args.scenario]
    plans += [random_plan(args.seed + i) for i in range(args.random_plans)]
    if not plans:
        print("faults harness needs --plan, --scenario, or --random-plans",
              file=sys.stderr)
        return 2
    spec = _load_spec(args)
    out_dir = Path(args.out_dir) if args.out_dir else Path("runs") / (
        f"chaos-{spec.name}"
    )
    report = run_harness(
        args.spec,
        plans,
        out_dir=out_dir,
        shards=args.shards,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    if args.report:
        report.save(args.report)
    print(json.dumps(report.to_dict(), indent=2) if args.json
          else report.render())
    return 0 if report.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    wl = workload_from_dataset(load_dataset(args.dataset, seed=args.seed))
    hw = _hw_from_args(args)
    if args.dataflow in paper_config_names():
        df, hint = paper_dataflow(args.dataflow, pe_split=args.pe_split)
    else:
        df = parse_dataflow(
            args.dataflow,
            sp_variant=SPVariant.OPTIMIZED if args.sp_optimized else None,
            pe_split=args.pe_split,
        )
        hint = None
    res = run_gnn_dataflow(wl, df, hw, hint=hint)
    payload = {
        **res.summary(),
        "agg_cycles": res.agg.cycles,
        "cmb_cycles": res.cmb.cycles,
        "gb_breakdown": gb_breakdown_row(res),
        "energy_breakdown": res.energy.as_dict(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"dataflow:   {res.dataflow}")
        print(f"dataset:    {args.dataset} (V={wl.num_vertices}, E={wl.num_edges}, "
              f"F={wl.in_features}, G={wl.out_features})")
        print(f"cycles:     {res.total_cycles:,} "
              f"(agg {res.agg.cycles:,} / cmb {res.cmb.cycles:,})")
        print(f"energy:     {res.energy_pj / 1e6:.3f} uJ")
        print(f"buffering:  {res.intermediate_buffer_elements:,} elements"
              + (f" (granularity: {res.granularity.value}, Pel={res.pel:,})"
                 if res.granularity else ""))
        rows = [[k, int(v)] for k, v in gb_breakdown_row(res).items()]
        print(format_table(["operand", "GB accesses"], rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # One-shot campaign under the hood; spec-building lives in the api
    # façade so library callers and this subcommand share one code path.
    store = _make_store(args)
    report = api.sweep(
        args.dataset or None,
        num_pes=args.pes,
        bandwidth=args.bandwidth,
        gb_kib=args.gb_kib,
        seed=args.seed,
        store=store,
        partition_budget=args.partition_budget,
    )
    table: list[list[object]] = []
    payload: dict = {}
    for unit in report.units:
        row = {r["config"]: r["cycles"] for r in unit.rows}
        if args.normalize:
            base = row["Seq1"]
            row = {k: v / base for k, v in row.items()}
        payload[unit.dataset] = row
        table.append([unit.dataset] + [row[c] for c in paper_config_names()])
    if store is not None:
        store.close()
        if not args.json:
            print(f"[{len(store)} records in {store.path}]", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        fmt = "{:.2f}" if args.normalize else "{:.0f}"
        print(
            format_table(
                ["dataset"] + paper_config_names(),
                table,
                title="Table V sweep"
                + (" (normalized to Seq1)" if args.normalize else " (cycles)"),
                float_fmt=fmt,
            )
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    # One-shot campaign via the api façade: the Table V baseline and the
    # exhaustive search share one evaluator, so both draw from the same
    # memo and stream to the same store (which warm-starts a repeat).
    store = _make_store(args)
    budget = args.budget
    if budget is None and args.strategy != "pareto":
        budget = 200  # the historical exhaustive/random default
    report = api.search(
        args.dataset,
        objective=args.objective,
        budget=budget,
        strategy=args.strategy,
        num_pes=args.pes,
        bandwidth=args.bandwidth,
        gb_kib=args.gb_kib,
        seed=args.seed,
        store=store,
        partition_budget=args.partition_budget,
    )
    if store is not None:
        store.close()
    row = report.units[0].rows[0]
    payload = {
        "objective": args.objective,
        "strategy": args.strategy,
        "paper_best": row["paper_best"],
        "search_best": row["search_best"],
        "search_score": row["search_score"],
        "evaluated": row["evaluated"],
        "gain": row["gain"],
        "top5": row["top5"],
    }
    if "pareto" in row:
        payload["pareto"] = row["pareto"]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"objective: {args.objective}")
        print(
            f"best Table V config: {row['paper_best'][0]} "
            f"({row['paper_best'][1]:.4g})"
        )
        print(f"best found ({row['evaluated']} evaluated): "
              f"{row['search_best']} ({row['search_score']:.4g})")
        print(f"gain over Table V: {row['gain']:.2f}x")
        if "pareto" in row:
            p = row["pareto"]
            print(
                f"pareto: {p['candidates']} compositions from "
                f"{p['probes']} phase probes "
                f"({p['evaluated_fraction']:.1%} of the "
                f"{p['design_space']}-point space)"
            )
        for label, score in row["top5"]:
            print(f"  {score:.4g}  {label}")
    return 0


def _campaign_paths(
    spec: CampaignSpec, args: argparse.Namespace
) -> tuple[str, str]:
    store_path = args.out or spec.store or f"runs/{spec.name}.jsonl"
    ckpt_path = (
        args.checkpoint or spec.checkpoint or f"runs/{spec.name}.checkpoint.jsonl"
    )
    return store_path, ckpt_path


def _load_spec(args: argparse.Namespace) -> CampaignSpec:
    from .campaign import CampaignSpecError

    try:
        return CampaignSpec.load(args.spec)
    except FileNotFoundError:
        raise SystemExit(f"spec file not found: {args.spec}")
    except CampaignSpecError as exc:
        raise SystemExit(f"invalid campaign spec {args.spec}: {exc}")


def _cmd_shard_plan(spec: CampaignSpec, args: argparse.Namespace) -> int:
    from .distributed import plan_shards
    from .errors import CampaignError

    try:
        plan = plan_shards(spec, args.shards, args.policy)
    except CampaignError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.out:
        plan.save(args.out)
    if args.json:
        print(plan.to_json())
    else:
        print(
            f"plan {plan.fingerprint()} for campaign {spec.name!r} "
            f"({plan.policy}, {plan.num_shards} shards):"
        )
        for i, keys in enumerate(plan.assignments):
            weight = (
                f" weight {plan.weights[i]:.3g}" if plan.weights[i] else ""
            )
            listed = ", ".join(keys) if keys else "(empty)"
            print(f"  shard {i}: {len(keys)} unit(s){weight}: {listed}")
        if args.out:
            print(f"  written to {args.out}")
    return 0


def _cmd_shard_run(spec: CampaignSpec, args: argparse.Namespace) -> int:
    from .distributed import ShardPlan, plan_shards, run_shard
    from .errors import CampaignError

    try:
        if args.plan:
            plan = ShardPlan.load(args.plan)
        elif args.shards:
            plan = plan_shards(spec, args.shards, args.policy)
        else:
            print("shard-run needs --plan FILE or --shards N", file=sys.stderr)
            return 2
        report, paths = run_shard(
            spec,
            plan,
            args.shard_index,
            resume=not args.no_resume,
            base_store=args.base_store,
            attempt=args.attempt,
            heartbeat_interval=args.heartbeat_interval,
            fail_after_units=args.fail_after_units,
            pause_after_units=args.pause_after_units,
        )
    except CampaignError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    **report.to_dict(),
                    "shard_index": args.shard_index,
                    "shard_store": str(paths.store),
                    "shard_checkpoint": str(paths.checkpoint),
                    "progress": str(paths.progress),
                },
                indent=2,
            )
        )
    else:
        print(report.render())
        print(
            f"shard {args.shard_index}: store {paths.store}, "
            f"progress {paths.progress}"
        )
    return 0


def _cmd_dist_run(args: argparse.Namespace) -> int:
    from .distributed import DistributedCoordinator
    from .errors import CampaignError

    _activate_fault_plan(args)
    try:
        coordinator = DistributedCoordinator(
            args.spec,
            shards=args.workers,
            policy=args.policy,
            out=args.out,
            checkpoint=args.checkpoint,
            resume=not args.no_resume,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            max_retries=args.max_retries,
            max_total_retries=args.max_total_retries,
            backoff=args.backoff,
            retry_jitter=args.retry_jitter,
            kill_shard=args.kill_shard,
            kill_after_units=args.kill_after_units,
        )
        result = coordinator.run()
    except FileNotFoundError:
        raise SystemExit(f"spec file not found: {args.spec}")
    except CampaignError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.report.render())
        recovered = sum(1 for a in result.attempts if a.outcome != "done")
        print(
            f"distributed: {coordinator.shards} shard(s), "
            f"{len(result.attempts)} attempt(s) "
            f"({recovered} recovered, {coordinator.retries_total} "
            f"retry/retries of max {coordinator.max_total_retries}), "
            f"digest {result.report.digest()}"
        )
        print(
            f"merge: +{result.merge['records_added']} records "
            f"({result.merge['records_skipped']} duplicate(s) skipped) "
            f"-> {result.merge['dest_records']} in {result.store_path}"
        )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignReport,
        CampaignResumeError,
        UnitResult,
        unit_key,
    )

    if args.campaign_command == "dist-run":
        # The coordinator re-loads the spec itself (workers need the file).
        return _cmd_dist_run(args)
    spec = _load_spec(args)
    if args.campaign_command == "shard-plan":
        return _cmd_shard_plan(spec, args)
    if args.campaign_command == "shard-run":
        return _cmd_shard_run(spec, args)
    store_path, ckpt_path = _campaign_paths(spec, args)

    if args.campaign_command == "run":
        _activate_fault_plan(args)
        store = ResultStore(store_path, resume=not args.no_resume)
        try:
            checkpoint = CampaignCheckpoint(
                ckpt_path, spec.fingerprint(), resume=not args.no_resume
            )
        except CampaignResumeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        try:
            report = run_campaign(spec, store=store, checkpoint=checkpoint)
        finally:
            checkpoint.close()
            store.close()
        print(json.dumps(report.to_dict(), indent=2) if args.json
              else report.render())
        return 0

    from pathlib import Path

    units_total = len(list(campaign_units(spec)))
    ckpt_file = Path(ckpt_path)
    header: dict = {}
    done: dict = {}
    if ckpt_file.exists():
        try:
            header, done = CampaignCheckpoint.load(ckpt_file)
        except CampaignResumeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    matches = header.get("spec_fingerprint") == spec.fingerprint()

    if args.campaign_command == "status":
        # Read-only: counts come from the checkpoint plus one read-only
        # scan of the store — never from opening/healing the store, which
        # a concurrently running campaign may own.  Cache-efficacy
        # entries come from the checkpoint's stats sidecar (written at
        # each unit mark; per-unit deltas, execution accounting).
        from .campaign.report import hit_rate

        peek = ResultStore.peek(store_path)
        unit_counts = peek["unit_counts"]
        sidecar = CampaignCheckpoint.load_counters(
            CampaignCheckpoint.stats_path_for(ckpt_path)
        )
        unit_counters = (
            sidecar.get("units", {})
            if sidecar.get("spec_fingerprint") == spec.fingerprint()
            else {}
        )
        unit_rows = []
        in_flight = queued = 0
        for ds, pt in campaign_units(spec):
            key = unit_key(ds, pt)
            if pt.label is None:
                # Single-point campaigns omit the hw tag from records, so
                # unlabeled units resolve at dataset granularity (shared
                # across unlabeled points of the same dataset, if any).
                records = unit_counts.get(ds, 0)
            else:
                records = unit_counts.get(key, 0)
            if matches and key in done:
                state = "done"
            elif records:
                state = "in-flight"
                in_flight += 1
            else:
                state = "queued"
                queued += 1
            # Only units the checkpoint vouches for get cache columns: a
            # queued/in-flight unit has no journaled delta of its own.
            snap = unit_counters.get(key) if (matches and key in done) else None
            phase_rate = (
                hit_rate(snap.get("phase_hits", 0), snap.get("phase_misses", 0))
                if snap
                else None
            )
            ts_rate = (
                hit_rate(
                    snap.get("tilestats_hits", 0),
                    snap.get("tilestats_misses", 0),
                )
                if snap
                else None
            )
            unit_rows.append(
                {
                    "unit": key,
                    "state": state,
                    "records": records,
                    "cache": snap,
                    "phase_hit_rate": phase_rate,
                    "tilestats_hit_rate": ts_rate,
                }
            )
        # Distributed supervision accounting, when a coordinator has run
        # (or is running) against this store: advisory sidecar, read-only.
        from .distributed.coordinator import load_coordinator_state

        coord = load_coordinator_state(store_path)
        if coord.get("spec_fingerprint") != spec.fingerprint():
            coord = {}
        payload = {
            "name": spec.name,
            "spec_fingerprint": spec.fingerprint(),
            "units_total": units_total,
            "units_done": len(done) if matches else 0,
            "units_in_flight": in_flight,
            "units_queued": queued,
            "units": unit_rows,
            "checkpoint": ckpt_path,
            "checkpoint_matches_spec": matches if header else None,
            "store": store_path,
            "store_records": peek["records"],
            "coordinator": coord or None,
        }
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            state = (
                "no checkpoint yet" if not header
                else "checkpoint from a DIFFERENT spec" if not matches
                else f"{payload['units_done']}/{units_total} units complete"
            )
            print(f"campaign {spec.name!r}: {state} "
                  f"({in_flight} in flight, {queued} queued)")

            def pct(rate):
                return "-" if rate is None else f"{100 * rate:.0f}%"

            print(
                format_table(
                    ["unit", "state", "records", "phase-hit", "tilestats-hit"],
                    [
                        [
                            u["unit"],
                            u["state"],
                            u["records"],
                            pct(u["phase_hit_rate"]),
                            pct(u["tilestats_hit_rate"]),
                        ]
                        for u in unit_rows
                    ],
                )
            )
            print(f"  store: {peek['records']} records in {store_path}")
            print(f"  checkpoint: {ckpt_path}")
            if coord:
                by_shard = coord.get("retries_by_shard") or {}
                detail = (
                    " (" + ", ".join(
                        f"shard {s}: {n}" for s, n in sorted(by_shard.items())
                    ) + ")"
                    if by_shard
                    else ""
                )
                print(
                    f"  coordinator: {coord.get('state')}, "
                    f"{coord.get('attempts')} attempt(s), "
                    f"{coord.get('retries_total')} retry/retries of max "
                    f"{coord.get('max_total_retries')}{detail}"
                )
        return 0

    # report
    if not header:
        print(f"no checkpoint at {ckpt_path}; run the campaign first",
              file=sys.stderr)
        return 1
    if not matches:
        print(
            f"{ckpt_path}: checkpoint belongs to a different spec "
            f"({header.get('spec_fingerprint')!r} != {spec.fingerprint()!r})",
            file=sys.stderr,
        )
        return 1
    units = [
        UnitResult(ds, pt.key(), done[unit_key(ds, pt)]["rows"], resumed=True)
        for ds, pt in campaign_units(spec)
        if unit_key(ds, pt) in done
    ]
    # Cache-efficacy counters from the stats sidecar: entries are
    # per-unit deltas, so summing them reconstructs the campaign totals —
    # including across kill/resume boundaries, where each session's live
    # counters restarted at zero.
    sidecar = CampaignCheckpoint.load_counters(
        CampaignCheckpoint.stats_path_for(ckpt_path)
    )
    cache: dict = {}
    if sidecar.get("spec_fingerprint") == spec.fingerprint():
        for snap in sidecar.get("units", {}).values():
            for k, v in snap.items():
                cache[k] = cache.get(k, 0) + v
    report = CampaignReport(
        name=spec.name,
        spec_fingerprint=spec.fingerprint(),
        units=units,
        cache=cache,
        checkpoint_path=ckpt_path,
    )
    print(json.dumps(report.to_dict(), indent=2) if args.json
          else report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ServeSpec, ServeSpecError, serve

    _activate_fault_plan(args)
    if args.spec is None and not args.store:
        raise SystemExit("serve needs --spec FILE and/or --store JSONL")
    if args.spec is not None:
        try:
            spec = ServeSpec.load(args.spec)
        except FileNotFoundError:
            raise SystemExit(f"spec file not found: {args.spec}")
        except ServeSpecError as exc:
            raise SystemExit(f"invalid serve spec {args.spec}: {exc}")
        if args.store:
            spec.attach = list(spec.attach) + list(args.store)
    else:
        # Ad-hoc service straight over the given stores (read-only): the
        # one-liner for serving a dist-run's merged store.
        from pathlib import Path

        spec = ServeSpec(
            name=f"serve-{Path(args.store[0]).stem}",
            attach=list(args.store),
        )
    if args.host is not None:
        spec.host = args.host
    if args.port is not None:
        spec.port = args.port

    def ready(server) -> None:
        # One flushed, parseable line: script clients (CI smoke) block on
        # it to learn the bound port before firing queries.
        print(
            f"serving {spec.name!r} on http://{server.host}:{server.port} "
            f"({len(server.service.index)} index entries)",
            flush=True,
        )

    serve(spec, ready=ready)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.store_command == "merge":
        from .distributed import merge_stores

        acct = merge_stores(
            args.dest, args.sources, resume=not args.no_resume
        )
        if args.json:
            print(json.dumps(acct, indent=2))
        else:
            missing = (
                f"; {len(acct['missing_sources'])} missing source(s) skipped"
                if acct["missing_sources"]
                else ""
            )
            print(
                f"{args.dest}: +{acct['records_added']} records "
                f"({acct['records_skipped']} duplicate(s) skipped), "
                f"+{acct['errors_added']} errors from "
                f"{len(acct['sources'])} source(s){missing}; "
                f"{acct['dest_records']} records total"
            )
        return 0

    path = Path(args.path)
    if not path.exists():
        print(f"store not found: {path}", file=sys.stderr)
        return 1
    store = ResultStore(path)
    stats = store.compact()
    store.close()
    if args.json:
        print(json.dumps({"store": str(path), **stats}, indent=2))
    else:
        print(
            f"{path}: {stats['records_kept']} records kept, "
            f"{stats['lines_dropped']} duplicate line(s) dropped, "
            f"{stats['lines_quarantined']} quarantined line(s) dropped "
            f"({stats['bytes_before']} -> {stats['bytes_after']} bytes); "
            f"{stats['errors_kept']} error(s) kept, "
            f"{stats['errors_dropped']} dropped"
        )
    return 0


def _derive_golden_records(datasets: Sequence[str]) -> list[dict]:
    """Deterministically re-derive the golden record set.

    Mirrors ``tests/test_golden.py`` exactly: 512 PEs, every Table V
    configuration, seed-0 datasets, records tagged (dataset, config, seed).
    The fingerprint field is deliberately omitted so the archive's bytes
    depend only on the cost model, not the fingerprint algorithm.
    """
    from .analysis.export import run_result_to_record

    hw = AcceleratorConfig(num_pes=512)
    records: list[dict] = []
    for ds_name in datasets:
        wl = workload_from_dataset(load_dataset(ds_name))
        outcomes = DataflowEvaluator(wl, hw).evaluate(
            [paper_dataflow(cfg) for cfg in paper_config_names()]
        )
        for cfg, outcome in zip(paper_config_names(), outcomes):
            records.append(
                run_result_to_record(
                    outcome.result, dataset=ds_name, config=cfg, seed=0
                )
            )
    return records


def _cmd_golden(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.export import read_records, record_to_json, write_records
    from .analysis.regression import compare_records

    fresh = _derive_golden_records(args.datasets)
    path = Path(args.out)
    if args.check:
        if not path.exists():
            print(f"golden file missing: {path}", file=sys.stderr)
            return 1
        golden = read_records(path)
        report = compare_records(golden, fresh)
        identical = [record_to_json(r) for r in golden] == [
            record_to_json(r) for r in fresh
        ]
        if report.matched == len(golden) and report.passes(tolerance=0.0) and identical:
            print(f"golden records match ({report.matched} records, drift 0)")
            return 0
        print(
            f"golden drift detected: matched={report.matched}/{len(golden)} "
            f"missing={len(report.missing)} added={len(report.added)} "
            f"max_drift={report.max_drift():.3g} byte_identical={identical}",
            file=sys.stderr,
        )
        for delta in report.worst(5):
            print(
                f"  {delta.key} {delta.metric}: {delta.before} -> {delta.after}",
                file=sys.stderr,
            )
        return 1
    write_records(path, fresh)
    print(f"wrote {len(fresh)} golden records to {path}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    counts = count_design_space()
    if args.json:
        print(json.dumps(counts, indent=2))
    else:
        print(
            format_table(
                ["strategy", "choices"],
                [[k, v] for k, v in counts.items()],
                title="Design-space size (paper §III-C: 6,656)",
            )
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    payload = {}
    for name in dataset_names():
        ds = load_dataset(name, seed=args.seed)
        s = graph_stats(ds.graph)
        payload[name] = ds.summary()
        rows.append(
            [
                name,
                ds.category,
                s.num_vertices,
                s.num_edges,
                ds.num_features,
                ds.hidden,
                round(s.avg_degree, 2),
                s.max_degree,
            ]
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            format_table(
                ["dataset", "cat", "V", "nnz", "F", "G", "avg_deg", "max_deg"],
                rows,
                title="Table IV workloads (synthesized)",
            )
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .core.describe import describe_dataflow

    if args.dataflow in paper_config_names():
        df, _ = paper_dataflow(args.dataflow, pe_split=args.pe_split)
    else:
        df = parse_dataflow(
            args.dataflow,
            sp_variant=SPVariant.OPTIMIZED if args.sp_optimized else None,
            pe_split=args.pe_split,
        )
    print(describe_dataflow(df))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .analysis.studies import (
        density_crossover_study,
        order_crossover_study,
        skew_study,
    )

    runner = {
        "density": density_crossover_study,
        "skew": skew_study,
        "order": order_crossover_study,
    }[args.kind]
    xlabel = {"density": "avg_deg", "skew": "#hubs", "order": "F/G"}[args.kind]
    rows = runner()
    if args.json:
        print(json.dumps([{"x": r.x, **r.values} for r in rows], indent=2))
    else:
        keys = list(rows[0].values)
        print(
            format_table(
                [xlabel] + keys + ["winner"],
                [[r.x] + [r.values[k] for k in keys] + [r.winner()] for r in rows],
                title=f"{args.kind} crossover study (cycles)",
                float_fmt="{:.0f}",
            )
        )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "describe": _cmd_describe,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "faults": _cmd_faults,
    "golden": _cmd_golden,
    "enumerate": _cmd_enumerate,
    "datasets": _cmd_datasets,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
