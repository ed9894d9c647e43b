"""repro — OMEGA: multiphase sparse/dense GNN dataflows on spatial accelerators.

A from-scratch reproduction of *"Understanding the Design-Space of
Sparse/Dense Multiphase GNN dataflows on Spatial Accelerators"* (Garg et
al., IPDPS 2022).  The library provides:

- the paper's dataflow **taxonomy** (`parse_dataflow`, `Dataflow`) and the
  full design-space **enumeration** (`count_design_space` reproduces the
  paper's 6,656 choices);
- tile-level **intra-phase engines** for SpMM (Aggregation) and GEMM
  (Combination) on a configurable spatial accelerator
  (`AcceleratorConfig`), validated against a cycle-accurate
  micro-simulator;
- the **inter-phase cost model** (Seq / SP-Generic / SP-Optimized / PP with
  element/row/column granularity) behind `run_gnn_dataflow`;
- synthetic **datasets** calibrated to the paper's Table IV
  (`load_dataset`), GNN layer abstractions, a mapping **optimizer**, and
  report helpers that regenerate every table and figure of the evaluation;
- declarative **campaigns** (`CampaignSpec` -> `ExplorationSession` ->
  `CampaignReport`, see `repro.campaign`): multi-dataset / multi-hardware
  exploration through one shared worker pool and store-backed warm cache,
  with checkpointed resume (`repro campaign run --spec FILE`);
- **distributed campaigns** (`repro.distributed`, ``repro campaign
  dist-run``): fingerprinted shard plans split one spec across
  supervised worker processes (heartbeat sidecars, crash relaunch with
  zero duplicate evaluations) and merge the shard stores/checkpoints
  back into artifacts byte-identical to a sequential run;
- a **dataflow selection service** (`DataflowService`, `repro serve`):
  per-(workload, hardware) Pareto fronts over persisted campaign records
  answer "which dataflow for this graph?" with zero cost-model runs,
  falling back to a budgeted live search on cold workloads
  (see `repro.serving`).

The blessed entry points live in :mod:`repro.api` and are re-exported
here: :func:`evaluate`, :func:`sweep`, :func:`search`,
:func:`run_campaign`, :func:`serve`, and
:meth:`DataflowService.query <repro.serving.service.DataflowService.query>`.
Every intentional failure is a :class:`~repro.errors.ReproError`
subclass, so ``except ReproError`` is the one catch-all an embedding
application needs.

Quickstart::

    import repro
    print(repro.evaluate("citeseer", "PP_AC(VtFsNt, VsGsFt)").summary())

    # equivalent, piece by piece:
    from repro import (AcceleratorConfig, load_dataset, parse_dataflow,
                       run_gnn_dataflow, workload_from_dataset)
    wl = workload_from_dataset(load_dataset("citeseer"))
    hw = AcceleratorConfig(num_pes=512)
    df = parse_dataflow("PP_AC(VtFsNt, VsGsFt)")   # the HyGCN dataflow
    print(run_gnn_dataflow(wl, df, hw).summary())
"""

from .api import (
    FaultPlan,
    HarnessReport,
    dist_run,
    evaluate,
    merge_stores,
    random_plan,
    run_campaign,
    run_harness,
    scenario_plan,
    search,
    serve,
    shard_plan,
    sweep,
)
from .arch import (
    AcceleratorConfig,
    DramModel,
    EnergyBreakdown,
    EnergyModel,
    GlobalBuffer,
    PingPongBuffer,
)
from .analysis import ResultStore
from .campaign import (
    CampaignReport,
    CampaignSpec,
    CandidateSource,
    ExplorationSession,
    HardwarePoint,
)
from .distributed import DistRunResult, ShardPlan
from .errors import (
    ApiUsageError,
    BudgetExhausted,
    CampaignError,
    DistributedError,
    QueueFullError,
    ReproError,
    ServiceError,
    WorkerCrashError,
)
from .serving import (
    DataflowServer,
    DataflowService,
    ParetoIndex,
    QueryResult,
    ServeSpec,
    SparsityFeatures,
    graph_features,
)
from .core import (
    PAPER_CONFIGS,
    Annot,
    DataflowEvaluator,
    Dataflow,
    Dim,
    EvalOutcome,
    EvalStats,
    GNNWorkload,
    Granularity,
    InterPhase,
    IntraDataflow,
    LegalityError,
    PaperConfig,
    Phase,
    PhaseOrder,
    RunResult,
    SPVariant,
    TileHint,
    candidate_fingerprint,
    choose_tiles,
    count_design_space,
    enumerate_design_space,
    infer_granularity,
    paper_config_names,
    paper_dataflow,
    parse_dataflow,
    run_gnn_dataflow,
    validate_dataflow,
    workload_from_dataset,
)
from .engine import (
    GemmSpec,
    GemmTiling,
    PhaseStats,
    SpmmSpec,
    SpmmTiling,
    TileStats,
    TileStatsRegistry,
    simulate_gemm,
    simulate_spmm,
)
from .graphs import (
    CSRGraph,
    Dataset,
    batch_graphs,
    dataset_names,
    graph_stats,
    load_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "evaluate",
    "sweep",
    "search",
    "run_campaign",
    "serve",
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
    "ReproError",
    "ApiUsageError",
    "CampaignError",
    "DistributedError",
    "WorkerCrashError",
    "ServiceError",
    "BudgetExhausted",
    "QueueFullError",
    "DataflowService",
    "DataflowServer",
    "QueryResult",
    "ParetoIndex",
    "ServeSpec",
    "SparsityFeatures",
    "graph_features",
    "AcceleratorConfig",
    "DramModel",
    "EnergyBreakdown",
    "EnergyModel",
    "GlobalBuffer",
    "PingPongBuffer",
    "PAPER_CONFIGS",
    "Annot",
    "Dataflow",
    "DataflowEvaluator",
    "Dim",
    "EvalOutcome",
    "EvalStats",
    "GNNWorkload",
    "ResultStore",
    "CampaignReport",
    "CampaignSpec",
    "CandidateSource",
    "ExplorationSession",
    "HardwarePoint",
    "run_campaign",
    "Granularity",
    "InterPhase",
    "IntraDataflow",
    "LegalityError",
    "PaperConfig",
    "Phase",
    "PhaseOrder",
    "RunResult",
    "SPVariant",
    "TileHint",
    "candidate_fingerprint",
    "choose_tiles",
    "count_design_space",
    "enumerate_design_space",
    "infer_granularity",
    "paper_config_names",
    "paper_dataflow",
    "parse_dataflow",
    "run_gnn_dataflow",
    "validate_dataflow",
    "workload_from_dataset",
    "GemmSpec",
    "GemmTiling",
    "PhaseStats",
    "SpmmSpec",
    "SpmmTiling",
    "simulate_gemm",
    "simulate_spmm",
    "TileStats",
    "TileStatsRegistry",
    "CSRGraph",
    "Dataset",
    "batch_graphs",
    "dataset_names",
    "graph_stats",
    "load_dataset",
    "__version__",
]
