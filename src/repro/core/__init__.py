"""OMEGA core: taxonomy, legality, enumeration, cost model, DSE.

Layering (low to high): taxonomy/legality/tiling describe mappings, the
engines cost one phase, :func:`run_gnn_dataflow` composes a layer, and
the evaluation service (:class:`DataflowEvaluator` over a task-keyed
:class:`~repro.core.pool.TaskKeyedPool`) batches, memoizes, and persists
candidate runs.  The service is deliberately session-oriented: evaluators
are thin per-``(workload, hardware)`` views over an
:class:`~repro.campaign.session.ExplorationSession` (see
:mod:`repro.campaign`), which owns the shared worker pool and the
store-backed warm cache; constructing an evaluator directly builds a
private single-context session for backward compatibility.  The mapping
optimizer and every sweep/campaign front-end sit on top of the service.
"""

from .configs import PAPER_CONFIGS, PaperConfig, paper_config_names, paper_dataflow
from .enumeration import (
    TABLE_II_ROWS,
    all_concrete_intra,
    count_design_space,
    design_space_stream,
    enumerate_design_space,
    enumerate_pairs,
)
from .evaluator import (
    CandidateStream,
    DataflowEvaluator,
    EvalOutcome,
    EvalStats,
    ExplicitTiles,
    StreamedCandidate,
    candidate_fingerprint,
    context_key,
)
from .pool import TaskKeyedPool
from .granularity import GranuleSpec, granule_series, make_granule_spec
from .interphase import RunResult, compose, compose_batch
from .legality import (
    LegalityError,
    infer_granularity,
    intermediate_axes,
    phase_granule,
    sp_optimized_ok,
    validate_dataflow,
)
from .omega import phase_specs, prepare_phases, run_gnn_dataflow
from .pipeline import (
    PipelineReport,
    bounded_pipeline,
    bounded_pipeline_batch,
)
from .taxonomy import (
    Annot,
    Dataflow,
    Dim,
    Granularity,
    InterPhase,
    IntraDataflow,
    Phase,
    PhaseOrder,
    SPVariant,
    parse_dataflow,
)
from .search import ParetoReport, pareto_search, select_pareto_candidates
from .tiling import TileHint, choose_tiles, concretize_intra
from .workload import GNNWorkload, workload_from_dataset

__all__ = [
    "PAPER_CONFIGS",
    "PaperConfig",
    "paper_config_names",
    "paper_dataflow",
    "TABLE_II_ROWS",
    "all_concrete_intra",
    "count_design_space",
    "design_space_stream",
    "enumerate_design_space",
    "enumerate_pairs",
    "CandidateStream",
    "DataflowEvaluator",
    "EvalOutcome",
    "EvalStats",
    "ExplicitTiles",
    "StreamedCandidate",
    "candidate_fingerprint",
    "context_key",
    "TaskKeyedPool",
    "GranuleSpec",
    "granule_series",
    "make_granule_spec",
    "RunResult",
    "compose",
    "compose_batch",
    "LegalityError",
    "infer_granularity",
    "intermediate_axes",
    "phase_granule",
    "sp_optimized_ok",
    "validate_dataflow",
    "ParetoReport",
    "pareto_search",
    "select_pareto_candidates",
    "phase_specs",
    "run_gnn_dataflow",
    "prepare_phases",
    "PipelineReport",
    "bounded_pipeline",
    "bounded_pipeline_batch",
    "Annot",
    "Dataflow",
    "Dim",
    "Granularity",
    "InterPhase",
    "IntraDataflow",
    "Phase",
    "PhaseOrder",
    "SPVariant",
    "parse_dataflow",
    "TileHint",
    "choose_tiles",
    "concretize_intra",
    "GNNWorkload",
    "workload_from_dataset",
]
