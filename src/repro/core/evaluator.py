"""Batched design-space evaluation service (the DSE chokepoint).

Every exploration path in the library — the mapping optimizer, the Table V
sweep, the Figs. 14-16 case-study sweeps, and multi-dataset campaigns —
needs the same three things around :func:`repro.core.omega.run_gnn_dataflow`:
fan candidate mappings out over worker processes, avoid re-costing a
candidate that was already costed, and persist what was learned so a
campaign can be resumed.  This module centralizes all three.

- :func:`candidate_fingerprint` derives a stable content hash of one
  ``(workload, dataflow, hardware, tiling spec)`` evaluation, the key for
  the in-memory memo, the on-disk
  :class:`~repro.analysis.store.ResultStore`, and the store-backed warm
  cache.  Tiling specs are either a :class:`~repro.core.tiling.TileHint`
  or an :class:`ExplicitTiles` pair, so hill-climbed explicit tilings
  memoize exactly like hinted ones.
- :class:`DataflowEvaluator` is a thin per-``(workload, hardware)`` view
  over an :class:`~repro.campaign.session.ExplorationSession`: the session
  owns the task-keyed worker pool (shared across *all* contexts), the
  per-context memos, and the warm cache; the evaluator contributes the
  context signature and the record schema.  Constructing an evaluator
  directly (the pre-campaign API) still works — it simply owns a private
  single-context session.
- Every candidate is reported back as an :class:`EvalOutcome` — including
  illegal ones, whose :class:`~repro.core.legality.LegalityError` is
  captured rather than silently dropped, and warm-cache hits, which carry
  the persisted record instead of a live :class:`RunResult`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..arch.config import AcceleratorConfig
from ..engine.gemm import GemmTiling
from ..engine.phasecache import PhaseEngineCache
from ..engine.spmm import SpmmTiling
from ..engine.tilestats import TileStats
from .interphase import RunResult, _compose_batch
from .legality import LegalityError
from .omega import prepare_phases, run_gnn_dataflow
from .taxonomy import Dataflow, InterPhase
from .tiling import TileHint
from .workload import GNNWorkload

__all__ = [
    "candidate_fingerprint",
    "context_key",
    "ExplicitTiles",
    "FingerprintFactory",
    "StreamedCandidate",
    "CandidateStream",
    "EvalOutcome",
    "EvalStats",
    "DataflowEvaluator",
]


# ----------------------------------------------------------------------
# Tiling specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExplicitTiles:
    """Concrete per-phase tile sizes as an evaluable candidate spec.

    Where a :class:`~repro.core.tiling.TileHint` guides automatic tile
    selection, ``ExplicitTiles`` pins both phases' tile sizes exactly —
    the candidates a tile hill-climb explores.  Giving them a canonical
    fingerprint signature makes those candidates first-class citizens of
    the memo/store machinery.
    """

    spmm: SpmmTiling
    gemm: GemmTiling


# ----------------------------------------------------------------------
# Canonical fingerprints
# ----------------------------------------------------------------------

def _spec_signature(spec: TileHint | ExplicitTiles | None) -> dict | None:
    if spec is None:
        return None
    if isinstance(spec, ExplicitTiles):
        return {
            "spmm": [spec.spmm.t_v, spec.spmm.t_f, spec.spmm.t_n],
            "gemm": [spec.gemm.t_v, spec.gemm.t_f, spec.gemm.t_g],
        }
    return {
        "agg_priority": [d.value for d in spec.agg_priority],
        "cmb_priority": [d.value for d in spec.cmb_priority],
        "caps": sorted(
            (phase.value, dim.value, int(cap))
            for (phase, dim), cap in spec.caps.items()
        ),
        "avg_degree_cap_n": bool(spec.avg_degree_cap_n),
        "max_tf": int(spec.max_tf),
    }


def _hw_signature(hw: AcceleratorConfig) -> dict:
    sig: dict[str, Any] = {}
    for f in fields(hw):
        value = getattr(hw, f.name)
        if f.name == "energy":
            value = {g.name: getattr(value, g.name) for g in fields(value)}
        sig[f.name] = value
    return sig


def _workload_signature(wl: GNNWorkload) -> dict:
    g = wl.graph
    return {
        # The same bytes the pre-cache code hashed here, now memoized on
        # the graph so signatures, the TileStats registry, and repeat
        # evaluator constructions share one digest computation.
        "graph": g.pattern_digest,
        "V": wl.num_vertices,
        "E": wl.num_edges,
        "F": wl.in_features,
        "G": wl.out_features,
    }


def _context_signature(
    wl: GNNWorkload, hw: AcceleratorConfig, partition: dict | None = None
) -> dict:
    """The per-context half of the fingerprint (graph digest is O(V+E),
    so evaluators compute this once and reuse it per candidate).

    ``partition`` is the *normalized* block-partitioning spec; it enters
    the signature only when set, so unpartitioned fingerprints — and every
    record persisted before partitioned evaluation existed — are stable.
    """
    sig = {"workload": _workload_signature(wl), "hw": _hw_signature(hw)}
    if partition is not None:
        sig["partition"] = partition
    return sig


def context_key(
    wl: GNNWorkload, hw: AcceleratorConfig, partition: dict | None = None
) -> str:
    """Stable task key of one ``(workload, hardware)`` evaluation context —
    what the task-keyed pool and the session's per-context memos key on."""
    blob = json.dumps(
        _context_signature(wl, hw, partition),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- incremental fingerprint assembly ----------------------------------
#
# A fingerprint is the sha256 of the canonical JSON blob
# `json.dumps({**ctx, "dataflow": ..., "hint": ...}, sort_keys=True)`.
# A full design-space stream computes 6,656 of them against ONE
# (workload, hardware) context: serializing that context per candidate is
# pure waste.  `FingerprintFactory` splits the blob into reusable
# fragments — the context tail serialized once per evaluator, spec
# fragments cached per distinct hint, dataflow fragments assembled from
# cached per-intra notation strings — and concatenates them in the exact
# byte order `json.dumps(payload, sort_keys=True)` would produce
# (`"dataflow" < "hint" < "hw" < "workload"`), so the digests are
# byte-identical to hashing the whole blob (fuzz-asserted in the tests).

@functools.lru_cache(maxsize=None)
def _intra_notation(intra) -> str:
    # 96 concrete intras exist; str() walks enum values per call otherwise.
    return str(intra)


@functools.lru_cache(maxsize=None)
def _json_atom(value) -> str:
    """Canonical JSON for a scalar (None/str/float/int), cached."""
    return json.dumps(value)


def _dataflow_fragment(df: Dataflow) -> str:
    # Deliberately excludes ``name``: Table V labels are presentation-level
    # and must not defeat memoization of identical mappings.
    # Keys in sorted order: granularity < notation < pe_split < sp_variant.
    # The notation alphabet (dim letters, s/t, "_()," and space) never
    # needs JSON escaping, so the raw f-string placement is canonical.
    return (
        '{"granularity":%s,"notation":"%s_%s(%s, %s)","pe_split":%s,"sp_variant":%s}'
        % (
            _json_atom(df.granularity.value if df.granularity else None),
            df.inter.value,
            df.order.value,
            _intra_notation(df.agg),
            _intra_notation(df.cmb),
            _json_atom(df.pe_split),
            _json_atom(df.sp_variant.value if df.sp_variant else None),
        )
    )


def _spec_cache_key(spec: TileHint | ExplicitTiles | None):
    """Hashable identity of a tiling spec's fingerprint-relevant content.

    ``TileHint`` itself is unhashable (its ``caps`` is a plain dict), and
    caching by object identity would be unsound (ids are reused after GC),
    so the key is derived from field values.
    """
    if spec is None:
        return None
    if isinstance(spec, ExplicitTiles):
        return (
            "explicit",
            spec.spmm.t_v, spec.spmm.t_f, spec.spmm.t_n,
            spec.gemm.t_v, spec.gemm.t_f, spec.gemm.t_g,
        )
    return (
        "hint",
        spec.agg_priority,
        spec.cmb_priority,
        tuple(sorted(
            (phase.value, dim.value, int(cap))
            for (phase, dim), cap in spec.caps.items()
        )),
        bool(spec.avg_degree_cap_n),
        int(spec.max_tf),
    )


class FingerprintFactory:
    """Per-context incremental fingerprints, byte-identical to hashing the
    whole canonical blob."""

    __slots__ = ("_tail", "_spec_fragments")

    def __init__(self, ctx_signature: dict) -> None:
        ctx_blob = json.dumps(ctx_signature, sort_keys=True, separators=(",", ":"))
        # ctx_blob == '{"hw":{...},"workload":{...}}'; swapping its opening
        # brace for a comma yields the tail of the combined payload, whose
        # sorted keys put "dataflow" and "hint" first.
        self._tail = "," + ctx_blob[1:]
        self._spec_fragments: dict = {None: "null"}

    def _spec_fragment(self, spec: TileHint | ExplicitTiles | None) -> str:
        key = _spec_cache_key(spec)
        frag = self._spec_fragments.get(key)
        if frag is None:
            frag = json.dumps(
                _spec_signature(spec), sort_keys=True, separators=(",", ":")
            )
            self._spec_fragments[key] = frag
        return frag

    def fingerprint(
        self, df: Dataflow, spec: TileHint | ExplicitTiles | None = None
    ) -> str:
        blob = '{"dataflow":%s,"hint":%s%s' % (
            _dataflow_fragment(df),
            self._spec_fragment(spec),
            self._tail,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def candidate_fingerprint(
    wl: GNNWorkload,
    df: Dataflow,
    hw: AcceleratorConfig,
    hint: TileHint | ExplicitTiles | None = None,
) -> str:
    """Stable content hash of one evaluation's full input set.

    Two candidates share a fingerprint exactly when the cost model is
    guaranteed to produce identical records for them, so the hash is safe
    to use for memoization, store-level dedup, and campaign resume.
    ``hint`` may be a :class:`TileHint` or an :class:`ExplicitTiles`.
    """
    return FingerprintFactory(_context_signature(wl, hw)).fingerprint(df, hint)


# ----------------------------------------------------------------------
# Worker entry points (module-level so they pickle under spawn)
# ----------------------------------------------------------------------

def _tiling_kwargs(spec: TileHint | ExplicitTiles | None) -> dict:
    """Keywords of :func:`run_gnn_dataflow`/:func:`prepare_phases` that
    apply ``spec``: pinned tilings for :class:`ExplicitTiles`, else a hint."""
    if isinstance(spec, ExplicitTiles):
        return {"spmm_tiling": spec.spmm, "gemm_tiling": spec.gemm}
    return {"hint": spec}


def _evaluate_candidate(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    df: Dataflow,
    spec: TileHint | ExplicitTiles | None,
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
    partition=None,
) -> tuple[RunResult | None, str | None]:
    try:
        return (
            run_gnn_dataflow(
                wl, df, hw, stats=stats, cache=cache, partition=partition,
                **_tiling_kwargs(spec),
            ),
            None,
        )
    except (LegalityError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _group_key(df: Dataflow) -> tuple:
    """Sortable dispatch key clustering candidates that share phase
    mappings (and, for PP, the partition split): phase-cache hits land in
    the same evaluation group, and a group's PP candidates batch into one
    recurrence over shared granule series."""
    return (
        str(df.agg),
        str(df.cmb),
        df.order.value,
        df.pe_split if df.inter is InterPhase.PP else -1.0,
    )


def _evaluate_group(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    group: "list[tuple[int, Dataflow, TileHint | ExplicitTiles | None]]",
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
    partition=None,
) -> list[tuple[int, RunResult | None, str | None]]:
    """Evaluate one group of candidates batch-wise.

    Phase preparation (tiling + engine runs) happens per candidate
    through the shared ``cache``; composition happens once for the whole
    group via :func:`~repro.core.interphase._compose_batch`, so PP
    candidates sharing granule series run the recurrence once.
    Per-candidate results and error strings are identical to looping
    :func:`_evaluate_candidate` (asserted in ``tests/test_batch_compose.py``).

    With a ``partition`` plan each candidate composes per graph block
    inside :func:`~repro.core.partitioned.run_partitioned`, so the group
    degrades to a per-candidate loop (block engine runs still dedup
    through ``cache``; per-block sparsity stats live on the plan).
    """
    if partition is not None:
        return [
            (idx, *_evaluate_candidate(wl, hw, df, spec, None, cache, partition))
            for idx, df, spec in group
        ]
    prepared: list = []  # parallel to group: (cdf, agg, cmb) | error str
    for _, df, spec in group:
        try:
            prepared.append(
                prepare_phases(
                    wl, df, hw, stats=stats, cache=cache, **_tiling_kwargs(spec)
                )
            )
        except (LegalityError, ValueError) as exc:
            prepared.append(f"{type(exc).__name__}: {exc}")
    items = [
        (cdf, wl, hw, agg, cmb)
        for entry in prepared
        if not isinstance(entry, str)
        for cdf, agg, cmb in (entry,)
    ]
    results, errors = _compose_batch(items)
    composed = iter(zip(results, _error_strings(len(items), errors)))
    out: list[tuple[int, RunResult | None, str | None]] = []
    for (idx, _, _), entry in zip(group, prepared):
        if isinstance(entry, str):
            out.append((idx, None, entry))
        else:
            result, error = next(composed)
            out.append((idx, result, error))
    return out


def _error_strings(n: int, errors: list) -> list:
    out = [None] * n
    for i, exc in errors:
        out[i] = f"{type(exc).__name__}: {exc}"
    return out


def _task_eval(ctx, item):
    """Task-keyed pool entry: ``ctx`` is the ``(workload, hw[, tilestats[,
    phase_cache]])`` tuple the worker resolved from the task's context key.

    The :class:`~repro.engine.tilestats.TileStats` and
    :class:`~repro.engine.phasecache.PhaseEngineCache` handles ship *with*
    the context blob: the pool caches unpickled contexts per worker
    process, so every task of the same context keeps filling (and
    hitting) the same worker-local sparsity and engine-result caches.

    ``item`` is one dispatch group — a list of ``(idx, dataflow, spec)``
    triples sharing (as far as the dispatcher could arrange) one phase
    mapping.  Returns ``(results, phase_hits, phase_misses)`` where the
    counter deltas cover exactly this group, so the parent can fold
    worker-side cache efficacy into :class:`EvalStats`.
    """
    wl, hw, *rest = ctx
    stats = rest[0] if rest else None
    cache = rest[1] if len(rest) > 1 else None
    partition = rest[2] if len(rest) > 2 else None
    before = cache.counters() if cache is not None else (0, 0)
    results = _evaluate_group(wl, hw, item, stats, cache, partition)
    after = cache.counters() if cache is not None else (0, 0)
    return results, after[0] - before[0], after[1] - before[1]


# ----------------------------------------------------------------------
# Lazy candidate pipelines
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StreamedCandidate:
    """One lazily produced candidate, already fingerprinted.

    What a :class:`CandidateStream` yields: the raw ``(dataflow, spec,
    extra)`` triple plus the content fingerprint computed against one
    evaluation context (``ctx_key``).  ``DataflowEvaluator.evaluate``
    accepts these alongside plain tuples and reuses the fingerprint
    instead of re-hashing — but only when the context matches, so a
    stream built for one ``(workload, hardware)`` pair can never poison
    another context's memo.
    """

    dataflow: Dataflow
    spec: TileHint | ExplicitTiles | None
    extra: Mapping[str, Any]
    fingerprint: str
    ctx_key: str


class CandidateStream:
    """A lazy, re-iterable pipeline of fingerprinted candidates.

    Wraps a raw candidate source — an iterable of ``(dataflow, spec[,
    extra])`` tuples, or a zero-argument callable returning one (the
    re-iterable form search strategies use) — and yields
    :class:`StreamedCandidate` items one at a time.  Nothing is
    materialized: a million-point enumeration costs one candidate of
    memory, fingerprints are computed exactly once on the way past, and
    the evaluator's batch assembly filters warm-cache / warm-error /
    memo hits out of the flow before any work reaches the pool.
    """

    def __init__(
        self,
        evaluator: "DataflowEvaluator",
        source,
        *,
        label: str | None = None,
    ) -> None:
        self._evaluator = evaluator
        self._source = source
        self.label = label

    @property
    def ctx_key(self) -> str:
        return self._evaluator.ctx_key

    def _raw(self) -> Iterator[Sequence]:
        source = self._source() if callable(self._source) else self._source
        return iter(source)

    def __iter__(self) -> Iterator[StreamedCandidate]:
        ev = self._evaluator
        for candidate in self._raw():
            df, spec, extra, _ = DataflowEvaluator._unpack(candidate)
            yield StreamedCandidate(
                dataflow=df,
                spec=spec,
                extra=extra,
                fingerprint=ev.fingerprint(df, spec),
                ctx_key=ev.ctx_key,
            )

    def fingerprints(self) -> Iterator[str]:
        """The stream's fingerprints, in candidate order (lazy)."""
        return (candidate.fingerprint for candidate in self)


# ----------------------------------------------------------------------
# Outcomes and statistics
# ----------------------------------------------------------------------

@dataclass
class EvalOutcome:
    """One candidate's evaluation: live, warm-cached, or failed.

    Exactly one of three states holds:

    - fresh/memoized: ``result`` is the live :class:`RunResult`;
    - warm-cache hit: ``result`` is ``None`` but ``record`` carries the
      persisted export-schema record the store already held;
    - illegal: both are ``None`` and ``error`` carries the exception text
      so callers can report rather than silently drop it.

    The scalar accessors (``cycles``, ``energy_pj``, utilizations) read
    from whichever backing is present, so objective scoring and sweep
    normalization work identically across sessions.
    """

    index: int
    dataflow: Dataflow
    hint: TileHint | ExplicitTiles | None
    fingerprint: str
    result: RunResult | None = None
    record: dict | None = None
    error: str | None = None
    cached: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.result is not None or self.record is not None

    @property
    def label(self) -> str:
        return self.dataflow.name or str(self.dataflow)

    # -- backing-agnostic scalars --------------------------------------
    def _require_ok(self) -> None:
        if not self.ok:
            raise ValueError(f"candidate {self.label} failed: {self.error}")

    @property
    def cycles(self) -> int:
        self._require_ok()
        if self.result is not None:
            return self.result.total_cycles
        return int(self.record["cycles"])

    # Alias so refine_tiles callers can treat an outcome like a RunResult.
    total_cycles = cycles

    @property
    def energy_pj(self) -> float:
        self._require_ok()
        if self.result is not None:
            return self.result.energy_pj
        return float(self.record["energy"]["total_pj"])

    def _pipeline_utilization(self, side: str) -> float:
        self._require_ok()
        if self.result is not None:
            if self.result.pipeline is None:
                return 0.0
            return getattr(self.result.pipeline, f"{side}_utilization")
        pipe = self.record.get("pipeline")
        if not pipe or not pipe.get("total_cycles"):
            return 0.0
        return pipe.get(f"{side}_busy", 0.0) / pipe["total_cycles"]

    @property
    def producer_utilization(self) -> float:
        return self._pipeline_utilization("producer")

    @property
    def consumer_utilization(self) -> float:
        return self._pipeline_utilization("consumer")


@dataclass
class EvalStats:
    """Running counters across an evaluator's (or session's) lifetime.

    The first block is *scheduling-invariant*: identical for any worker
    count or unit interleaving of the same evaluations.  The phase-engine
    counters are *execution accounting*: with pool workers each process
    fills its own :class:`~repro.engine.phasecache.PhaseEngineCache`, so
    the hit/miss split depends on which worker handled which dispatch
    group — campaign reports surface them separately from the
    deterministic stats for exactly this reason.
    """

    evaluated: int = 0  # cost-model runs actually performed
    cache_hits: int = 0  # candidates answered from the in-memory memo
    warm_hits: int = 0  # candidates answered from the persisted store
    errors: int = 0  # illegal candidates (LegalityError / ValueError)
    persisted: int = 0  # records newly appended to the store
    store_skips: int = 0  # records the store already held
    errors_persisted: int = 0  # outcomes newly appended to the error sidecar
    phase_hits: int = 0  # engine runs answered from a phase-result cache
    phase_misses: int = 0  # engine runs actually simulated

    # Fields whose values depend on how work was scheduled, not on what
    # was evaluated (excluded from determinism comparisons).
    EXECUTION_FIELDS = ("phase_hits", "phase_misses")

    def as_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
        }


# Memo entries: (result, error, record) — record is set only for entries
# answered from the store-backed warm cache.
_MemoEntry = "tuple[RunResult | None, str | None, dict | None]"


# Warm-aware assembly keeps pulling until a full batch of *uncached* work
# has accumulated; this factor caps how many total candidates one batch
# may hold, bounding memory on near-fully-warm streams.
_WARM_ASSEMBLY_FACTOR = 8

# Unbudgeted serial evaluation pulls candidates in batches this wide so
# the in-process path benefits from batched composition too (phase-result
# sharing and the one-recurrence-per-batch PP kernel); memory stays
# bounded because batch engine results are deduplicated by the context's
# phase cache.
_SERIAL_BATCH = 512


@dataclass
class _Batch:
    """One assembled evaluation batch: classified candidates plus the
    bookkeeping the emission phase needs."""

    # (dataflow, spec, extra, fingerprint) per pulled candidate, in order.
    prepared: list = field(default_factory=list)
    # Batch positions of fingerprints needing a cost-model run.
    pending: list = field(default_factory=list)
    first_seen: dict = field(default_factory=dict)
    warm_seeded: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# The evaluation service
# ----------------------------------------------------------------------

class DataflowEvaluator:
    """Per-``(workload, hardware)`` view over an exploration session.

    Parameters
    ----------
    session:
        The :class:`~repro.campaign.session.ExplorationSession` providing
        the worker pool, per-context memo, store, and warm cache.  When
        omitted (the pre-campaign compatibility constructor), a private
        single-context session is created from the remaining keyword
        arguments and closed with this evaluator.
    workers:
        ``0`` (default) evaluates serially in-process; ``n > 0`` fans
        uncached candidates out over an ``n``-process task-keyed pool; a
        negative value uses every available CPU.  Records are
        byte-identical regardless of the setting.  Ignored when
        ``session`` is given.
    chunksize:
        Candidates handed to a worker per scheduling quantum (ignored
        when ``session`` is given).
    store:
        Optional :class:`~repro.analysis.store.ResultStore`; every fresh
        successful evaluation is streamed into it as an export-schema
        record tagged with the candidate fingerprint, and (unless
        ``warm=False``) its existing records seed the warm cache so a
        second session answers repeated candidates from disk with zero
        cost-model runs.  Ignored when ``session`` is given.
    warm:
        Preload the store's records as a warm cache (default).  Ignored
        when ``session`` is given.
    record_extra:
        Constant key-values merged into every persisted record (e.g.
        ``{"dataset": "cora"}``).
    partition:
        Optional block-partitioned evaluation mode (see
        :mod:`repro.core.partitioned`): an int block count, a
        ``{"blocks": k}`` / ``{"budget_bytes": n}`` dict, or a resolved
        :class:`~repro.core.partitioned.PartitionPlan`.  The normalized
        spec enters the context signature, so partitioned candidates
        fingerprint (and memoize/persist) separately from whole-graph
        ones.
    """

    def __init__(
        self,
        wl: GNNWorkload,
        hw: AcceleratorConfig,
        *,
        workers: int = 0,
        chunksize: int = 8,
        store: "Any | None" = None,
        warm: bool = True,
        record_extra: Mapping[str, Any] | None = None,
        session: "Any | None" = None,
        partition=None,
    ) -> None:
        if session is None:
            # Imported lazily: campaign sits above core in the layering,
            # and this is the pre-campaign compatibility constructor.
            from ..campaign.session import ExplorationSession

            session = ExplorationSession(
                workers=workers, chunksize=chunksize, store=store, warm=warm
            )
            self._owns_session = True
        else:
            self._owns_session = False
        self.session = session
        self.wl = wl
        self.hw = hw
        self.record_extra = dict(record_extra or {})
        self.stats = EvalStats()
        if partition is not None:
            from .partitioned import normalize_partition, resolve_partition

            self.partition_spec = normalize_partition(partition)
            self.partition_plan = resolve_partition(wl, hw, partition)
        else:
            self.partition_spec = None
            self.partition_plan = None
        self._ctx_signature = _context_signature(wl, hw, self.partition_spec)
        self._fp_factory = FingerprintFactory(self._ctx_signature)
        self.ctx_key = context_key(wl, hw, self.partition_spec)
        self._memo: dict[str, tuple] = session.memo_for(self.ctx_key)
        # One sparsity cache per workload, shared session-wide: every
        # context on the same graph (e.g. a num_pes sweep) resolves to the
        # same handle through the session's registry.
        self.tilestats: TileStats = session.tilestats_for(wl.graph)
        # One phase-engine result cache per context (engine runs embed the
        # hardware point, so contexts never share them): every candidate
        # of this context reuses its mapping-mates' SpmmResult/GemmResult.
        self.phase_cache: "PhaseEngineCache | None" = session.phase_cache_for(
            self.ctx_key
        )

    # -- session delegation ---------------------------------------------
    @property
    def workers(self) -> int:
        return self.session.workers

    @property
    def store(self):
        return self.session.store

    def close(self) -> None:
        """Close the private session, if this evaluator owns one.

        Session-provided evaluators are views; closing them is a no-op so
        ``with session.evaluator(...)`` blocks never tear down the shared
        pool."""
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "DataflowEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- fingerprints and records --------------------------------------
    def fingerprint(
        self, df: Dataflow, hint: TileHint | ExplicitTiles | None = None
    ) -> str:
        return self._fp_factory.fingerprint(df, hint)

    def to_record(self, outcome: EvalOutcome, **extra: Any) -> dict:
        """Export-schema record of a successful outcome (+ fingerprint).

        Warm-cache outcomes return the record the store already holds."""
        if outcome.record is not None:
            return dict(outcome.record)
        if outcome.result is None:
            raise ValueError(f"cannot serialize failed candidate: {outcome.error}")
        # Imported lazily: analysis sits above core in the layering.
        from ..analysis.export import run_result_to_record

        merged = {**self.record_extra, **outcome.extra, **extra}
        return run_result_to_record(
            outcome.result, fingerprint=outcome.fingerprint, **merged
        )

    # -- evaluation -----------------------------------------------------
    def evaluate_one(
        self, df: Dataflow, hint: TileHint | ExplicitTiles | None = None
    ) -> EvalOutcome:
        return self.evaluate([(df, hint)])[0]

    def stream(self, source, *, label: str | None = None) -> CandidateStream:
        """Wrap a raw candidate source as a :class:`CandidateStream` bound
        to this evaluator's context."""
        return CandidateStream(self, source, label=label)

    def evaluate(
        self,
        candidates: "Iterable[Sequence] | CandidateStream",
        *,
        budget: int | None = None,
    ) -> list[EvalOutcome]:
        """Evaluate candidates in order; returns one outcome per candidate.

        Each candidate is ``(dataflow, spec)`` or ``(dataflow, spec,
        extra)`` where ``spec`` is a :class:`TileHint`, an
        :class:`ExplicitTiles`, or ``None``, and ``extra`` is merged into
        the persisted record — or a :class:`StreamedCandidate` (e.g. from
        a :class:`CandidateStream`), whose precomputed fingerprint is
        reused when its context matches.  ``budget`` bounds the number of
        *successful* evaluations (matching the optimizer's historical
        semantics: illegal candidates are reported but do not consume
        budget); once reached, remaining candidates are not pulled from
        the iterator.

        Candidates are pulled lazily, batch by batch; memo, warm-cache,
        and warm-error hits are filtered during batch assembly, so they
        never reach the worker pool.  Without a budget (and with workers)
        assembly is *warm-aware*: it keeps pulling until a full batch of
        genuinely uncached work has accumulated, so a mostly-warm resumed
        campaign still hands the pool full batches instead of trickles.

        .. note:: **Budget truncation.**  With ``workers > 0`` candidates
           are scheduled in whole batches, so hitting the budget
           mid-batch can leave already-computed outcomes in the batch
           tail.  Those outcomes are still memoized *and persisted to the
           store*, but they are deliberately **not returned**: the
           returned outcome list depends only on ``(candidates, budget)``
           and stays identical between ``workers=0`` and ``workers=N``.
           A later identical request answers them from the memo for free.
        """
        it = iter(candidates)
        workers = self.session.workers
        if workers == 0:
            # Serial evaluation still wants wide batches when unbudgeted:
            # the whole batch composes as one group (shared engine runs,
            # one PP recurrence).  A budgeted serial run keeps the
            # historical one-at-a-time pull so it evaluates *exactly*
            # ``budget`` successes — no tail work past the budget.
            batch_size = 1 if budget is not None else _SERIAL_BATCH
        else:
            batch_size = max(32, workers * self.session.chunksize)
        warm_aware = budget is None and workers > 0
        outcomes: list[EvalOutcome] = []
        legal = 0
        position = 0
        while budget is None or legal < budget:
            batch = self._assemble(it, batch_size, warm_aware)
            if not batch.prepared:
                break
            # Drain the whole batch even past the budget: the tail was
            # already computed, so it must reach the memo and the store
            # (only the returned list is budget-truncated; see docstring).
            for outcome in self._emit(batch, position):
                if budget is not None and legal >= budget:
                    continue
                outcomes.append(outcome)
                if outcome.ok:
                    legal += 1
            position += len(batch.prepared)
        return outcomes

    # -- internals ------------------------------------------------------
    @staticmethod
    def _unpack(
        candidate: "Sequence | StreamedCandidate",
    ) -> tuple[
        Dataflow,
        TileHint | ExplicitTiles | None,
        dict,
        "StreamedCandidate | None",
    ]:
        if isinstance(candidate, StreamedCandidate):
            return (
                candidate.dataflow,
                candidate.spec,
                dict(candidate.extra),
                candidate,
            )
        if len(candidate) == 2:
            df, spec = candidate
            return df, spec, {}, None
        df, spec, extra = candidate
        return df, spec, dict(extra), None

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Advance a counter on this view *and* on the shared session
        (under the session lock: serving's query threads share it)."""
        with self.session.lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + amount)
            stats = self.session.stats
            setattr(stats, counter, getattr(stats, counter) + amount)

    def _assemble(
        self, it: Iterator, batch_size: int, warm_aware: bool
    ) -> "_Batch":
        """Pull and classify the next batch of candidates.

        Every candidate is fingerprinted (or its streamed fingerprint
        adopted) and sorted into memo hit / warm hit / warm error /
        pending exactly once; only ``pending`` ever reaches the pool.
        Plain assembly pulls ``batch_size`` candidates; warm-aware
        assembly pulls until ``batch_size`` *pending* candidates (or the
        assembled cap) so warm streams keep the workers fed.
        """
        batch = _Batch()
        prepared = batch.prepared
        limit = batch_size * _WARM_ASSEMBLY_FACTOR if warm_aware else batch_size
        for candidate in it:
            df, spec, extra, streamed = self._unpack(candidate)
            if streamed is not None and streamed.ctx_key == self.ctx_key:
                fp = streamed.fingerprint
            else:
                fp = self.fingerprint(df, spec)
            i = len(prepared)
            prepared.append((df, spec, extra, fp))
            if fp not in self._memo and fp not in batch.first_seen:
                warm = self.session.warm_get(fp)
                if warm is not None:
                    # Answered from the persisted store: no model run, and
                    # the memo entry carries the disk record for later hits.
                    self._memo[fp] = (None, None, warm)
                    batch.warm_seeded[fp] = i
                    self._bump("warm_hits")
                else:
                    warm_error = self.session.warm_error_get(fp)
                    if warm_error is not None:
                        # Known-illegal from the error sidecar: resumed
                        # campaigns report the persisted failure instead
                        # of re-probing it.
                        self._memo[fp] = (None, warm_error, None)
                        batch.warm_seeded[fp] = i
                        self._bump("warm_hits")
                    else:
                        batch.first_seen[fp] = i
                        batch.pending.append((i, df, spec))
            if warm_aware:
                if len(batch.pending) >= batch_size or len(prepared) >= limit:
                    break
            elif len(prepared) >= limit:
                break
        return batch

    def _emit(self, batch: "_Batch", base_index: int) -> Iterator[EvalOutcome]:
        first_seen = batch.first_seen
        warm_seeded = batch.warm_seeded
        fresh = self._run(batch.pending)
        for i, (df, spec, extra, fp) in enumerate(batch.prepared):
            cached = fp in self._memo  # batch-internal dups memoize too
            if cached:
                result, error, record = self._memo[fp]
                if warm_seeded.get(fp) != i:
                    # (The occurrence that seeded a warm entry was already
                    # counted as a warm hit, not a memo hit.)
                    self._bump("cache_hits")
            else:
                result, error = fresh[first_seen[fp]]
                record = None
                self._memo[fp] = (result, error, None)
                self._bump("evaluated")
                if error is not None:
                    self._bump("errors")
            outcome = EvalOutcome(
                index=base_index + i,
                dataflow=df,
                hint=spec,
                fingerprint=fp,
                result=result,
                record=record,
                error=error,
                cached=cached,
                extra=extra,
            )
            if not cached:
                self._persist(outcome)
            yield outcome

    @staticmethod
    def _pack_groups(
        pending: list[tuple[int, Dataflow, TileHint | ExplicitTiles | None]],
        target: int,
    ) -> list[list]:
        """Sort pending candidates by mapping-group key and pack them into
        dispatch groups of roughly ``target`` candidates.

        A group only splits at a mapping boundary (so one mapping's
        candidates share a worker's phase cache and compose as one batch)
        unless it exceeds ``4 x target``, which bounds a pathological
        single-mapping run's scheduling quantum.  Sorting is stable and
        results are keyed by candidate index, so outcome order — and every
        record — is unchanged by the regrouping.
        """
        keyed = sorted(pending, key=lambda cand: _group_key(cand[1]))
        groups: list[list] = []
        cur: list = []
        cur_key = None
        for cand in keyed:
            key = _group_key(cand[1])
            if cur and (
                (len(cur) >= target and key != cur_key)
                or len(cur) >= 4 * target
            ):
                groups.append(cur)
                cur = []
            cur.append(cand)
            cur_key = key
        if cur:
            groups.append(cur)
        return groups

    def _run(
        self, pending: list[tuple[int, Dataflow, TileHint | ExplicitTiles | None]]
    ) -> dict[int, tuple[RunResult | None, str | None]]:
        if not pending:
            return {}
        if self.session.workers and len(pending) > 1:
            # *Fresh* tilestats/phase-cache handles travel with the
            # context blob — workers fill their own copies lazily and keep
            # them across tasks (the pool caches context blobs per
            # process).  Shipping the parent's accumulated caches would
            # re-serialize every derived array per context for data
            # workers can rebuild on demand.
            groups = self._pack_groups(pending, self.session.chunksize)
            ctx: tuple = (
                self.wl,
                self.hw,
                TileStats(self.wl.graph),
                PhaseEngineCache(),
            )
            if self.partition_plan is not None:
                # Ship the blocks but a *fresh* per-block stats registry:
                # workers fill their own copies (same rationale as the
                # fresh TileStats above).
                from ..engine.tilestats import TileStatsRegistry
                from .partitioned import PartitionPlan

                ctx = ctx + (
                    PartitionPlan(
                        blocks=self.partition_plan.blocks,
                        spec=self.partition_plan.spec,
                        registry=TileStatsRegistry(),
                    ),
                )
            mapped = self.session.map(
                self.ctx_key,
                ctx,
                groups,
                chunksize=1,  # items are pre-packed groups already
            )
            out: dict[int, tuple[RunResult | None, str | None]] = {}
            hits = misses = 0
            for results, group_hits, group_misses in mapped:
                hits += group_hits
                misses += group_misses
                for idx, result, error in results:
                    out[idx] = (result, error)
            if hits or misses:
                self._bump("phase_hits", hits)
                self._bump("phase_misses", misses)
            return out
        # Serial path: the whole pending batch is one group, sorted so
        # mapping-mates sit together (series dedup + one PP recurrence).
        group = sorted(pending, key=lambda cand: _group_key(cand[1]))
        before = self.phase_cache.counters() if self.phase_cache else (0, 0)
        results = _evaluate_group(
            self.wl,
            self.hw,
            group,
            self.tilestats,
            self.phase_cache,
            self.partition_plan,
        )
        if self.phase_cache is not None:
            after = self.phase_cache.counters()
            if after != before:
                self._bump("phase_hits", after[0] - before[0])
                self._bump("phase_misses", after[1] - before[1])
        return {idx: (result, error) for idx, result, error in results}

    def _persist(self, outcome: EvalOutcome) -> None:
        store = self.session.store
        if store is None:
            return
        if outcome.result is not None:
            if store.append(self.to_record(outcome)):
                self._bump("persisted")
            else:
                self._bump("store_skips")
        elif outcome.error is not None and hasattr(store, "record_error"):
            # Illegal candidates go to the compact error sidecar so a
            # resumed campaign skips re-probing known-bad mappings.
            if store.record_error(outcome.fingerprint, outcome.error):
                self._bump("errors_persisted")
