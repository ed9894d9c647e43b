"""Batched design-space evaluation service (the DSE chokepoint).

Every exploration path in the library — the mapping optimizer, the Table V
sweep, the Figs. 14-16 case-study sweeps, and multi-dataset campaigns —
needs the same three things around :func:`repro.core.omega.run_gnn_dataflow`:
batch candidate mappings so mapping-mates share engine runs and PP
recurrences, avoid re-costing a candidate that was already costed, and
persist what was learned so a campaign can be resumed.  This module
centralizes all three.

- :func:`candidate_fingerprint` derives a stable content hash of one
  ``(workload, dataflow, hardware, tiling spec)`` evaluation, the key for
  the in-memory memo, the on-disk
  :class:`~repro.analysis.store.ResultStore`, and the store-backed warm
  cache.  Tiling specs are either a :class:`~repro.core.tiling.TileHint`
  or an :class:`ExplicitTiles` pair, so hill-climbed explicit tilings
  memoize exactly like hinted ones.
- :class:`DataflowEvaluator` is a thin per-``(workload, hardware)`` view
  over an :class:`~repro.campaign.session.ExplorationSession`: the session
  owns the per-context memos, the sparsity and phase-engine caches, and
  the warm cache; the evaluator contributes the context signature and the
  record schema.  An evaluator constructed without a session builds a
  private one with no store.
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
from .omega import prepare_block, run_gnn_dataflow
from .taxonomy import Dataflow
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
    """Stable key of one ``(workload, hardware)`` evaluation context —
    what the session's per-context memos and phase caches key on."""
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
# Candidate evaluation
# ----------------------------------------------------------------------

def _tiling_kwargs(spec: TileHint | ExplicitTiles | None) -> dict:
    """Keywords of :func:`run_gnn_dataflow` that apply ``spec``: pinned
    tilings for :class:`ExplicitTiles`, else a hint."""
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


def _evaluate_group(
    wl: GNNWorkload,
    hw: AcceleratorConfig,
    group: "list[tuple[int, Dataflow, TileHint | ExplicitTiles | None]]",
    stats: "TileStats | None" = None,
    cache: "PhaseEngineCache | None" = None,
    partition=None,
) -> list[tuple[int, RunResult | None, str | None]]:
    """Evaluate one group of candidates batch-wise.

    Phase preparation is one :func:`~repro.core.omega.prepare_block` call
    over the whole group: tiles, concretised intras and engine results are
    computed once per distinct phase mapping, with engine runs shared
    across groups through ``cache``.  Composition happens once for the
    whole group via :func:`~repro.core.interphase._compose_batch`, so PP
    candidates sharing granule series run the recurrence once, in any
    candidate order.  Per-candidate results and error strings are
    identical to looping :func:`_evaluate_candidate` (asserted in
    ``tests/test_batch_compose.py`` and ``tests/test_prepare_block.py``).

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
    prepared = prepare_block(
        wl,
        hw,
        [
            (df, None, spec.spmm, spec.gemm)
            if isinstance(spec, ExplicitTiles)
            else (df, spec, None, None)
            for _, df, spec in group
        ],
        stats=stats,
        cache=cache,
    )
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
    memo hits out of the flow before any cost-model run.
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

    The first block is *scheduling-invariant*: identical for any shard
    count or unit interleaving of the same evaluations.  The phase-engine
    counters are *execution accounting*: each shard process fills its own
    :class:`~repro.engine.phasecache.PhaseEngineCache`, so the hit/miss
    split depends on which shard ran which unit — campaign reports surface
    them separately from the deterministic stats for exactly this reason.
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


# Evaluation pulls candidates in batches up to this wide (a budgeted run:
# no wider than the successes it still needs) so batched preparation and
# composition pay off: tiles, concretisations and engine lookups once per
# phase mapping per batch, one PP recurrence per shared granule series.
# Memory stays bounded because batch engine results are deduplicated by
# the context's phase cache.
_BATCH_SIZE = 512


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
        the per-context memo, caches, store, and warm cache.  When
        omitted, a private session with no store is created.  To persist
        outcomes, attach the store to a session:
        ``ExplorationSession(store=store).evaluator(wl, hw)``.
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

    ``with DataflowEvaluator(wl, hw) as ev:`` works and does nothing on
    exit: an evaluator holds only process memory.
    """

    def __init__(
        self,
        wl: GNNWorkload,
        hw: AcceleratorConfig,
        *,
        record_extra: Mapping[str, Any] | None = None,
        session: "Any | None" = None,
        partition=None,
    ) -> None:
        if session is None:
            # Imported lazily: campaign sits above core in the layering.
            from ..campaign.session import ExplorationSession

            session = ExplorationSession()
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
    def store(self):
        return self.session.store

    def __enter__(self) -> "DataflowEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

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
        and warm-error hits are filtered during batch assembly, so only
        uncached candidates reach the cost model.  Each batch is prepared
        and composed as one group (tiles and engine lookups once per phase
        mapping, one PP recurrence per shared series).  A run pulls
        :data:`_BATCH_SIZE` candidates at a time; a budgeted run pulls no
        more than the successes it still needs.  Each candidate adds at
        most one success, so a budgeted run evaluates *exactly* ``budget``
        successes and no work past them.
        """
        it = iter(candidates)
        outcomes: list[EvalOutcome] = []
        legal = 0
        while budget is None or legal < budget:
            room = _BATCH_SIZE if budget is None else min(_BATCH_SIZE, budget - legal)
            batch = self._assemble(it, room)
            if not batch.prepared:
                break
            for outcome in self._emit(batch, len(outcomes)):
                outcomes.append(outcome)
                if outcome.ok:
                    legal += 1
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

    def _assemble(self, it: Iterator, batch_size: int) -> "_Batch":
        """Pull and classify the next ``batch_size`` candidates.

        Every candidate is fingerprinted (or its streamed fingerprint
        adopted) and sorted into memo hit / warm hit / warm error /
        pending exactly once; only ``pending`` ever reaches the cost model.
        """
        batch = _Batch()
        prepared = batch.prepared
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
            if len(prepared) >= batch_size:
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

    def _run(
        self, pending: list[tuple[int, Dataflow, TileHint | ExplicitTiles | None]]
    ) -> dict[int, tuple[RunResult | None, str | None]]:
        if not pending:
            return {}
        # The whole pending batch is one group: preparation shares phase
        # mappings and composition dedups PP series in any order.
        before = self.phase_cache.counters() if self.phase_cache else (0, 0)
        results = _evaluate_group(
            self.wl,
            self.hw,
            pending,
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
        elif outcome.error is not None:
            # Illegal candidates go to the compact error sidecar so a
            # resumed campaign skips re-probing known-bad mappings.
            if store.record_error(outcome.fingerprint, outcome.error):
                self._bump("errors_persisted")
