"""Phase-engine result cache: one engine run per distinct phase mapping.

The paper's 6,656-point design space factors into a far smaller set of
unique per-phase intra-mappings crossed with inter-phase/granularity
choices: every Seq candidate pairs one of 48 Aggregation mappings with one
of 48 Combination mappings, so a full sweep re-runs each phase engine
~48x; PP re-runs each partition's engine once per compatible partner and
granularity.  Timeloop/MAESTRO-lineage mappers batch cost-model queries by
exactly this factorization — this module does the same for the tile-level
engines.

:class:`PhaseEngineCache` memoizes :func:`~repro.engine.spmm.simulate_spmm`
/ :func:`~repro.engine.gemm.simulate_gemm` results by the *full* input set
of one engine run — workload digest (sparsity pattern + operand naming +
extents), concrete intra-phase mapping, realized tiling, and hardware
point (PP partitions hash differently from the whole array, so a pe_split
sweep can never alias) — which is precisely the guarantee that makes the
shared :class:`~repro.engine.spmm.SpmmResult`/:class:`~repro.engine.gemm.GemmResult`
instances safe: two candidates with equal keys would have received
value-identical results anyway, so sharing one object (and its memoized
``per_unit_cycles`` views) changes nothing but the work done.

The evaluation session owns one cache per evaluation context, so every
candidate of that context fills (and hits) the same instance.
``hits``/``misses`` counters make cache efficacy assertable in tests and
reportable by campaigns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gemm import GemmResult, GemmSpec, GemmTiling, simulate_gemm
from .spmm import SpmmResult, SpmmSpec, SpmmTiling, simulate_spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.config import AcceleratorConfig
    from ..core.taxonomy import IntraDataflow
    from .tilestats import TileStats

__all__ = ["PhaseEngineCache", "spmm_phase_key", "gemm_phase_key"]


def spmm_phase_key(
    spec: SpmmSpec,
    intra: "IntraDataflow",
    tiling: SpmmTiling,
    hw: "AcceleratorConfig",
) -> tuple:
    """Content key of one SpMM engine run.

    The graph contributes its sparsity-pattern digest (values are
    cost-model-irrelevant); everything else the engine reads — operand
    names, feature width, the concrete mapping, tile sizes, and the
    (possibly partitioned) hardware point — participates directly, all of
    it hashable frozen-dataclass state.
    """
    return (
        "spmm",
        spec.graph.pattern_digest,
        spec.feat,
        spec.x_name,
        spec.out_name,
        intra,
        tiling,
        hw,
    )


def gemm_phase_key(
    spec: GemmSpec,
    intra: "IntraDataflow",
    tiling: GemmTiling,
    hw: "AcceleratorConfig",
) -> tuple:
    """Content key of one GEMM engine run (all-scalar spec: hash whole)."""
    return ("gemm", spec, intra, tiling, hw)


class PhaseEngineCache:
    """Memoized ``simulate_spmm``/``simulate_gemm`` for one context.

    Returned results are shared objects; their engine-facing fields are
    effectively immutable (``PhaseStats`` is never mutated downstream —
    :func:`~repro.core.interphase.compose` merges counts into fresh
    dicts) and their lazily-built ``per_unit_cycles`` views are memoized
    read-only arrays, so a hit also reuses every granule-series
    ingredient derived so far.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._spmm: dict[tuple, SpmmResult] = {}
        self._gemm: dict[tuple, GemmResult] = {}

    # ------------------------------------------------------------------
    def spmm(
        self,
        spec: SpmmSpec,
        intra: "IntraDataflow",
        tiling: SpmmTiling,
        hw: "AcceleratorConfig",
        *,
        stats: "TileStats | None" = None,
    ) -> SpmmResult:
        key = spmm_phase_key(spec, intra, tiling, hw)
        out = self._spmm.get(key)
        if out is None:
            self.misses += 1
            out = simulate_spmm(spec, intra, tiling, hw, stats=stats)
            self._spmm[key] = out
        else:
            self.hits += 1
        return out

    def gemm(
        self,
        spec: GemmSpec,
        intra: "IntraDataflow",
        tiling: GemmTiling,
        hw: "AcceleratorConfig",
        *,
        stats: "TileStats | None" = None,
    ) -> GemmResult:
        key = gemm_phase_key(spec, intra, tiling, hw)
        out = self._gemm.get(key)
        if out is None:
            self.misses += 1
            out = simulate_gemm(spec, intra, tiling, hw, stats=stats)
            self._gemm[key] = out
        else:
            self.hits += 1
        return out

    # ------------------------------------------------------------------
    def counters(self) -> tuple[int, int]:
        """Current ``(hits, misses)`` snapshot."""
        return self.hits, self.misses

    def __len__(self) -> int:
        return len(self._spmm) + len(self._gemm)
