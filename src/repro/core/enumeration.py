"""Design-space enumeration (paper Table II and the 6,656 count).

The paper reports "a total of 6,656 choices purely from the product of all
feasible loop orders, parallelism choices, and phase order across the three
inter-phase choices" (§III-C).  With the granularity-compatibility rule of
:mod:`repro.core.legality` that count falls out naturally:

- **Seq** accepts any pair of concrete intra-phase dataflows:
  48 x 48 x 2 phase orders = 4,608 (each phase has 6 loop orders x 2^3
  spatial/temporal annotations = 48 concrete dataflows);
- **SP** and **PP** each accept only pipeline-compatible pairs: 8 loop-order
  pairs per phase order (Table II rows 4-6 for AC, rows 7-9 for CA), each
  with 2^6 annotation choices: 8 x 64 x 2 = 1,024 each.

4,608 + 1,024 + 1,024 = **6,656**.  SP-Optimized is a *buffering* variant of
the element-granularity SP loop orders, not an extra loop-order/parallelism
choice, so it adds nothing to the count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .legality import (
    infer_granularity,
    intermediate_axes,
    pair_granularity,
    sp_optimized_ok,
)
from .taxonomy import (
    AGG_DIMS,
    CMB_DIMS,
    Annot,
    Dataflow,
    Granularity,
    InterPhase,
    IntraDataflow,
    Phase,
    PhaseOrder,
    SPVariant,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evaluator import CandidateStream, DataflowEvaluator

__all__ = [
    "all_loop_orders",
    "all_concrete_intra",
    "enumerate_pairs",
    "enumerate_design_space",
    "design_space_stream",
    "count_design_space",
    "GridBlock",
    "candidate_grid",
    "pair_mask",
    "TableIIRow",
    "TABLE_II_ROWS",
    "table_ii_order_pairs",
]

# Concrete intras per phase: 6 loop orders x 2^3 spatial/temporal
# annotations, in `all_concrete_intra` order (annotation index minor).
_N_INTRA = 48
_ANNOTS_PER_ORDER = 8


@functools.lru_cache(maxsize=None)
def all_loop_orders(phase: Phase) -> tuple[tuple, ...]:
    """The 6 loop-order permutations of a phase's dimensions (cached)."""
    dims = AGG_DIMS if phase is Phase.AGGREGATION else CMB_DIMS
    return tuple(tuple(p) for p in itertools.permutations(dims))


@functools.lru_cache(maxsize=None)
def all_concrete_intra(phase: Phase) -> tuple[IntraDataflow, ...]:
    """All 48 concrete intra-phase dataflows (6 orders x 2^3 annotations).

    Cached: the full-space enumerators re-visit these per (inter, order)
    combination, and candidate streams may be re-iterated — the dataflow
    objects are frozen, so one shared tuple serves every pass.
    """
    out: list[IntraDataflow] = []
    st = (Annot.SPATIAL, Annot.TEMPORAL)
    for order in all_loop_orders(phase):
        for annot in itertools.product(st, st, st):
            out.append(IntraDataflow(phase, order, annot))
    return tuple(out)


def enumerate_pairs(
    inter: InterPhase,
    order: PhaseOrder,
    *,
    sp_variant: SPVariant | None = None,
) -> Iterator[Dataflow]:
    """All legal concrete (Agg, Cmb) pairs for one inter-phase strategy."""
    variant = sp_variant if inter is InterPhase.SP else None
    for agg in all_concrete_intra(Phase.AGGREGATION):
        for cmb in all_concrete_intra(Phase.COMBINATION):
            df = Dataflow(inter=inter, order=order, agg=agg, cmb=cmb, sp_variant=variant)
            if inter is InterPhase.SEQ:
                yield df
                continue
            if variant is SPVariant.OPTIMIZED:
                if sp_optimized_ok(df)[0]:
                    yield df
                continue
            if infer_granularity(df) is not None:
                yield df


# ----------------------------------------------------------------------
# Candidate grid: the design space as (agg intra x cmb intra) index arrays
# ----------------------------------------------------------------------
#
# Legality over the 6,656-point space factors along the grid axes: pipeline
# compatibility depends only on the (agg, cmb) *loop-order* pair (6 x 6 per
# phase order), and the SP-Optimized buffering constraints add a per-intra
# structural test plus shared-axis annotation agreement — all computable on
# boolean masks before a single ``Dataflow`` is constructed.  Survivor
# indices are materialized once per (inter, order, variant) block and the
# matching frozen ``Dataflow`` objects are built lazily on first iteration,
# then shared by every later sweep in the process.


@functools.lru_cache(maxsize=None)
def _order_pair_granularity(order: PhaseOrder) -> np.ndarray:
    """6x6 int8 granularity codes over (agg, cmb) loop-order indices.

    -1 means pipeline-incompatible; otherwise the code indexes
    ``list(Granularity)``.
    """
    grans = list(Granularity)
    agg_orders = all_loop_orders(Phase.AGGREGATION)
    cmb_orders = all_loop_orders(Phase.COMBINATION)
    table = np.full((len(agg_orders), len(cmb_orders)), -1, dtype=np.int8)
    for i, ao in enumerate(agg_orders):
        for j, co in enumerate(cmb_orders):
            g = pair_granularity(order, ao, co)
            if g is not None:
                table[i, j] = grans.index(g)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _sp_opt_phase_vectors(
    phase: Phase, order: PhaseOrder
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-intra SP-Optimized structure over one phase's 48 concrete intras.

    Returns ``(ok, row_annot, col_annot)``: ``ok`` flags intras whose
    non-intermediate dim is innermost *and* temporal; the annot vectors
    give the spatial(0)/temporal(1) choice on the intermediate's row/col
    axes, for the shared-axis agreement test.
    """
    intras = all_concrete_intra(phase)
    ok = np.zeros(len(intras), dtype=bool)
    row_annot = np.zeros(len(intras), dtype=np.int8)
    col_annot = np.zeros(len(intras), dtype=np.int8)
    for i, intra in enumerate(intras):
        row, col, other = intermediate_axes(intra, order)
        ok[i] = (
            intra.position_of(other) == 2
            and intra.annotation_of(other) is Annot.TEMPORAL
        )
        row_annot[i] = 0 if intra.annotation_of(row) is Annot.SPATIAL else 1
        col_annot[i] = 0 if intra.annotation_of(col) is Annot.SPATIAL else 1
    for arr in (ok, row_annot, col_annot):
        arr.setflags(write=False)
    return ok, row_annot, col_annot


@functools.lru_cache(maxsize=None)
def pair_mask(
    inter: InterPhase,
    order: PhaseOrder,
    sp_variant: SPVariant | None = None,
) -> np.ndarray:
    """(48, 48) legality mask over concrete (agg, cmb) intra pairs.

    Vectorized equivalent of the per-``Dataflow`` predicates in
    :mod:`repro.core.legality` (equality is fuzz-asserted in the tests):
    Seq admits everything, SP-Generic/PP expand the order-level
    compatibility table across annotations, and SP-Optimized intersects
    the element-granularity pairs with the structural + shared-axis
    annotation constraints of :func:`~repro.core.legality.sp_optimized_ok`.
    """
    if inter is InterPhase.SEQ:
        mask = np.ones((_N_INTRA, _N_INTRA), dtype=bool)
    else:
        table = _order_pair_granularity(order)
        if sp_variant is SPVariant.OPTIMIZED:
            elem = table == list(Granularity).index(Granularity.ELEMENT)
            mask = np.repeat(
                np.repeat(elem, _ANNOTS_PER_ORDER, axis=0),
                _ANNOTS_PER_ORDER,
                axis=1,
            )
            a_ok, a_row, a_col = _sp_opt_phase_vectors(Phase.AGGREGATION, order)
            c_ok, c_row, c_col = _sp_opt_phase_vectors(Phase.COMBINATION, order)
            mask &= a_ok[:, None] & c_ok[None, :]
            mask &= a_row[:, None] == c_row[None, :]
            mask &= a_col[:, None] == c_col[None, :]
        else:
            mask = np.repeat(
                np.repeat(table >= 0, _ANNOTS_PER_ORDER, axis=0),
                _ANNOTS_PER_ORDER,
                axis=1,
            )
    mask.setflags(write=False)
    return mask


class GridBlock:
    """One (inter, order, variant) slice of the candidate grid.

    Holds the survivor (agg, cmb) intra index arrays in the legacy
    lexicographic enumeration order; the matching ``Dataflow`` objects are
    constructed lazily on first request and cached for the lifetime of the
    process (frozen dataclasses, so sharing across sweeps is safe).
    """

    __slots__ = ("inter", "order", "sp_variant", "agg_idx", "cmb_idx", "_dataflows")

    def __init__(
        self,
        inter: InterPhase,
        order: PhaseOrder,
        sp_variant: SPVariant | None,
    ) -> None:
        self.inter = inter
        self.order = order
        self.sp_variant = sp_variant
        # np.nonzero walks the C-contiguous mask row-major, reproducing the
        # legacy `for agg: for cmb:` lexicographic candidate order.
        agg_idx, cmb_idx = np.nonzero(pair_mask(inter, order, sp_variant))
        agg_idx.setflags(write=False)
        cmb_idx.setflags(write=False)
        self.agg_idx = agg_idx
        self.cmb_idx = cmb_idx
        self._dataflows: tuple[Dataflow, ...] | None = None

    def __len__(self) -> int:
        return len(self.agg_idx)

    def dataflows(self) -> tuple[Dataflow, ...]:
        """The block's survivor dataflows (built lazily, then shared)."""
        if self._dataflows is None:
            agg_all = all_concrete_intra(Phase.AGGREGATION)
            cmb_all = all_concrete_intra(Phase.COMBINATION)
            inter, order, variant = self.inter, self.order, self.sp_variant
            self._dataflows = tuple(
                Dataflow(
                    inter=inter,
                    order=order,
                    agg=agg_all[i],
                    cmb=cmb_all[j],
                    sp_variant=variant,
                )
                for i, j in zip(self.agg_idx.tolist(), self.cmb_idx.tolist())
            )
        return self._dataflows


@functools.lru_cache(maxsize=None)
def _grid_block(
    inter: InterPhase, order: PhaseOrder, sp_variant: SPVariant | None
) -> GridBlock:
    return GridBlock(inter, order, sp_variant)


@functools.lru_cache(maxsize=None)
def candidate_grid(*, include_sp_optimized: bool = False) -> tuple[GridBlock, ...]:
    """The full design space as grid blocks, in enumeration block order."""
    blocks: list[GridBlock] = []
    for order in PhaseOrder:
        blocks.append(_grid_block(InterPhase.SEQ, order, None))
    for order in PhaseOrder:
        blocks.append(_grid_block(InterPhase.SP, order, SPVariant.GENERIC))
        if include_sp_optimized:
            blocks.append(_grid_block(InterPhase.SP, order, SPVariant.OPTIMIZED))
    for order in PhaseOrder:
        blocks.append(_grid_block(InterPhase.PP, order, None))
    return tuple(blocks)


def enumerate_design_space(
    *, include_sp_optimized: bool = False
) -> Iterator[Dataflow]:
    """Every choice counted by the paper's 6,656 (optionally + SP-Opt).

    SP-Optimized instances are loop-order/annotation duplicates of
    SP-Generic element-granularity dataflows, so they are excluded from the
    headline count by default.

    Candidates come from the cached grid blocks, in the same sequence as
    a per-pair :func:`enumerate_pairs` walk over the blocks (asserted in
    the tests against that walk, kept in ``tests/oracles/``).
    """
    for block in candidate_grid(include_sp_optimized=include_sp_optimized):
        yield from block.dataflows()


def design_space_stream(
    evaluator: "DataflowEvaluator", *, include_sp_optimized: bool = False
) -> "CandidateStream":
    """The paper's full 6,656-point space as a lazy fingerprinted stream.

    Binds :func:`enumerate_design_space` to one evaluation context so the
    whole space can be fed straight to
    :meth:`~repro.core.evaluator.DataflowEvaluator.evaluate` (or any
    budgeted slice of it) without ever materializing a candidate list —
    fingerprints are attached on the way past, and previously persisted
    points are filtered out during batch assembly.
    """
    # Imported here: evaluator sits above enumeration in the layering.
    from .evaluator import CandidateStream

    return CandidateStream(
        evaluator,
        lambda: (
            (df, None)
            for df in enumerate_design_space(
                include_sp_optimized=include_sp_optimized
            )
        ),
        label="design-space",
    )


@functools.lru_cache(maxsize=None)
def _design_space_counts() -> tuple[tuple[str, int], ...]:
    counts: dict[str, int] = {"Seq": 0, "SP": 0, "PP": 0}
    for inter in (InterPhase.SEQ, InterPhase.SP, InterPhase.PP):
        variant = SPVariant.GENERIC if inter is InterPhase.SP else None
        counts[inter.value] = sum(
            int(pair_mask(inter, order, variant).sum()) for order in PhaseOrder
        )
    counts["SP-Optimized"] = sum(
        int(pair_mask(InterPhase.SP, order, SPVariant.OPTIMIZED).sum())
        for order in PhaseOrder
    )
    counts["total"] = counts["Seq"] + counts["SP"] + counts["PP"]
    return tuple(counts.items())


def count_design_space() -> dict[str, int]:
    """Counts per inter-phase strategy plus the paper-comparable total.

    Derived analytically from the grid legality masks in one cached pass —
    no candidate is ever constructed (the legacy implementation walked the
    whole space twice).  Returns a fresh dict each call.
    """
    return dict(_design_space_counts())


@dataclass(frozen=True)
class TableIIRow:
    """One row of the paper's Table II, encoded as wildcard pair patterns."""

    row: int
    inter: InterPhase
    order: PhaseOrder
    pairs: tuple[tuple[str, str], ...]  # (agg pattern, cmb pattern)
    granularity: Granularity | None
    sp_variant: SPVariant | None
    remark: str


# Verbatim transcription of Table II's loop-order enumeration.  Row 1 (Seq)
# admits all pairs and row 3 (SP-Generic) reuses rows 4-9, so only the
# explicitly-enumerated rows appear here.  Tests assert that our
# granularity-inference rule reproduces each row exactly.
TABLE_II_ROWS: tuple[TableIIRow, ...] = (
    TableIIRow(
        2,
        InterPhase.SP,
        PhaseOrder.AC,
        (("VxFxNt", "VxFxGt"), ("FxVxNt", "FxVxGt")),
        Granularity.ELEMENT,
        SPVariant.OPTIMIZED,
        "SP-Optimized: intermediate stays in PE RF; EnGN-style",
    ),
    TableIIRow(
        2,
        InterPhase.SP,
        PhaseOrder.CA,
        (("NxFxVt", "VxGxFt"), ("FxNxVt", "GxVxFt")),
        Granularity.ELEMENT,
        SPVariant.OPTIMIZED,
        "SP-Optimized, Combination-first",
    ),
    TableIIRow(
        4,
        InterPhase.PP,
        PhaseOrder.AC,
        (("VxFxNx", "VxFxGx"), ("FxVxNx", "FxVxGx")),
        Granularity.ELEMENT,
        None,
        "Element(s)-wise granularity",
    ),
    TableIIRow(
        5,
        InterPhase.PP,
        PhaseOrder.AC,
        (("VxFxNx", "VxGxFx"), ("VxNxFx", "VxGxFx"), ("VxNxFx", "VxFxGx")),
        Granularity.ROW,
        None,
        "Row(s)-wise granularity; HyGCN dataflow lives here",
    ),
    TableIIRow(
        6,
        InterPhase.PP,
        PhaseOrder.AC,
        (("FxVxNx", "FxGxVx"), ("FxNxVx", "FxGxVx"), ("FxNxVx", "FxVxGx")),
        Granularity.COLUMN,
        None,
        "Column(s)-wise granularity",
    ),
    TableIIRow(
        7,
        InterPhase.PP,
        PhaseOrder.CA,
        (("NxFxVx", "VxGxFx"), ("FxNxVx", "GxVxFx")),
        Granularity.ELEMENT,
        None,
        "Element(s)-wise granularity; V x G becomes N x F for Agg",
    ),
    TableIIRow(
        8,
        InterPhase.PP,
        PhaseOrder.CA,
        (("NxVxFx", "VxGxFx"), ("NxVxFx", "VxFxGx"), ("NxFxVx", "VxFxGx")),
        Granularity.ROW,
        None,
        "Row(s)-wise granularity; Combination-first",
    ),
    TableIIRow(
        9,
        InterPhase.PP,
        PhaseOrder.CA,
        (("FxVxNx", "GxVxFx"), ("FxVxNx", "GxFxVx"), ("FxNxVx", "GxFxVx")),
        Granularity.COLUMN,
        None,
        "Column(s)-wise granularity; AWB-GCN dataflow lives here",
    ),
)


def table_ii_order_pairs(
    inter: InterPhase, order: PhaseOrder
) -> set[tuple[tuple, tuple]]:
    """Loop-order pairs Table II enumerates for (inter, order)."""
    out: set[tuple[tuple, tuple]] = set()
    for row in TABLE_II_ROWS:
        if row.inter is not inter or row.order is not order:
            continue
        if inter is InterPhase.SP and row.sp_variant is not SPVariant.OPTIMIZED:
            continue
        for agg_pat, cmb_pat in row.pairs:
            agg = IntraDataflow.parse(agg_pat, Phase.AGGREGATION)
            cmb = IntraDataflow.parse(cmb_pat, Phase.COMBINATION)
            out.add((agg.order, cmb.order))
    return out
