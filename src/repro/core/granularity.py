"""Pipelining granularity: Pel sizing and granule-series construction.

The paper (§IV-D, Table III) pipelines the intermediate matrix at one of
three granularities; ``Pel`` is the number of intermediate elements per
pipeline step:

========  =======================  =========================
grain     granule shape            Pel
========  =======================  =========================
element   T_Vmax x T_Fmax tile     ``T_Vmax * T_Fmax``
row       T_Vmax whole rows        ``T_Vmax * F``
column    T_Fmax whole columns     ``V * T_Fmax``
========  =======================  =========================

(for CA the column axis binds to G).  ``T_Dimmax`` is the larger of the two
phases' tile sizes on the shared axis — the paper only considers mappings
where the larger is a multiple of the smaller, and our construction chunks
*per-unit* cost arrays so any pair of tile sizes composes consistently.

This module turns the two phase engines' per-unit cost views into aligned
producer/consumer granule-time series for :mod:`repro.core.pipeline`.  Row
and column grains are dense arrays of chunk sums.  An element-grain series
is a :class:`GridSeries`: the grid ``np.outer(r, c) / total`` of its row and
column chunk sums, kept in that factored form, because the grid runs to
millions of granules and the pipeline kernel composes it from the shares.
A grid under ``_DENSE_GRID`` granules comes back dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine.gemm import GemmResult
from ..engine.spmm import SpmmResult
# Re-exported from the engine layer (the one shared implementation —
# engine/stats.py — since engine cannot import core): summing per-unit
# cost arrays into granule chunks is the series-building primitive both
# layers use.
from ..engine.stats import chunk_sums
from .taxonomy import Dataflow, Granularity, PhaseOrder
from .legality import _row_major  # shared definition of walk direction
from .workload import GNNWorkload

__all__ = [
    "GranuleSpec",
    "GridSeries",
    "make_granule_spec",
    "granule_series",
    "chunk_sums",
]

# Element grids of fewer granules are returned dense.  On a small grid the
# pipeline kernel's checks on the shares cost more than they save, and
# building it here, as before, kept the peak RSS of campaigns full of small
# grids where it was (EXPERIMENTS.md, "Structured element-grain lanes").
_DENSE_GRID = 1 << 14


@dataclass(frozen=True)
class GranuleSpec:
    """Resolved pipelining parameters for one dataflow on one workload."""

    granularity: Granularity
    rows_per_granule: int
    cols_per_granule: int
    rows_extent: int  # V
    cols_extent: int  # F for AC, G for CA
    pel: int
    num_granules: int
    row_major: bool

    @property
    def buffering_elements(self) -> int:
        """PP ping-pong capacity: 2 x Pel (paper Table III)."""
        return 2 * self.pel


def make_granule_spec(
    df: Dataflow,
    wl: GNNWorkload,
    granularity: Granularity,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
) -> GranuleSpec:
    """Compute granule shape/Pel from the realized tile sizes."""
    ac = df.order is PhaseOrder.AC
    rows_extent = wl.num_vertices
    cols_extent = wl.in_features if ac else wl.out_features
    t_v_agg = agg_res.stats.tile_sizes["T_V"]
    t_v_cmb = cmb_res.stats.tile_sizes["T_V"]
    # The intermediate column axis is F under AC (Agg's T_F vs Cmb's T_F)
    # and G under CA (Cmb's T_G vs Agg's T_F, which binds the G extent).
    t_c_agg = agg_res.stats.tile_sizes["T_F"]
    t_c_cmb = cmb_res.stats.tile_sizes["T_F" if ac else "T_G"]
    rows_per = min(rows_extent, max(t_v_agg, t_v_cmb))
    cols_per = min(cols_extent, max(t_c_agg, t_c_cmb))

    if granularity is Granularity.ROW:
        pel = rows_per * cols_extent
        num = math.ceil(rows_extent / rows_per)
    elif granularity is Granularity.COLUMN:
        pel = rows_extent * cols_per
        num = math.ceil(cols_extent / cols_per)
    else:
        pel = rows_per * cols_per
        num = math.ceil(rows_extent / rows_per) * math.ceil(cols_extent / cols_per)
    return GranuleSpec(
        granularity=granularity,
        rows_per_granule=rows_per,
        cols_per_granule=cols_per,
        rows_extent=rows_extent,
        cols_extent=cols_extent,
        pel=pel,
        num_granules=num,
        row_major=_row_major(df.producer, df.order),
    )


@dataclass(frozen=True, eq=False)
class GridSeries:
    """An element-grain granule series, factored: granule ``(i, j)`` takes
    ``r[i] * c[j] / total`` cycles (0 when ``total <= 0``).

    ``r``/``c`` are the row-chunk and column-chunk sums of one phase's
    per-unit cycles, each summing to that phase's ``total``; the grid
    redistributes the total across (row-chunk, col-chunk) cells.  Granules
    run row by row when ``row_major``, else column by column.  ``len`` is
    the granule count and ``np.asarray`` expands the series to the dense
    1-D array in walk order.
    """

    r: np.ndarray
    c: np.ndarray
    total: float
    row_major: bool

    def __len__(self) -> int:
        return self.r.size * self.c.size

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Granule times for every (row share, column share) pair, with the
        grid's own float operations; the shares may come in either order,
        since ``a * b == b * a`` exactly."""
        if self.total <= 0:
            return np.zeros((rows.size, cols.size))
        return np.outer(rows, cols) / self.total

    def walk(self) -> tuple[np.ndarray, np.ndarray]:
        """``(outer, inner)`` shares: the walk runs the inner axis through
        once per outer entry."""
        return (self.r, self.c) if self.row_major else (self.c, self.r)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a GridSeries always expands into a new array")
        # Built in walk order, so ravel copies nothing.
        series = self.cells(*self.walk()).ravel()
        return series if dtype is None else series.astype(dtype, copy=False)


def granule_series(
    df: Dataflow,
    spec: GranuleSpec,
    agg_res: SpmmResult,
    cmb_res: GemmResult,
) -> tuple[np.ndarray, np.ndarray]:
    """(producer_times, consumer_times) per granule, aligned and ordered.

    Producer times say when each granule's data becomes available relative
    to work done; consumer times say how long each granule takes to digest.
    Each series sums to ~its phase's total cycles.  Row and column grains
    return dense arrays; element grain returns a :class:`GridSeries` per
    side, never the grid itself, unless the grid is small.
    """
    ac = df.order is PhaseOrder.AC
    if ac:
        prod_rows = agg_res.per_unit_cycles("row")
        prod_cols = agg_res.per_unit_cycles("col")
        prod_total = float(agg_res.stats.cycles)
        cons_rows = cmb_res.per_unit_cycles("row")
        cons_cols = cmb_res.per_unit_cycles("col", col_extent=spec.cols_extent)
        cons_total = float(cmb_res.stats.cycles)
    else:
        prod_rows = cmb_res.per_unit_cycles("row")
        prod_cols = cmb_res.per_unit_cycles("col", col_extent=spec.cols_extent)
        prod_total = float(cmb_res.stats.cycles)
        cons_rows = agg_res.consumption_per_unit_rows()
        cons_cols = agg_res.per_unit_cycles("col")
        cons_total = float(agg_res.stats.cycles)

    if spec.granularity is Granularity.ROW:
        return (
            chunk_sums(prod_rows, spec.rows_per_granule),
            chunk_sums(cons_rows, spec.rows_per_granule),
        )
    if spec.granularity is Granularity.COLUMN:
        return (
            chunk_sums(prod_cols, spec.cols_per_granule),
            chunk_sums(cons_cols, spec.cols_per_granule),
        )
    return (
        _grid(prod_rows, prod_cols, spec, prod_total),
        _grid(cons_rows, cons_cols, spec, cons_total),
    )


def _grid(
    row_units: np.ndarray, col_units: np.ndarray, spec: GranuleSpec, total: float
) -> "GridSeries | np.ndarray":
    series = GridSeries(
        chunk_sums(row_units, spec.rows_per_granule),
        chunk_sums(col_units, spec.cols_per_granule),
        total,
        spec.row_major,
    )
    return np.asarray(series) if len(series) < _DENSE_GRID else series
