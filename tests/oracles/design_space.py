"""Oracles for candidate generation, fingerprinting and PP composition."""

from __future__ import annotations

import hashlib
import json
from typing import Iterator

from repro.core.enumeration import enumerate_pairs
from repro.core.evaluator import ExplicitTiles, _spec_signature
from repro.core.pipeline import bounded_pipeline
from repro.core.taxonomy import Dataflow, InterPhase, PhaseOrder, SPVariant
from repro.core.tiling import TileHint


def enumerate_design_space_reference(
    *, include_sp_optimized: bool = False
) -> Iterator[Dataflow]:
    """Legacy per-object enumeration of the design space."""
    for order in PhaseOrder:
        yield from enumerate_pairs(InterPhase.SEQ, order)
    for order in PhaseOrder:
        yield from enumerate_pairs(InterPhase.SP, order, sp_variant=SPVariant.GENERIC)
        if include_sp_optimized:
            yield from enumerate_pairs(
                InterPhase.SP, order, sp_variant=SPVariant.OPTIMIZED
            )
    for order in PhaseOrder:
        yield from enumerate_pairs(InterPhase.PP, order)


def _dataflow_signature(df: Dataflow) -> dict:
    return {
        "notation": str(df),
        "sp_variant": df.sp_variant.value if df.sp_variant else None,
        "granularity": df.granularity.value if df.granularity else None,
        "pe_split": df.pe_split,
    }


def fingerprint_reference(
    ctx: dict, df: Dataflow, spec: TileHint | ExplicitTiles | None
) -> str:
    """Legacy fingerprint: sha256 of the whole canonical JSON blob."""
    payload = {
        **ctx,
        "dataflow": _dataflow_signature(df),
        "hint": _spec_signature(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def bounded_pipeline_batch_reference(prod_series, cons_series, *, depth=2):
    """The batched PP kernel as one scalar recurrence per candidate."""
    return [
        bounded_pipeline(p, c, depth=depth)
        for p, c in zip(prod_series, cons_series)
    ]
