"""Conformance matrix: every campaign source kind, with and without a store.

Each of the 7 :data:`~repro.campaign.spec.SOURCE_KINDS` runs a small MUTAG
spec, fresh and resumed.  Without a store a run resumes from its
checkpoint; with one, from the store's warm cache.  Every cell must
succeed, a resumed run must evaluate nothing, and the report digest must
be the one a bare run (no store, no checkpoint) gives.
"""

from __future__ import annotations

import pytest

from repro.analysis.store import ResultStore
from repro.campaign import (
    CampaignCheckpoint,
    CampaignSpec,
    CandidateSource,
    HardwarePoint,
    run_campaign,
)
from repro.campaign.spec import SOURCE_KINDS

PARAMS = {
    "table5": {"configs": ["Seq1", "SP1", "PP1"]},
    "exhaustive": {},
    "pareto": {"max_evals": 24},
    "random": {"n": 8},
    "pe_allocation": {"config_names": ["PP1"], "splits": [0.25, 0.5]},
    "num_pes": {"pe_counts": [64, 128], "config_names": ["Seq1", "SP1"]},
    "bandwidth": {"bandwidths": [64, 32], "config_names": ["Seq1"]},
}


def conformance_spec(kind: str) -> CampaignSpec:
    # ``num_pes`` sweeps its own PE counts and takes no hardware grid.
    grid = {} if kind == "num_pes" else {"hardware": [HardwarePoint(num_pes=64)]}
    return CampaignSpec(
        name=f"conformance-{kind}",
        datasets=["mutag"],
        source=CandidateSource(kind, PARAMS[kind]),
        **grid,
    )


def run(spec, tmp_path, with_store):
    if with_store:
        store = ResultStore(tmp_path / "store.jsonl")
        try:
            return run_campaign(spec, store=store)
        finally:
            store.close()
    ckpt = CampaignCheckpoint(tmp_path / "run.ckpt.jsonl", spec.fingerprint())
    try:
        return run_campaign(spec, checkpoint=ckpt)
    finally:
        ckpt.close()


@pytest.fixture(scope="module")
def bare_digest():
    digests = {}

    def get(kind):
        if kind not in digests:
            digests[kind] = run_campaign(conformance_spec(kind)).digest()
        return digests[kind]

    return get


def test_matrix_covers_every_source_kind():
    assert set(PARAMS) == set(SOURCE_KINDS)


@pytest.mark.parametrize("phase", ["fresh", "resume"])
@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("kind", sorted(SOURCE_KINDS))
def test_cell(kind, with_store, phase, tmp_path, bare_digest):
    spec = conformance_spec(kind)
    report = run(spec, tmp_path, with_store)
    assert report.stats["evaluated"] > 0
    if with_store:
        assert report.store_records > 0
    if phase == "resume":
        report = run(spec, tmp_path, with_store)
        assert report.stats["evaluated"] == 0
        if not with_store:
            assert all(unit.resumed for unit in report.units)
    assert report.digest() == bare_digest(kind)
