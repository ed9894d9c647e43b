"""Campaign pool-sharing benchmark.

The first-generation evaluator pinned one ``(workload, hw)`` pair per
``multiprocessing`` pool, so an N-dataset campaign paid N pool spawns.
The session's task-keyed pool is spawned once and shared: records stay
byte-identical, and wall-clock drops (asserted only on hosts with enough
CPUs to show it).  Runs as part of the pytest suite.
"""

from __future__ import annotations

import os
import time

from repro.analysis.export import record_to_json
from repro.analysis.report import format_table
from repro.campaign import ExplorationSession
from repro.core.configs import PAPER_CONFIGS
from repro.core.evaluator import DataflowEvaluator

from conftest import CONFIGS

BENCH_DATASETS = ["mutag", "proteins", "imdb-bin"]
WORKERS = 2
MIN_CPUS_FOR_ASSERT = 4


def _candidates():
    return [
        (PAPER_CONFIGS[c].dataflow(), PAPER_CONFIGS[c].hint, {"config": c})
        for c in CONFIGS
    ]


def _per_dataset_pools(workloads, hw512) -> tuple[list[str], float]:
    """Legacy shape: every dataset spawns (and tears down) its own pool."""
    lines: list[str] = []
    start = time.perf_counter()
    for ds in BENCH_DATASETS:
        with DataflowEvaluator(
            workloads[ds], hw512, workers=WORKERS, record_extra={"dataset": ds}
        ) as ev:
            outcomes = ev.evaluate(_candidates())
            lines.extend(record_to_json(ev.to_record(o)) for o in outcomes)
    return lines, time.perf_counter() - start


def _shared_session_pool(workloads, hw512) -> tuple[list[str], float]:
    """Campaign shape: one session, one pool, three dataset contexts."""
    lines: list[str] = []
    start = time.perf_counter()
    with ExplorationSession(workers=WORKERS) as session:
        for ds in BENCH_DATASETS:
            ev = session.evaluator(
                workloads[ds], hw512, record_extra={"dataset": ds}
            )
            outcomes = ev.evaluate(_candidates())
            lines.extend(record_to_json(ev.to_record(o)) for o in outcomes)
    return lines, time.perf_counter() - start


def test_shared_session_pool_beats_per_dataset_pools(
    benchmark, workloads, hw512
):
    per_dataset, per_dataset_s = _per_dataset_pools(workloads, hw512)

    shared, shared_s = benchmark.pedantic(
        lambda: _shared_session_pool(workloads, hw512), rounds=1, iterations=1
    )

    assert shared == per_dataset  # byte-identical records, either pooling
    assert len(shared) == len(BENCH_DATASETS) * len(CONFIGS)

    speedup = per_dataset_s / shared_s if shared_s > 0 else float("inf")
    print()
    print(
        format_table(
            ["pooling", "pool spawns", "seconds", "speedup"],
            [
                [
                    f"per-dataset ({len(BENCH_DATASETS)} pools)",
                    len(BENCH_DATASETS),
                    per_dataset_s,
                    1.0,
                ],
                ["shared session (1 pool)", 1, shared_s, speedup],
            ],
            title=(
                f"Table V sweep over {len(BENCH_DATASETS)} datasets, "
                f"{WORKERS} workers @ 512 PEs"
            ),
            float_fmt="{:.2f}",
        )
    )
    cpus = os.cpu_count() or 1
    if cpus < MIN_CPUS_FOR_ASSERT:
        print(
            f"(only {cpus} CPU(s) visible: wall-clock assertion not "
            "meaningful on this host)"
        )
        return
    assert speedup > 1.0, (
        f"expected the shared session pool to amortize "
        f"{len(BENCH_DATASETS) - 1} pool spawns, measured {speedup:.2f}x"
    )
