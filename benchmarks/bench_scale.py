#!/usr/bin/env python
"""Large-graph tier benchmark: memory-bounded partitioned evaluation.

One measurement, appended to the ``BENCH_scale.json`` trajectory at the
repo root (override with ``--out``): a seeded RMAT power-law graph
(``--vertices``, default one million) evaluated block-partitioned
(``{"budget_bytes": --partition-budget}``) under an enforced
``TileStats`` byte budget (``--budget``, exported as
``REPRO_TILESTATS_BUDGET`` for the run).  Records generation and
evaluation wall-clock, block count, peak process RSS, and the registry's
memory counters.

``--check`` exits non-zero unless the budget held: the run's aggregate
``peak_nbytes <= --budget``.  ``--vertices 50000`` keeps the CI smoke
cheap.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py --check
    PYTHONPATH=src python benchmarks/bench_scale.py --vertices 50000 --check
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.core.omega import run_gnn_dataflow
from repro.core.partitioned import resolve_partition
from repro.core.taxonomy import parse_dataflow
from repro.core.workload import GNNWorkload
from repro.graphs.generators import web_scale

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
DEFAULT_VERTICES = 1_000_000
EDGES_PER_VERTEX = 16
DEFAULT_BUDGET = 1 << 26  # 64 MiB of cached sparsity statistics
DEFAULT_PARTITION_BUDGET = 1 << 26  # per-block streamed working set
DATAFLOW = "Seq_AC(VsNtFt, VsGtFt)"
IN_FEATURES = 32
OUT_FEATURES = 16


def _peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_large_graph(
    vertices: int,
    edges: int,
    budget: int,
    partition_budget: int,
    seed: int,
) -> dict:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    graph = web_scale(rng, vertices, edges, name=f"web-{vertices}")
    generate_s = time.perf_counter() - t0

    wl = GNNWorkload(
        graph=graph,
        in_features=IN_FEATURES,
        out_features=OUT_FEATURES,
        name=graph.name,
    )
    hw = AcceleratorConfig(num_pes=512)
    df = parse_dataflow(DATAFLOW)
    plan = resolve_partition(wl, hw, {"budget_bytes": partition_budget})

    t0 = time.perf_counter()
    res = run_gnn_dataflow(wl, df, hw, partition=plan)
    evaluate_s = time.perf_counter() - t0
    mem = plan.registry.memory_counters()

    return {
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "max_degree": int(np.diff(graph.vertex_ptr).max()),
        },
        "dataflow": DATAFLOW,
        "features": [IN_FEATURES, OUT_FEATURES],
        "num_blocks": plan.num_blocks,
        "generate_s": round(generate_s, 2),
        "evaluate_s": round(evaluate_s, 2),
        "total_cycles": res.total_cycles,
        "energy_pj": round(res.energy.total_pj, 1),
        "tilestats_budget_bytes": budget,
        "partition_budget_bytes": partition_budget,
        "tilestats": mem,
        "peak_rss_mib": round(_peak_rss_mib(), 1),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="trajectory JSON to append to (default: repo root)")
    ap.add_argument("--vertices", type=int, default=DEFAULT_VERTICES,
                    help="large-graph vertex count (default: 1M; use a "
                         "smaller value for CI smoke)")
    ap.add_argument("--edges", type=int, default=None,
                    help=f"large-graph edge target (default: "
                         f"{EDGES_PER_VERTEX}x vertices)")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    metavar="BYTES",
                    help="TileStats byte budget, exported as "
                         "REPRO_TILESTATS_BUDGET for the large-graph run "
                         "(default: 64 MiB)")
    ap.add_argument("--partition-budget", type=int,
                    default=DEFAULT_PARTITION_BUDGET, metavar="BYTES",
                    help="per-block streamed working-set budget for the "
                         "partitioner (default: 64 MiB)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--check", action="store_true",
                    help="fail unless peak stats memory <= --budget")
    ap.add_argument("--label", default=None,
                    help="entry label (default: large-graph-tier)")
    args = ap.parse_args(argv)
    edges = args.edges if args.edges is not None else (
        EDGES_PER_VERTEX * args.vertices
    )

    # The env knob is how real runs configure the tier, so the bench
    # exercises exactly that path (read at TileStats construction time).
    saved = os.environ.get("REPRO_TILESTATS_BUDGET")
    os.environ["REPRO_TILESTATS_BUDGET"] = str(args.budget)
    try:
        large = bench_large_graph(
            args.vertices, edges, args.budget, args.partition_budget,
            args.seed,
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_TILESTATS_BUDGET", None)
        else:
            os.environ["REPRO_TILESTATS_BUDGET"] = saved

    entry = {
        "label": args.label or "large-graph-tier",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host_cpus": os.cpu_count(),
        "large_graph": large,
    }

    trajectory: list = []
    if args.out.exists():
        trajectory = json.loads(args.out.read_text(encoding="utf-8"))
    trajectory.append(entry)
    args.out.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    mem = large["tilestats"]
    print(f"large graph ({large['graph']['num_vertices']} vertices / "
          f"{large['graph']['num_edges']} edges, max degree "
          f"{large['graph']['max_degree']}): generate "
          f"{large['generate_s']:.1f}s, evaluate {large['evaluate_s']:.1f}s "
          f"across {large['num_blocks']} blocks")
    print(f"stats memory: peak {mem['peak_nbytes'] / (1 << 20):.1f} MiB of "
          f"{args.budget / (1 << 20):.0f} MiB budget, "
          f"{mem['evictions']} evictions; process peak RSS "
          f"{large['peak_rss_mib']:.0f} MiB")
    print(f"trajectory: {args.out} ({len(trajectory)} entries)")

    if args.check and mem["peak_nbytes"] > args.budget:
        print(f"FAIL: peak stats memory {mem['peak_nbytes']} B exceeds "
              f"the {args.budget} B budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
