"""Distributed campaign benchmark: sequential vs sharded wall-clock.

One measurement, run as a trajectory (``main()``): the exhaustive
campaign over the 7 Table IV datasets x {256, 512, 1024} PEs (21 units,
8-11 s sequentially on a 2-vCPU host, so shard work dominates
process spawn) executed

1. sequentially in-process (the reference),
2. as a 2-shard ``DistributedCoordinator`` fleet, and
3. as a 4-shard fleet,

asserting for every fleet width that the merged report's
``canonical_json`` is byte-identical to the sequential run's, and
recording per-width wall-clock plus the store/checkpoint merge time.
The >= 1.1x speedup floor only applies under ``--check`` on hosts with
at least ``MIN_CPUS_FOR_ASSERT`` CPUs — a 1- or 2-CPU container runs
the benchmark for the identity guarantee and the trajectory entry, not
the scaling claim (shard subprocesses just time-slice the cores there).

Run from the repo root so the trajectory lands next to the others::

    PYTHONPATH=src python benchmarks/bench_distributed.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    CandidateSource,
    HardwarePoint,
    run_campaign,
)
from repro.distributed import DistributedCoordinator
from repro.graphs.datasets import dataset_names

BENCH_DATASETS = dataset_names()
BENCH_PES = (256, 512, 1024)
SHARD_WIDTHS = (2, 4)
SPEEDUP_TARGET = 1.1
MIN_CPUS_FOR_ASSERT = 4

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"


def bench_spec() -> CampaignSpec:
    return CampaignSpec(
        name="bench-dist",
        datasets=list(BENCH_DATASETS),
        source=CandidateSource("exhaustive"),
        hardware=[HardwarePoint(num_pes=p) for p in BENCH_PES],
    )


def bench_distributed(*, widths=SHARD_WIDTHS, policy="cost-weighted") -> dict:
    """Sequential reference vs N-shard fleets in a scratch directory."""
    spec = bench_spec()
    start = time.perf_counter()
    reference = run_campaign(spec)
    sequential_s = time.perf_counter() - start
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as scratch:
        scratch = Path(scratch)
        spec_path = spec.save(scratch / "spec.json")
        for width in widths:
            start = time.perf_counter()
            result = DistributedCoordinator(
                spec_path,
                shards=width,
                policy=policy,
                out=scratch / f"w{width}.jsonl",
                checkpoint=scratch / f"w{width}.ckpt.jsonl",
                heartbeat_interval=0.2,
            ).run()
            total_s = time.perf_counter() - start
            assert (
                result.report.canonical_json() == reference.canonical_json()
            ), f"{width}-shard merged report diverged from sequential"
            # Merge time alone: replay the fold-back on the shard files.
            remerger = DistributedCoordinator(
                spec_path,
                shards=width,
                policy=policy,
                out=scratch / f"w{width}.jsonl",
                checkpoint=scratch / f"w{width}.ckpt.jsonl",
            )
            start = time.perf_counter()
            result2 = remerger._merge()
            merge_s = time.perf_counter() - start
            assert result2.report.digest() == reference.digest()
            runs.append(
                {
                    "shards": width,
                    "total_s": round(total_s, 6),
                    "merge_s": round(merge_s, 6),
                    "speedup": (
                        round(sequential_s / total_s, 2)
                        if total_s
                        else float("inf")
                    ),
                    "evaluated": result.stat_total("evaluated"),
                    "store_skips": result.stat_total("store_skips"),
                }
            )
    return {
        "datasets": list(BENCH_DATASETS),
        "pes": list(BENCH_PES),
        "source": spec.source.kind,
        "units": len(spec.unit_keys()),
        "policy": policy,
        "sequential_s": round(sequential_s, 6),
        "runs": runs,
        "reports_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="sequential vs sharded campaign wall-clock"
    )
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="trajectory JSON to append to (default: repo root)")
    ap.add_argument("--check", action="store_true",
                    help="fail unless merged reports are identical and (on "
                         f">= {MIN_CPUS_FOR_ASSERT}-CPU hosts) the best "
                         f"fleet meets the {SPEEDUP_TARGET}x floor")
    ap.add_argument("--label", default=None,
                    help="entry label (default: distributed-coordinator)")
    ap.add_argument("--policy", default="cost-weighted",
                    choices=("round-robin", "cost-weighted"))
    args = ap.parse_args(argv)

    result = bench_distributed(policy=args.policy)
    entry = {
        "label": args.label or "distributed-coordinator",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host_cpus": os.cpu_count(),
        "distributed": result,
    }
    trajectory: list = []
    if args.out.exists():
        trajectory = json.loads(args.out.read_text(encoding="utf-8"))
    trajectory.append(entry)
    args.out.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    print(
        f"distributed campaign ({result['units']} {result['source']} units, "
        f"{args.policy}): sequential {result['sequential_s']:.3f}s"
    )
    for run in result["runs"]:
        print(
            f"  {run['shards']} shards: {run['total_s']:.3f}s "
            f"({run['speedup']:.2f}x), merge {run['merge_s']:.3f}s, "
            f"{run['evaluated']} evals, {run['store_skips']} store skips"
        )
    print(f"trajectory: {args.out} ({len(trajectory)} entries)")

    if args.check:
        if any(run["store_skips"] for run in result["runs"]):
            print("FAIL: a fleet re-persisted records", file=sys.stderr)
            return 1
        cpus = os.cpu_count() or 1
        if cpus < MIN_CPUS_FOR_ASSERT:
            print(
                f"(only {cpus} CPU(s) visible: {SPEEDUP_TARGET}x speedup "
                "floor skipped on this host)"
            )
            return 0
        best = max(run["speedup"] for run in result["runs"])
        if best < SPEEDUP_TARGET:
            print(
                f"FAIL: best fleet speedup {best}x < "
                f"{SPEEDUP_TARGET}x on {cpus} CPUs",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
