#!/usr/bin/env python
"""Search-equivalence benchmark: factored Pareto search vs the full sweep.

For each golden workload (MUTAG and CiteSeer, the datasets archived in
``tests/golden/table5_mutag_citeseer.jsonl``) this script runs

1. the exhaustive 6,656-point design-space sweep, and
2. the factored Pareto search (``repro search --strategy pareto``),

and diffs their best records as canonical JSON: same dataflow, same
score, same first-minimum tie-breaking.  The Pareto side must also stay
within the 25%-of-space evaluation budget, counted via ``EvalStats``
(probe-stage engine runs are reported separately — they are phase
probes, not candidate evaluations).

Results append one entry to the ``BENCH_search.json`` trajectory at the
repo root (override with ``--out``).  ``--check`` exits non-zero on any
best-record mismatch or budget overrun — both gates are deterministic,
so they run on every host; the wall-clock speedup is recorded for the
trajectory but never gated (matching the other benchmarks' auto-skip
policy, hosts with fewer than 4 CPUs are too noisy to time).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_search.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.arch.config import AcceleratorConfig
from repro.core.enumeration import design_space_stream
from repro.core.evaluator import DataflowEvaluator
from repro.core.optimizer import _collect
from repro.core.search import DESIGN_SPACE_SIZE, pareto_search
from repro.core.workload import workload_from_dataset
from repro.graphs.datasets import load_dataset

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_search.json"
DATASETS = ("mutag", "citeseer")
FRACTION_CEILING = 0.25


def _best_record(result) -> dict:
    return {
        "dataflow": result.best_outcome.label,
        "score": result.best_score,
    }


def bench_dataset(name: str, objective: str) -> dict:
    wl = workload_from_dataset(load_dataset(name))
    hw = AcceleratorConfig(num_pes=512)

    ev = DataflowEvaluator(wl, hw)
    t0 = time.perf_counter()
    outcomes = ev.evaluate(design_space_stream(ev))
    exhaustive_s = time.perf_counter() - t0
    exhaustive = _collect(outcomes, objective)
    exhaustive_evals = ev.stats.evaluated

    ev = DataflowEvaluator(wl, hw)
    t0 = time.perf_counter()
    report = pareto_search(ev, objective=objective)
    pareto_s = time.perf_counter() - t0

    return {
        "dataset": name,
        "objective": objective,
        "exhaustive": {
            **_best_record(exhaustive),
            "evaluated": exhaustive_evals,
            "wall_s": round(exhaustive_s, 3),
        },
        "pareto": {
            **_best_record(report.result),
            "evaluated": report.evaluated_delta,
            "probes": report.probes,
            "candidates": len(report.candidates),
            "fraction": round(report.evaluated_fraction, 4),
            "wall_s": round(pareto_s, 3),
        },
        "speedup": round(exhaustive_s / pareto_s, 2) if pareto_s else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="trajectory JSON to append to (default: repo root)")
    ap.add_argument("--objective", default="cycles",
                    choices=("cycles", "energy", "edp"))
    ap.add_argument("--check", action="store_true",
                    help="fail on best-record mismatch or a pareto "
                         f"evaluation fraction above {FRACTION_CEILING}")
    args = ap.parse_args(argv)

    entry = {
        "label": "pareto-vs-exhaustive",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "design_space": DESIGN_SPACE_SIZE,
        "host_cpus": os.cpu_count(),
        "datasets": [bench_dataset(d, args.objective) for d in DATASETS],
    }

    trajectory: list = []
    if args.out.exists():
        trajectory = json.loads(args.out.read_text(encoding="utf-8"))
    trajectory.append(entry)
    args.out.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    ok = True
    for row in entry["datasets"]:
        ex, pa = row["exhaustive"], row["pareto"]
        ex_best = {"dataflow": ex["dataflow"], "score": ex["score"]}
        pa_best = {"dataflow": pa["dataflow"], "score": pa["score"]}
        match = json.dumps(ex_best, sort_keys=True) == json.dumps(
            pa_best, sort_keys=True
        )
        print(f"{row['dataset']}/{row['objective']}: "
              f"exhaustive {ex['dataflow']} ({ex['score']:.6g}, "
              f"{ex['evaluated']} evals, {ex['wall_s']}s) vs "
              f"pareto {pa['dataflow']} ({pa['score']:.6g}, "
              f"{pa['evaluated']} evals = {100 * pa['fraction']:.1f}%, "
              f"{pa['wall_s']}s) -> "
              f"{'MATCH' if match else 'MISMATCH'} at {row['speedup']}x")
        if not match:
            print(f"FAIL: {row['dataset']} best records differ:\n"
                  f"  exhaustive: {json.dumps(ex_best, sort_keys=True)}\n"
                  f"  pareto:     {json.dumps(pa_best, sort_keys=True)}",
                  file=sys.stderr)
            ok = False
        if pa["fraction"] > FRACTION_CEILING:
            print(f"FAIL: {row['dataset']} pareto evaluated "
                  f"{100 * pa['fraction']:.1f}% of the space "
                  f"(ceiling {100 * FRACTION_CEILING:.0f}%)", file=sys.stderr)
            ok = False
    print(f"trajectory: {args.out} ({len(trajectory)} entries)")
    if args.check and not ok:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
