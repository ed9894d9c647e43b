#!/usr/bin/env python
"""Outcome digests of the full design-space sweep on every Table IV dataset.

For each dataset this script evaluates all 6,656 design-space points on
the 512-PE paper hardware (one ``DataflowEvaluator`` over
``design_space_stream``, no store) and hashes every outcome in sweep
order: its fingerprint, its error text and every field of its
``RunResult`` but the workload and the hardware, which are the sweep's
inputs.  A change to how a cost is computed that keeps every bit keeps
every digest; ``--check`` exits non-zero unless each digest equals the
recorded one.  The sweep time per dataset is printed, never gated.

Run from the repo root::

    PYTHONPATH=src python benchmarks/sweep_digests.py --check
    PYTHONPATH=src python benchmarks/sweep_digests.py --dataset reddit-bin
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time

from repro.arch.config import AcceleratorConfig
from repro.core.enumeration import design_space_stream
from repro.core.evaluator import DataflowEvaluator
from repro.core.workload import workload_from_dataset
from repro.graphs.datasets import load_dataset

# Recorded at commit ffe2dc9, before the float PP lanes ran in regime
# blocks; every later change that claims to keep every bit must match.
RECORDED = {
    "mutag": "cdb6eeee57e7893c",
    "proteins": "40b54bb0d0361ef5",
    "imdb-bin": "ae4fe4b965aac8c2",
    "collab": "f8c7f87901d8aa62",
    "reddit-bin": "228ffdafe59c1c1f",
    "citeseer": "925c3d4579108284",
    "cora": "2c91ba6bba784f45",
}


def outcome_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for o in outcomes:
        result = o.result
        if result is not None:
            result = tuple(
                getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name not in ("workload", "hw")
            )
        digest.update(f"{o.fingerprint}|{o.error!r}|{result!r}\n".encode())
    return digest.hexdigest()[:16]


def sweep(name: str) -> tuple[str, float]:
    ev = DataflowEvaluator(
        workload_from_dataset(load_dataset(name)), AcceleratorConfig(num_pes=512)
    )
    start = time.perf_counter()
    outcomes = ev.evaluate(design_space_stream(ev))
    return outcome_digest(outcomes), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--dataset", action="append", choices=sorted(RECORDED),
        help="sweep only this dataset (repeatable; default: all seven)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every digest equals the recorded one",
    )
    args = parser.parse_args(argv)
    drift = []
    for name in args.dataset or RECORDED:
        got, seconds = sweep(name)
        ok = got == RECORDED[name]
        print(f"{name:<11} {got}  {seconds:6.2f} s  {'ok' if ok else 'DRIFT'}")
        if not ok:
            drift.append(name)
    if args.check and drift:
        print(f"digest drift on: {', '.join(drift)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
