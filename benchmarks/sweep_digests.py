#!/usr/bin/env python
"""Outcome digests of the full design-space sweep on every Table IV dataset.

For each dataset this script evaluates all 6,656 design-space points on
the 512-PE paper hardware (one ``DataflowEvaluator`` over
``design_space_stream``, no store) and hashes every outcome in sweep
order: its fingerprint, its error text and every field of its
``RunResult`` but the workload and the hardware, which are the sweep's
inputs.  Three datasets are also swept at 256 and 1,024 PEs (other PP
partition budgets) and, at 512 PEs, with the SP-Optimized blocks
included (the coupled SP tiling that sets ``T_N = 1``).  A change to how
a cost is computed that keeps every bit keeps every digest; ``--check``
exits non-zero unless each digest equals the recorded one.  The sweep
time per case is printed, never gated.

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

# (dataset, num_pes, include_sp_optimized) -> digest.  The 512-PE
# 6,656-point digests were recorded at commit ffe2dc9, before the float PP
# lanes ran in regime blocks; the other cases at commit e041ca0, before
# phase preparation ran once per batch.  Every later change that claims
# to keep every bit must match.
RECORDED_512 = {
    "mutag": "cdb6eeee57e7893c",
    "proteins": "40b54bb0d0361ef5",
    "imdb-bin": "ae4fe4b965aac8c2",
    "collab": "f8c7f87901d8aa62",
    "reddit-bin": "228ffdafe59c1c1f",
    "citeseer": "925c3d4579108284",
    "cora": "2c91ba6bba784f45",
}
RECORDED = {(name, 512, False): digest for name, digest in RECORDED_512.items()}
RECORDED.update({
    ("mutag", 512, True): "01adbe3355515abc",
    ("citeseer", 512, True): "eb27aa4b9c9b0d24",
    ("cora", 512, True): "da63833376a948d7",
    ("mutag", 256, False): "6d43dc66a01648f8",
    ("citeseer", 256, False): "4888703c8ce78e42",
    ("cora", 256, False): "9dfb95e7cf80c94c",
    ("mutag", 1024, False): "f097fede6038d396",
    ("citeseer", 1024, False): "cf3d9c28dcbc9bc7",
    ("cora", 1024, False): "22bbdebec78728cd",
})


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


def sweep(wl, num_pes: int, sp_opt: bool) -> tuple[str, float]:
    ev = DataflowEvaluator(wl, AcceleratorConfig(num_pes=num_pes))
    start = time.perf_counter()
    outcomes = ev.evaluate(design_space_stream(ev, include_sp_optimized=sp_opt))
    return outcome_digest(outcomes), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--dataset", action="append", choices=sorted(RECORDED_512),
        help="sweep only this dataset's cases (repeatable; default: all seven)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every digest equals the recorded one",
    )
    args = parser.parse_args(argv)
    drift = []
    for name in args.dataset or RECORDED_512:
        wl = workload_from_dataset(load_dataset(name))
        for (case_name, num_pes, sp_opt), want in RECORDED.items():
            if case_name != name:
                continue
            got, seconds = sweep(wl, num_pes, sp_opt)
            label = f"{name}@{num_pes}{'+spopt' if sp_opt else ''}"
            ok = got == want
            print(f"{label:<20} {got}  {seconds:6.2f} s  {'ok' if ok else 'DRIFT'}")
            if not ok:
                drift.append(label)
    if args.check and drift:
        print(f"digest drift on: {', '.join(drift)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
