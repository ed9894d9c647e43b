"""The repository's benchmark: three seeded workloads, one process each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fullspace-cora --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a separate traced run.  A wrong output prints
``"correct": false`` and exits 1; a checkout without ``src/repro`` exits 2
without a result.  Scratch files go to ``.perfbench-work/`` and are removed,
except each traced run's spans, kept as ``.perfbench-work/traces/*.json``.

Workloads, and why each was chosen
----------------------------------
Every workload runs in this one process: ``workers=0``, no HTTP, one
client, so the numbers measure the program and not the scheduler of a
2-CPU host.  Each layer the ROADMAP plans to change carries most of the
time in one workload and little in another.

``fullspace-cora``
    All 6,656 design-space points for Cora on the 512-PE paper hardware,
    through one ``DataflowEvaluator`` over ``design_space_stream``, no
    store.  It isolates PP composition (about 90% of the pass is
    ``bounded_pipeline_batch``); dataset synthesis and the store are
    absent.  800 points are unrealizable: one ``ValueError`` bucket, two
    grouped texts.  A request is the whole sweep, one ``evaluate`` call per
    round, so its p50/p99 are over the rounds and track ``wall_s``.
``pareto-campaign``
    One ``run_campaign`` over the 7 Table IV datasets x {256, 512, 1024}
    PEs, source ``pareto``, objective ``cycles``, into a fresh store and
    checkpoint.  It exercises what ``fullspace-cora`` bypasses: dataset
    synthesis (``run_unit`` synthesizes each dataset once per hardware
    point, 21 loads for 7 datasets), Pareto probe/selection, the phase
    engines, store appends and tiling; PP is a small share.  A request is
    one campaign unit, from the previous checkpoint mark to its own.
``serve-mixed``
    A ``DataflowService`` over a store that a ``table5`` campaign (same 7 x
    3 grid) builds during set-up, driven closed-loop by one client, as a
    compiler waits for its answer before it launches the layer.  Per round:
    10,206 exact repeats of Table IV workloads over the three objectives
    (~90%), 567 near hits -- the same datasets synthesized at another seed,
    answered by a linear index scan (~5%) -- and 576 queries on 36 cold
    Erdos-Renyi graphs, whose first query runs a budgeted live search that
    appends to the store while reads go on (~5%).  It is the only workload
    whose latency is feature extraction and index lookup.  A request is
    one query, from call to return.

The seed drives serve-mixed's schedule order, near-graph seeds and cold
graphs (``workloads.serve_plan``); the design-space workloads run the
paper's fixed inputs so their outputs are checked against exact constants.

Metrics
-------
End to end (``--trace 0``): ``wall_s`` (median timed pass), ``setup_s``
(import time plus the median of the rounds' set-ups), ``peak_rss_mib``,
``p50_ms``/``p99_ms`` (per-request latency over all rounds; the sample
count is printed).  Only serve-mixed has enough requests for p99 to leave
ten samples beyond it; on the design-space workloads (2 sweeps, 21 units
per round) p99 is close to the slowest request.  An operation is a
candidate (design-space workloads; failed when its outcome is not ok) or a
query (failed when it raises or is answered ``degraded``).  Simulated
cycles and energy are checked outputs, not metrics: the model is not
validated against hardware.

Per layer (``--trace 1``): an untraced round, a traced round (its wrappers
removed afterwards) and another untraced round.  Each layer reports
``<layer>.self_s`` and ``<layer>.calls``; ``trace.overhead_s`` is the traced
pass minus the mean of the two untraced ones.

==================  ================================  ====================  =======================
Layer               Wraps                             Should move           On
==================  ================================  ====================  =======================
graphs.load         graphs.datasets.load_dataset      wall_s, setup_s       pareto-campaign; set-up
generate            core.enumeration (iteration)      wall_s                fullspace-cora
fingerprint         evaluator.FingerprintFactory      wall_s                fullspace-cora
evaluator           DataflowEvaluator.evaluate        failed share, wall_s  fullspace-cora, pareto
tile                core.tiling.choose_tiles          wall_s                pareto-campaign
engine.spmm/.gemm   simulate_spmm / simulate_gemm     wall_s; p99_ms        pareto; serve-mixed
granules            granularity.granule_series        wall_s, peak_rss_mib  fullspace-cora
compose.pp          pipeline.bounded_pipeline_batch   wall_s, peak_rss_mib  fullspace-cora
compose             interphase._compose_batch         wall_s                fullspace-cora
search.select       search.select_pareto_candidates   wall_s; p99_ms        pareto; serve-mixed
store.open/append/  analysis.store.ResultStore        wall_s; setup_s,      pareto; serve-mixed
error                                                 p99_ms
checkpoint.mark     CampaignCheckpoint.mark           wall_s                pareto-campaign
serving.open/       DataflowService, graph_features,  setup_s; p50_ms       serve-mixed
features/lookup     ParetoIndex.lookup
serving.live        DataflowService._live_search      p99_ms                serve-mixed
==================  ================================  ====================  =======================

Left out, each for a later workload of its own: the HTTP front end; worker
pools, the overlap scheduler and shards (on 2 CPUs they measure the
scheduler); the 1M-vertex RMAT tier, whose cost today is graph generation.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fullspace-cora", "pareto-campaign", "serve-mixed")

# Seconds one round (set-up + pass) takes on a 2-CPU host.  A run makes a
# fixed number of rounds, about --seconds worth, so the work done (and the
# peak memory) does not depend on how fast the host happens to be.
NOMINAL_ROUND_S = {"fullspace-cora": 18.0, "pareto-campaign": 5.0, "serve-mixed": 10.0}


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _problems(workloads, name: str, rounds: list, expected: dict) -> list[str]:
    """Check the first round in full and every later one against it."""
    problems = workloads.check(name, rounds[0].outputs, expected)
    first = rounds[0].outputs["digest"]
    problems += [
        f"round {i}: output digest {r.outputs['digest']} != {first}"
        for i, r in enumerate(rounds[1:], 1)
        if r.outputs["digest"] != first
    ]
    return problems


def _report(rounds: list, problems: list[str], metrics: dict) -> int:
    errors = sum((r.errors for r in rounds), start=Counter())
    kinds = Counter()
    for text, n in errors.items():
        kinds[text.split(":")[0]] += n
    for kind, n in kinds.most_common():
        print(f"failed x{n}: {kind}")
        for text, m in errors.most_common():
            if text.split(":")[0] == kind:
                print(f"  x{m}: {text}")
    for problem in problems[:20]:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _timed(workloads, args, workdir: Path, import_s: float) -> int:
    n = max(2, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    rounds = []
    for i in range(n):
        r = workloads.run_round(args.workload, args.seed, workdir)
        if rounds:  # later rounds are checked by their digest alone
            r.outputs = {"digest": r.outputs["digest"]}
        rounds.append(r)
        print(f"round {i}: setup {r.setup_s:.3f} s, pass {r.wall_s:.3f} s, "
              f"{len(r.latencies_s)} requests")
        gc.collect()
    latencies = [s for r in rounds for s in r.latencies_s]
    print(f"latency samples: {len(latencies)}")
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (import_s + statistics.median(r.setup_s for r in rounds), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "p50_ms": (_quantile(latencies, 0.50) * 1e3, "ms"),
        "p99_ms": (_quantile(latencies, 0.99) * 1e3, "ms"),
    }
    problems = _problems(workloads, args.workload, rounds, workloads.load_expected())
    return _report(
        rounds,
        problems,
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )


def _traced(workloads, args, workdir: Path) -> int:
    from perfbench import layers
    from perfbench.tracer import Tracer

    # Untraced rounds on both sides of the traced one, so host drift
    # shows in neither direction of the overhead.
    before = workloads.run_round(args.workload, args.seed, workdir)
    gc.collect()
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        traced = workloads.run_round(args.workload, args.seed, workdir, tracer)
    gc.collect()
    after = workloads.run_round(args.workload, args.seed, workdir)
    base_wall_s = (before.wall_s + after.wall_s) / 2
    print(f"untraced passes {before.wall_s:.3f} s and {after.wall_s:.3f} s, "
          f"traced pass {traced.wall_s:.3f} s, {len(tracer.spans)} spans")
    _write_spans(tracer, workdir.parent / "traces" / f"{args.workload}-seed{args.seed}.json")
    values = layers.per_layer_metrics(tracer, traced.counts, traced.wall_s, base_wall_s)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    rounds = [before, traced, after]
    problems = _problems(workloads, args.workload, rounds, workloads.load_expected())
    return _report(
        rounds,
        problems,
        {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    )


def _write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.write_text(json.dumps([
        {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
        for name, start, end, parent in tracer.spans
    ]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    import_s = time.perf_counter() - _START
    work = ROOT / ".perfbench-work"
    workdir = work / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        if args.trace:
            return _traced(workloads, args, workdir)
        return _timed(workloads, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
