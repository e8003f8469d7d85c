"""The repository benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (rationale and the layer predictions are in perfbench/README.md):

* ``coarsen``      — whole ``coarsen_influence_graph(G, r=16)`` calls, in memory;
* ``coarsen-disk`` — the same calls with ``space="sublinear"`` (Algorithm 2);
* ``serve-read``   — ``repro serve --sampler stream`` under closed-loop reads
  and ``/maximize``;
* ``serve-live``   — ``repro serve`` on a live graph, mutations beside reads.

Inputs come from ``repro.datasets.load_dataset(name, "exp", seed)`` and are
written to an edge-list file before any timing.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it is a report with every number by name.  ``--smoke`` runs
each workload briefly, traced and untraced, and checks the result schema
and the correctness checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

from common import ROOT, SRC, BenchError, Context

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SMOKE_SECONDS = 2


def _workloads() -> dict:
    import coarsen_bench
    import serve_bench

    return {
        "coarsen": lambda ctx: coarsen_bench.run(ctx, "linear"),
        "coarsen-disk": lambda ctx: coarsen_bench.run(ctx, "sublinear"),
        "serve-read": serve_bench.run_read,
        "serve-live": serve_bench.run_live,
    }


def _spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _metric_line(spec_metrics: list, values: dict, fill: bool) -> dict:
    """The result line's metrics, in BENCHMARK.json order.

    With ``fill`` (per-layer metrics), a declared layer the workload does
    not exercise reads 0.0; an undeclared name is always an error.
    """
    expected = {m["name"] for m in spec_metrics}
    unknown = set(values) - expected
    missing = set() if fill else expected - set(values)
    if unknown or missing:
        raise BenchError(f"metrics {sorted(unknown | missing)} are "
                         "missing or not declared in BENCHMARK.json")
    out = {}
    for metric in spec_metrics:
        value = float(values.get(metric["name"], 0.0))
        if not math.isfinite(value):
            raise BenchError(f"{metric['name']} is not finite")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def run_workload(args) -> int:
    spec = _spec()
    workloads = _workloads()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}")
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ctx = Context(args.seed, args.seconds, args.trace == 1, work)
        outcome = workloads[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = _metric_line(
        spec["per_layer"] if ctx.trace else spec["end_to_end"],
        outcome.layers if ctx.trace else outcome.metrics, fill=ctx.trace)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "report": outcome.report}))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}), flush=True)
    return 0


def smoke() -> int:
    """Every workload, briefly, traced and untraced; checks the result
    line's schema against BENCHMARK.json and that nothing failed."""
    spec = _spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", "0",
                 "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += [f"{label}: {p}" for p in _schema(result, declared)]
            print(f"{label}: attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def _schema(result: dict, declared: list) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        problems.append(f"metric names {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        if metric != {"value": metric.get("value"), "unit": units.get(name)}:
            problems.append(f"{name}: {metric}")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
