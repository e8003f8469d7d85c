"""Parent side of the ``coarsen`` and ``coarsen-disk`` workloads.

Writes the workload's graph for the workload seed to an edge list, starts
:mod:`coarsen_worker` in fresh processes (several set-ups, the last of
which also runs the timed calls), then checks every call's output.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from common import (
    HERE,
    Outcome,
    SpeedScale,
    finish,
    median,
    spawn,
    stop,
    wait_for_line,
    write_graph,
)
from coarsen_worker import R

#: In memory, the twitter-2010 analogue (n=20,000, m~826k; H keeps ~25% of
#: the edges, one call ~0.45 s).  On disk a call on that graph takes ~4.5 s,
#: too few per run to be steady on a shared 2-core box, so Algorithm 2 runs
#: on the soc-pokec analogue (n=8,000, m~200k; H keeps ~43%), where one call
#: takes ~0.5 s and the semi-external SCC kernel still does ~85% of it.
GRAPHS = {"linear": "twitter-2010", "sublinear": "soc-pokec"}
#: Fresh worker processes per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Distinct coarsening seeds per run, cycled through by the timed calls.
N_SEEDS = 4
#: Relative tolerance for coarse probabilities, disk path vs in memory.
PROB_RTOL = 1e-12


def coarsen_seeds(seed: int) -> list:
    rng = np.random.default_rng([seed, 0xC0A2])
    return [int(s) for s in rng.integers(0, 2**31, size=N_SEEDS)]


def run(ctx, space: str) -> Outcome:
    edges = os.path.join(ctx.work, "graph.txt")
    write_graph(GRAPHS[space], ctx.seed, edges)
    seeds = coarsen_seeds(ctx.seed)
    setups = []
    setup_speed = SpeedScale()
    n_setups = 1 if ctx.trace else SETUPS
    for i in range(n_setups):
        timed = i == n_setups - 1
        workdir = os.path.join(ctx.work, f"proc{i}")
        os.mkdir(workdir)
        setup_speed.sample(reps=5)
        start = time.perf_counter()
        proc = spawn([os.path.join(HERE, "coarsen_worker.py"), edges,
                      workdir, space, ",".join(map(str, seeds)),
                      str(ctx.seconds if timed else 0),
                      "1" if ctx.trace else "0"],
                     os.path.join(workdir, "stderr.txt"))
        try:
            wait_for_line(proc, "ready")
            setups.append(time.perf_counter() - start)
            if timed:
                wait_for_line(proc, "done",
                              timeout=ctx.seconds + 150.0)
        except BaseException:
            stop(proc)
            raise
        finish(proc)
    with open(os.path.join(workdir, "calls.json"), encoding="utf-8") as f:
        report = json.load(f)
    calls = report["calls"]
    if space == "linear":
        failed = _check_linear(calls)
    else:
        failed = _check_disk(calls, edges, workdir)

    out = Outcome(attempted=len(calls), failed=failed)
    untraced = [c["latency_ms"] for c in calls if not c["traced"]]
    speed = SpeedScale([c["ref_ms"] for c in calls])
    ops_per_s = 1e3 * len(untraced) / sum(untraced)
    out.metrics = {
        "setup_s": median(setups) * setup_speed.factor,
        "peak_rss_mb": report["peak_rss_mb"],
        "p50_ms": median(untraced) * speed.factor,
        "ops_per_s": ops_per_s / speed.factor,
    }
    out.report = {
        "graph": {"name": GRAPHS[space], "n": report["n"], "m": report["m"]},
        "space": space, "r": R, "seeds": seeds,
        "speed_factor": speed.factor,
        "setup_speed_factor": setup_speed.factor,
        "raw_setup_s": median(setups),
        "setup_s_each": setups,
        "calls": len(calls),
        "coarsen_p50_ms": median(untraced),
        "calls_per_s": ops_per_s,
        "coarse_edge_ratio": calls[0]["coarse_edges"] / report["m"],
    }
    if ctx.trace:
        out.layers, extra = _layers(calls, untraced)
        out.report.update(extra)
    return out


def _check_linear(calls: list) -> int:
    """Per-call facts from the worker, plus: a seed's repeats match."""
    first: dict = {}
    failed = 0
    for call in calls:
        digest = first.setdefault(call["seed"], call["digest"])
        if not call["ok"] or call["digest"] != digest:
            failed += 1
    return failed


def _check_disk(calls: list, edges: str, workdir: str) -> int:
    """Each disk result must equal in-memory Algorithm 1 for its seed."""
    from repro import coarsen_influence_graph
    from repro.graph import InfluenceGraph, read_edge_list
    from repro.storage import TripletStore

    graph = read_edge_list(edges)
    references: dict = {}
    failed = 0
    for index, call in enumerate(calls):
        seed = call["seed"]
        if seed not in references:
            references[seed] = coarsen_influence_graph(graph, R, rng=seed)
        ref = references[seed]
        pi = np.load(os.path.join(workdir, f"pi-{index}.npy"))
        weights = np.load(os.path.join(workdir, f"w-{index}.npy"))
        tails, heads, probs = TripletStore.open(
            os.path.join(workdir, call["store"])).read_all()
        coarse = InfluenceGraph.from_edges(weights.size, tails, heads, probs,
                                           weights=weights)
        same = (call["ok"]
                and np.array_equal(pi, ref.pi)
                and np.array_equal(coarse.weights, ref.coarse.weights)
                and np.array_equal(coarse.indptr, ref.coarse.indptr)
                and np.array_equal(coarse.heads, ref.coarse.heads)
                and bool(np.all(np.abs(coarse.probs - ref.coarse.probs)
                                <= PROB_RTOL * np.abs(ref.coarse.probs))))
        failed += not same
    return failed


def _layers(calls: list, untraced: list) -> "tuple[dict, dict]":
    traced = [c["trace"] for c in calls if c["traced"]]

    def per_call(fn) -> float:
        return median([fn(t) for t in traced])

    def layer(name: str) -> float:
        return per_call(lambda t: t["layers_ms"].get(name, 0.0))

    traced_p50 = per_call(lambda t: t["wall_ms"])
    spans_ms = per_call(lambda t: sum(t["layers_ms"].values()))
    stages_ms = per_call(lambda t: sum(t["stage_ms"].values()))
    layers = {
        "diffusion.sample_ms": layer("diffusion.sample"),
        "scc.kernel_ms": layer("scc.kernel"),
        "scc.rounds": per_call(lambda t: t["scc_rounds"]),
        "scc.semi_external_ms": layer("scc.semi_external"),
        "partition.meet_ms": layer("partition.meet"),
        "core.contract_ms": layer("core.contract"),
        "core.coarse_edge_ratio": per_call(lambda t: t["edge_ratio"]),
        "storage.read_mb": per_call(lambda t: t["read_mb"]),
        "storage.write_mb": per_call(lambda t: t["write_mb"]),
        "trace.coverage": per_call(lambda t: t["coverage"]),
        "trace.overhead_pct": 100.0 * (traced_p50 - median(untraced))
        / median(untraced),
        "trace.stage_agreement": per_call(
            lambda t: sum(t["layers_ms"].values())
            / sum(t["stage_ms"].values())),
    }
    extra = {
        "traced_calls": len(traced),
        "traced_p50_ms": traced_p50,
        "untraced_p50_ms": median(untraced),
        "span_sum_ms": spans_ms,
        "stage_seconds_sum_ms": stages_ms,
        "stage_ms_p50": {
            key: per_call(lambda t, key=key: t["stage_ms"].get(key, 0.0))
            for key in ("sample", "scc", "meet", "contract")},
    }
    return layers, extra

