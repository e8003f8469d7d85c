"""Program side of the ``coarsen`` and ``coarsen-disk`` workloads.

Runs in a fresh process so its set-up time and peak memory belong to the
workload alone::

    python perfbench/coarsen_worker.py EDGES WORKDIR SPACE SEEDS SECONDS TRACE

It reads the edge list (and, for ``SPACE=sublinear``, streams it into a
``TripletStore`` and drops the in-memory graph), makes one untimed warm-up
call, prints ``ready``, resets the kernel's peak-RSS mark, and then times
whole ``coarsen_influence_graph(G, r=16)`` calls, one per line of
``SEEDS`` in turn, until ``SECONDS`` have passed.  Before each call (and
outside its timing) it times the box-speed reference computation.  With ``SECONDS=0`` it
exits after set-up.  Results go to ``WORKDIR/calls.json``; the disk path
also keeps each call's coarse store and mapping for the parent's check.
With ``TRACE=1`` calls alternate between untraced and traced ones, so the
tracing overhead is measured on the same process and inputs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

from common import covered_seconds, reference_ms, reset_peak_rss, vm_hwm_mb

R = 16


class Program:
    def __init__(self, edges: str, workdir: str, space: str) -> None:
        from repro import coarsen_influence_graph
        from repro.graph import read_edge_list

        self.coarsen = coarsen_influence_graph
        self.workdir = workdir
        self.space = space
        graph = read_edge_list(edges)
        self.n, self.m = graph.n, graph.m
        self.graph = graph
        if space == "sublinear":
            from repro.storage import TripletStore

            self.graph = TripletStore.from_graph(
                graph, os.path.join(workdir, "input.trip"))
            del graph
        gc.collect()

    def call(self, seed: int, index: int):
        if self.space == "linear":
            return self.coarsen(self.graph, R, rng=seed)
        return self.coarsen(self.graph, R, rng=seed, space="sublinear",
                            out_path=os.path.join(self.workdir,
                                                  f"out-{index}.trip"))

    def check(self, result, seed: int, index: int) -> dict:
        """Untimed output facts; the disk path also saves its mapping."""
        import numpy as np

        pi = result.pi
        weights = (result.coarse.weights if self.space == "linear"
                   else result.weights)
        n_coarse = int(weights.size)
        ok = (pi.size == self.n and int(pi.min()) >= 0
              and int(pi.max()) < n_coarse
              and bool(np.all(np.bincount(pi, minlength=n_coarse) > 0))
              and float(weights.sum()) == self.n
              and result.stats.output_edges <= self.m)
        fact = {"seed": seed, "ok": bool(ok),
                "coarse_edges": int(result.stats.output_edges)}
        if self.space == "linear":
            fact["digest"] = result.coarse.digest()
        else:
            np.save(os.path.join(self.workdir, f"pi-{index}.npy"), pi)
            np.save(os.path.join(self.workdir, f"w-{index}.npy"), weights)
            fact["store"] = f"out-{index}.trip"
        return fact


def traced_call(program: Program, rec, seed: int, index: int):
    """One call with the layer wrappers installed; returns per-layer facts."""
    import tracing

    source = program.graph if program.space == "sublinear" else None
    source_read = source.bytes_read if source is not None else 0
    rec.spans.clear()
    rec.stores.clear()
    tracing.install_coarsen(rec)
    try:
        start = time.perf_counter()
        result = program.call(seed, index)
        end = time.perf_counter()
    finally:
        rec.uninstall()
    layers: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, s, e, _req, _info in rec.spans:
        layers[name] = layers.get(name, 0.0) + (e - s) * 1e3
        calls[name] = calls.get(name, 0) + 1
    read = sum(store.bytes_read for store in rec.stores)
    written = sum(store.bytes_written for store in rec.stores)
    if source is not None:
        read += source.bytes_read - source_read
    wall = end - start
    return result, {
        "wall_ms": wall * 1e3,
        "layers_ms": layers,
        "scc_rounds": calls.get("scc.kernel", 0)
        + calls.get("scc.semi_external", 0),
        "coverage": covered_seconds([(s, e) for _, s, e, _, _ in rec.spans],
                                    start, end) / wall,
        "stage_ms": {k: v * 1e3
                     for k, v in result.stats.stage_seconds.items()},
        "read_mb": read / 2**20,
        "write_mb": written / 2**20,
        "edge_ratio": result.stats.output_edges / result.stats.input_edges,
    }


def main(argv: list[str]) -> int:
    edges, workdir, space, seeds_text, seconds_text, trace_text = argv
    seeds = [int(s) for s in seeds_text.split(",")]
    seconds = float(seconds_text)
    trace = trace_text == "1"

    program = Program(edges, workdir, space)
    # The warm-up uses a seed outside the timed list, so no timed call
    # repeats work the warm-up already did.
    program.call(seeds[0] ^ 0x5EED, -1)
    gc.collect()
    print("ready", flush=True)
    if seconds <= 0:
        return 0

    reset_peak_rss()
    rec = None
    if trace:
        import tracing

        rec = tracing.Recorder()
    calls = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < 2:
        seed = seeds[index % len(seeds)]
        gc.collect()
        ref = reference_ms()
        layer = None
        if rec is not None and index % 2:
            result, layer = traced_call(program, rec, seed, index)
            latency = layer["wall_ms"]
        else:
            start = time.perf_counter()
            result = program.call(seed, index)
            latency = (time.perf_counter() - start) * 1e3
        fact = program.check(result, seed, index)
        fact["latency_ms"] = latency
        fact["ref_ms"] = ref
        fact["traced"] = layer is not None
        if layer is not None:
            fact["trace"] = layer
        calls.append(fact)
        del result
        index += 1
    report = {"n": program.n, "m": program.m, "calls": calls,
              "peak_rss_mb": vm_hwm_mb()}
    with open(os.path.join(workdir, "calls.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
