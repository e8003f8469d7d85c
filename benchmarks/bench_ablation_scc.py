"""Ablation — SCC backend comparison (scipy vs Tarjan vs semi-external FB)
and the r-robust fold built on them.

The r-robust SCC stage runs one SCC computation per sample, so the backend
constant dominates Algorithm 1's run time.  This bench quantifies:

* raw kernel throughput per in-memory backend on generated graphs of
  increasing size (``scipy`` is the production kernel; ``tarjan`` is the
  pure-Python reference, paying interpreter cost per edge);
* the whole r-robust fold (sample, SCC, meet) per backend at several
  ``r`` — the stage Algorithm 1 actually runs, not the kernel alone;
* the dataset table (live-edge samples of a real-workload analogue), plus
  the streaming semi-external algorithm's overhead (its value is the O(V)
  memory contract of Algorithm 2, not speed).

Raw numbers go to two places: the per-bench archive under
``benchmarks/results/`` and the machine-readable perf trajectory at the
repo root, ``BENCH_scc.json`` (schema documented in
``docs/performance.md``) — regenerate the latter with::

    python benchmarks/bench_ablation_scc.py

CI runs ``python benchmarks/bench_ablation_scc.py --quick`` as a
correctness canary: small graphs, scipy-vs-tarjan partition equality on
samples and through the r-robust fold, no timing assertions and no files
written.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import numpy as np

from repro.bench import render_table, save_json
from repro.core import robust_scc_partition
from repro.datasets import load_dataset
from repro.diffusion import sample_live_edge_csr
from repro.graph import InfluenceGraph
from repro.partition import Partition
from repro.rng import ensure_rng
from repro.scc import SCC_BACKENDS, scc_labels, semi_external_scc_labels
from repro.storage import PairStore

from conftest import results_path, run_once

DATASET = "twitter-2010"
SAMPLES = 4

#: (name, n, m) for the generated size sweep; the largest is the graph the
#: kernel acceptance gate reads (``generated[-1]`` in ``BENCH_scc.json``).
GENERATED_SIZES = (
    ("gen-20k-100k", 20_000, 100_000),
    ("gen-60k-300k", 60_000, 300_000),
    ("gen-120k-600k", 120_000, 600_000),
)
R_VALUES = (4, 16)
ROOT_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_scc.json")


def generated_graph(n: int, m: int, seed: int = 0) -> InfluenceGraph:
    """A synthetic SCC workload: skewed out-degrees (a dense core emerges,
    like the paper's social graphs) plus a 15% reciprocal-edge slab (many
    small 2-cycles).

    Probabilities sit in the realistic IC range [0.05, 0.35], where the
    r-robust meet fragments towards singletons as ``r`` grows — the regime
    the paper reports for real networks (99.9% singleton r-robust SCCs).
    The kernel throughput rows run on the full topology.
    """
    rng = ensure_rng(seed)
    tails = (n * rng.random(m) ** 2).astype(np.int64)
    heads = rng.integers(0, n, m, dtype=np.int64)
    k = int(m * 0.15) // 2
    tails = np.concatenate([tails, heads[:k]])
    heads = np.concatenate([heads, tails[:k]])
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    uniq = np.unique(tails * n + heads)
    tails, heads = uniq // n, uniq % n
    probs = rng.uniform(0.05, 0.35, tails.size)
    return InfluenceGraph.from_edges(n, tails, heads, probs)


def _time_best(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_sweep(graph: InfluenceGraph) -> dict:
    """Per-backend throughput on the graph's own CSR (pure SCC, no fold)."""
    indptr, heads = graph.indptr, graph.heads
    out: dict = {}
    reference: "Partition | None" = None
    for backend in SCC_BACKENDS:
        partition = Partition(scc_labels(indptr, heads, backend=backend))
        if reference is None:
            reference = partition
        assert partition == reference, backend
        seconds = _time_best(lambda b=backend: scc_labels(indptr, heads,
                                                          backend=b))
        out[backend] = {
            "wall_seconds": seconds,
            "edges_per_sec": graph.m / seconds if seconds else float("inf"),
        }
    return out


def _robust_fold(graph: InfluenceGraph, r: int) -> dict:
    """The whole r-robust fold (sample, SCC, meet) per backend.

    Identical partitions are asserted.  ``edges_per_sec`` is the aggregate
    fold throughput — ``r * m`` edge-rounds over the whole fold.
    """
    out: dict = {}
    for backend in SCC_BACKENDS:
        t0 = time.perf_counter()
        partition = robust_scc_partition(graph, r, rng=0, scc_backend=backend)
        seconds = time.perf_counter() - t0
        out[backend] = {
            "wall_seconds": seconds,
            "edges_per_sec": r * graph.m / seconds if seconds else float("inf"),
            "blocks": partition.n_blocks,
        }
    assert len({mode["blocks"] for mode in out.values()}) == 1
    return out


def generate() -> dict:
    raw: dict = {
        "schema": "bench_scc/v3",
        "generated": [],
        "dataset": {"name": DATASET, "samples": SAMPLES, "backends": {}},
    }

    # ---- generated size sweep: kernel throughput + robust fold ----------
    kernel_rows = []
    fold_rows = []
    for name, n, m in GENERATED_SIZES:
        graph = generated_graph(n, m)
        entry = {
            "name": name,
            "n": graph.n,
            "m": graph.m,
            "kernel": _kernel_sweep(graph),
            "robust": {str(r): _robust_fold(graph, r) for r in R_VALUES},
        }
        raw["generated"].append(entry)
        base = entry["kernel"]["tarjan"]["edges_per_sec"]
        for backend in SCC_BACKENDS:
            stats = entry["kernel"][backend]
            kernel_rows.append([
                name, backend, f"{stats['wall_seconds'] * 1e3:.1f} ms",
                f"{stats['edges_per_sec'] / 1e6:.2f} Me/s",
                f"{stats['edges_per_sec'] / base:.2f}x",
            ])
        for r in R_VALUES:
            fold = entry["robust"][str(r)]
            fold_rows.append([
                name, str(r),
                *(f"{fold[b]['wall_seconds']:.3f} s" for b in SCC_BACKENDS),
                str(fold["scipy"]["blocks"]),
            ])
    print(render_table(
        "Ablation: SCC kernel throughput on generated graphs "
        "(identical partitions verified; speedup vs tarjan)",
        ["graph", "backend", "wall", "throughput", "speedup"],
        kernel_rows,
    ))
    print(render_table(
        "Ablation: whole r-robust fold per backend (identical partitions "
        "verified)",
        ["graph", "r", *SCC_BACKENDS, "blocks"],
        fold_rows,
    ))

    # ---- dataset table (live-edge samples of an analogue) ---------------
    graph = load_dataset(DATASET, "exp", seed=0)
    samples = [sample_live_edge_csr(graph, rng=i) for i in range(SAMPLES)]
    sampled_edges = sum(int(h.size) for _, h in samples)
    rows = []
    reference: list[Partition] = []
    for backend in SCC_BACKENDS:
        t0 = time.perf_counter()
        partitions = [
            Partition(scc_labels(indptr, heads, backend=backend))
            for indptr, heads in samples
        ]
        seconds = time.perf_counter() - t0
        if reference:
            assert partitions == reference, backend
        else:
            reference = partitions
        raw["dataset"]["backends"][backend] = {
            "wall_seconds": seconds,
            "edges_per_sec": sampled_edges / seconds,
        }
        rows.append([backend, f"{seconds:.3f} s"])

    with tempfile.TemporaryDirectory() as workdir:
        t0 = time.perf_counter()
        for i, (indptr, heads) in enumerate(samples):
            store = PairStore.create(os.path.join(workdir, f"{i}.pairs"),
                                     graph.n)
            tails = np.repeat(np.arange(graph.n), np.diff(indptr))
            store.append(tails, heads)
            labels = semi_external_scc_labels(store)
            assert Partition(labels) == reference[i]
        seconds = time.perf_counter() - t0
    raw["dataset"]["backends"]["semi-external"] = {
        "wall_seconds": seconds,
        "edges_per_sec": sampled_edges / seconds,
    }
    rows.append(["semi-external FB", f"{seconds:.3f} s"])

    print(render_table(
        f"Ablation: SCC backends on {SAMPLES} live-edge samples of {DATASET} "
        f"(n={graph.n:,}, m={graph.m:,}); identical partitions verified",
        ["backend", "total time"],
        rows,
    ))
    save_json(raw, results_path("ablation_scc.json"))
    save_json(raw, os.path.abspath(ROOT_JSON))
    return raw


def quick_canary() -> None:
    """CI correctness canary: scipy must produce the same canonical
    partitions as tarjan — on a small generated graph's live-edge samples
    and bit for bit through the r-robust fold.  No timing, no files."""
    graph = generated_graph(2_000, 10_000, seed=1)
    rng = ensure_rng(0)
    for _ in range(6):
        indptr, heads = sample_live_edge_csr(graph, rng)
        a = Partition(scc_labels(indptr, heads, backend="scipy"))
        b = Partition(scc_labels(indptr, heads, backend="tarjan"))
        assert a == b, "scipy/tarjan partition mismatch"
    for r in (1, 8):
        a = robust_scc_partition(graph, r, rng=0, scc_backend="scipy")
        b = robust_scc_partition(graph, r, rng=0, scc_backend="tarjan")
        assert np.array_equal(a.labels, b.labels), f"r={r} fold diverged"
    print("quick canary ok: scipy == tarjan on samples and the r-robust "
          "fold")


def bench_ablation_scc(benchmark):
    raw = run_once(benchmark, generate)
    backends = raw["dataset"]["backends"]
    # The streaming algorithm trades time for O(V) memory; it must still
    # land within a sane constant of the in-memory backends.
    assert (backends["semi-external"]["wall_seconds"]
            < 300 * backends["scipy"]["wall_seconds"])
    # The production kernel must beat the interpreter loop decisively on
    # the largest generated graph, both alone and through the whole fold.
    largest = raw["generated"][-1]
    assert (largest["kernel"]["scipy"]["edges_per_sec"]
            >= 5 * largest["kernel"]["tarjan"]["edges_per_sec"])
    for r in R_VALUES:
        fold = largest["robust"][str(r)]
        assert fold["scipy"]["wall_seconds"] < fold["tarjan"]["wall_seconds"]


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        quick_canary()
    else:
        generate()
