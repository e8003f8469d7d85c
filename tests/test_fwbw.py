"""In-memory SCC kernels against the forward–backward definition of an SCC.

The SCC of ``v`` is ``FW(v) ∩ BW(v)``: the vertices ``v`` reaches that
also reach ``v``.  This file checks both in-memory kernels (``scipy`` and
``tarjan``) against that definition and against networkx:

* differential — the canonical partition must equal networkx's on
  fixed-seed random graphs, on live-edge samples, and on shapes that
  stress SCC decompositions (trim cascades down a deep chain, many
  reciprocal two-cycles, one long cycle, a graph past the int32 index
  domain scipy converts to);
* property-based — on arbitrary small digraphs the labels must be exactly
  the mutual-reachability classes of a boolean transitive closure, not
  another SCC implementation's output;
* the r-robust fold — folding per-round labels by the meet must equal the
  meet of networkx's per-round partitions over the same kept samples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import robust_scc_partition
from repro.diffusion import sample_live_edge_csr
from repro.partition import Partition
from repro.scc import SCC_BACKENDS, scc_labels

from .conftest import random_graph
from .test_scc import assert_kernels_agree, csr_arrays, nx_partition, reachability


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_references_on_random_graphs(self, seed):
        g = random_graph(60, 200, seed=seed)
        assert_kernels_agree(g.indptr, g.heads)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_on_live_edge_samples(self, seed):
        g = random_graph(300, 1500, seed=40 + seed)
        indptr, heads = sample_live_edge_csr(g, rng=seed)
        assert_kernels_agree(indptr, heads)

    @pytest.mark.parametrize("seed", range(6))
    def test_coloring_path_many_two_cycles(self, seed):
        # Dense reciprocal structure fragments the graph into many parts
        # joined by two-cycles — the shape coloring-based decompositions
        # are built for.
        rng = np.random.default_rng(seed)
        n = 400
        t = rng.integers(0, n, 900)
        h = rng.integers(0, n, 900)
        keep = t != h
        t, h = t[keep], h[keep]
        tails = np.concatenate([t, h])
        heads = np.concatenate([h, t])
        uniq = np.unique(tails * n + heads)
        indptr, heads = csr_arrays(n, uniq // n, uniq % n)
        assert_kernels_agree(indptr, heads)

    def test_deep_chain_forces_trim_cascade(self):
        n = 30_000
        indptr, heads = csr_arrays(n, np.arange(n - 1), np.arange(1, n))
        for backend in SCC_BACKENDS:
            labels = scc_labels(indptr, heads, backend=backend)
            assert len(set(labels.tolist())) == n, backend

    def test_long_cycle_single_component(self):
        n = 20_000
        indptr, heads = csr_arrays(n, np.arange(n), (np.arange(n) + 1) % n)
        for backend in SCC_BACKENDS:
            labels = scc_labels(indptr, heads, backend=backend)
            assert set(labels.tolist()) == {0}, backend

    def test_large_graph_int32_domain(self):
        # scipy runs on int32 indices; int64 CSR input must survive the
        # conversion with the same answer as the pure-Python reference.
        g = random_graph(40_000, 240_000, seed=7)
        ours = Partition(scc_labels(g.indptr, g.heads, backend="scipy"))
        ref = Partition(scc_labels(g.indptr, g.heads, backend="tarjan"))
        assert ours == ref


class TestProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_labels_are_mutual_reachability_classes(self, data):
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(0, 80), label="m")
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=m, max_size=m,
            ),
            label="edges",
        )
        pairs = sorted({(u, v) for u, v in pairs if u != v})
        tails = [u for u, _ in pairs]
        heads = [v for _, v in pairs]
        indptr, h = csr_arrays(n, tails, heads)
        reach = reachability(n, np.asarray(tails, dtype=np.int64),
                             np.asarray(heads, dtype=np.int64))
        mutual = reach & reach.T
        for backend in SCC_BACKENDS:
            labels = scc_labels(indptr, h, backend=backend)
            same = labels[:, None] == labels[None, :]
            assert (same == mutual).all(), backend
        assert Partition(scc_labels(indptr, h)) == nx_partition(indptr, h)

    def test_empty_graph(self):
        indptr = np.zeros(1, dtype=np.int64)
        for backend in SCC_BACKENDS:
            labels = scc_labels(indptr, np.empty(0, dtype=np.int64),
                                backend=backend)
            assert labels.size == 0, backend

    def test_edgeless_graph(self):
        indptr = np.zeros(6, dtype=np.int64)
        for backend in SCC_BACKENDS:
            labels = scc_labels(indptr, np.empty(0, dtype=np.int64),
                                backend=backend)
            assert len(set(labels.tolist())) == 5, backend


class TestRefinement:
    """The fold ``P_i = P_{i-1} ∧ SCC(G_i)`` (Theorem 4.11)."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("r", [3, 8])
    def test_refined_fold_matches_full_recomputation(self, seed, r):
        # Recompute the r-robust partition from scratch: the meet of the
        # networkx partitions of the very samples the fold drew.
        g = random_graph(80, 320, seed=seed, p_low=0.1, p_high=0.6)
        folded, samples = robust_scc_partition(g, r, rng=seed,
                                               keep_samples=True)
        full = Partition.trivial(g.n)
        for indptr, heads in samples:
            full = full.meet(nx_partition(indptr, heads))
        tarjan = robust_scc_partition(g, r, rng=seed, scc_backend="tarjan")
        assert folded == full == tarjan

    def test_counters_flow_through_obs(self):
        # One kernel run per round; kept samples force every round to run
        # even after the fold reaches the finest partition.
        g = random_graph(600, 3000, seed=5, p_low=0.05, p_high=0.4)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            robust_scc_partition(g, 10, rng=0, keep_samples=True)
        assert registry.counter("scc.runs") == 10


class TestMeetFastPaths:
    def test_trivial_meet_returns_other(self):
        q = Partition(np.array([0, 1, 0, 2], dtype=np.int64))
        assert Partition.trivial(4).meet(q) is q
        assert q.meet(Partition.trivial(4)) is q

    def test_singletons_meet_returns_singletons(self):
        d = Partition.singletons(4)
        q = Partition(np.array([0, 1, 0, 2], dtype=np.int64))
        assert d.meet(q) is d
        assert q.meet(d) is d

    def test_fast_paths_match_hash_meet(self):
        # The short-circuits must agree with the reference hash meet.
        rng = np.random.default_rng(0)
        q = Partition(rng.integers(0, 5, 30).astype(np.int64))
        for special in (Partition.trivial(30), Partition.singletons(30)):
            assert special.meet(q) == q.meet(special, method="hash")

    def test_mismatched_sizes_still_raise(self):
        from repro.errors import PartitionError
        with pytest.raises(PartitionError):
            Partition.trivial(3).meet(Partition.trivial(4))
