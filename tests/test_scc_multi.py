"""Per-round SCC labels (`multi_scc_labels`), the r-robust fold, the dynamic
coarsener built on them, and the backend registry.

Four layers of evidence:

* differential — every row of ``multi_scc_labels`` must be the canonical
  partition networkx and a per-sample ``tarjan`` run find on that round's
  masked subgraph, on fixed-seed random batches, a chain of cycles, and
  mask-degenerate rounds (all-keep / all-drop);
* property-based — on arbitrary small digraph batches, each row's labels
  must be exactly the mutual-reachability classes of that round's masked
  subgraph (checked against a boolean transitive closure);
* fold equivalence — the r-robust partition, the kept samples, ``pi`` and
  the coarse-graph digest must be **bit-for-bit** the same under
  ``scipy`` and ``tarjan``, and the batched ``DynamicCoarsener`` init and
  refresh must equal a cold :func:`coarsen_addressable` after every batch;
* registry — one :class:`repro.scc.BackendSpec` table drives the backend
  menu, so choices and error messages cannot drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    coarsen_addressable,
    coarsen_influence_graph,
    robust_scc_partition,
)
from repro.core.dynamic import Delta, DynamicCoarsener
from repro.errors import AlgorithmError
from repro.partition import Partition
from repro.scc import (
    DEFAULT_SCC_BACKEND,
    SCC_BACKENDS,
    BackendSpec,
    available_backends,
    backend_spec,
    multi_scc_labels,
    scc_labels,
)

from .conftest import random_graph
from .test_scc import csr_arrays, nx_partition, reachability


def masked_csr(indptr, heads, keep_row):
    """The live-edge CSR a single keep-mask row selects (reference path)."""
    n = indptr.size - 1
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    t, h = tails[keep_row], heads[keep_row]
    sub = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(t, minlength=n), out=sub[1:])
    return sub, np.ascontiguousarray(h, dtype=np.int64)


def random_keep(m, r, seed, density=0.5):
    return np.random.default_rng(seed).random((r, m)) < density


def assert_rows_match(indptr, heads, keep, rows):
    """Each row == networkx and per-sample tarjan on the masked CSR."""
    for i in range(keep.shape[0]):
        sip, sh = masked_csr(indptr, heads, keep[i])
        got = Partition(rows[i])
        assert got == nx_partition(sip, sh), i
        assert got == Partition(scc_labels(sip, sh, backend="tarjan")), i


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_sample_on_random_batches(self, seed):
        g = random_graph(60, 240, seed=seed)
        keep = random_keep(g.m, r=5, seed=seed, density=0.6)
        for backend in SCC_BACKENDS:
            rows = multi_scc_labels(g.indptr, g.heads, keep, backend=backend)
            assert rows.shape == (5, g.n)
            assert_rows_match(g.indptr, g.heads, keep, rows)

    def test_chain_of_cycles(self):
        # k 3-cycles linked in a chain; drop one intra-cycle edge per round
        # so rows genuinely differ.
        k = 40
        tails, heads = [], []
        for c in range(k):
            b = 3 * c
            tails += [b, b + 1, b + 2]
            heads += [b + 1, b + 2, b]
            if c + 1 < k:
                tails.append(b + 2)
                heads.append(b + 3)
        indptr, h = csr_arrays(3 * k, tails, heads)
        m = h.size
        keep = np.ones((6, m), dtype=bool)
        for i in range(1, 6):
            keep[i, (7 * i) % m] = False
        rows = multi_scc_labels(indptr, h, keep)
        assert_rows_match(indptr, h, keep, rows)

    def test_all_keep_and_all_drop_rounds(self):
        g = random_graph(50, 220, seed=3)
        keep = np.ones((4, g.m), dtype=bool)
        keep[1] = False  # all-drop: every vertex its own SCC
        keep[3] = random_keep(g.m, 1, seed=9)[0]
        rows = multi_scc_labels(g.indptr, g.heads, keep)
        base = Partition(scc_labels(g.indptr, g.heads, backend="tarjan"))
        assert Partition(rows[0]) == base
        assert Partition(rows[2]) == base
        assert Partition(rows[1]).n_blocks == g.n
        assert_rows_match(g.indptr, g.heads, keep, rows)

    def test_empty_batch_and_empty_graph(self):
        indptr = np.zeros(6, dtype=np.int64)
        none = multi_scc_labels(indptr, np.empty(0, dtype=np.int64),
                                np.empty((0, 0), dtype=bool))
        assert none.shape == (0, 5)
        empty = multi_scc_labels(np.zeros(1, dtype=np.int64),
                                 np.empty(0, dtype=np.int64),
                                 np.ones((3, 0), dtype=bool))
        assert empty.shape == (3, 0)

    def test_single_row_equals_scc_labels_dispatch(self):
        g = random_graph(80, 300, seed=1)
        keep = np.ones((1, g.m), dtype=bool)
        rows = multi_scc_labels(g.indptr, g.heads, keep)
        assert np.array_equal(rows[0], scc_labels(g.indptr, g.heads))

    def test_keep_shape_validation(self):
        g = random_graph(10, 30, seed=0)
        with pytest.raises(ValueError, match="boolean matrix"):
            multi_scc_labels(g.indptr, g.heads,
                             np.ones(g.m, dtype=bool))
        with pytest.raises(ValueError, match="one column per"):
            multi_scc_labels(g.indptr, g.heads,
                             np.ones((2, g.m + 1), dtype=bool))
        with pytest.raises(AlgorithmError, match="unknown"):
            multi_scc_labels(g.indptr, g.heads,
                             np.ones((2, g.m), dtype=bool), backend="bogus")


class TestProperty:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_mutual_reachability_classes(self, data):
        n = data.draw(st.integers(1, 16), label="n")
        m = data.draw(st.integers(0, 50), label="m")
        r = data.draw(st.integers(1, 4), label="r")
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=m, max_size=m,
            ),
            label="edges",
        )
        pairs = sorted({(u, v) for u, v in pairs if u != v})
        tails = np.asarray([u for u, _ in pairs], dtype=np.int64)
        heads_in = np.asarray([v for _, v in pairs], dtype=np.int64)
        indptr, h = csr_arrays(n, tails, heads_in)
        keep = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=h.size, max_size=h.size),
                    min_size=r, max_size=r,
                ),
                label="keep",
            ),
            dtype=bool,
        ).reshape(r, h.size)
        base_tails = np.repeat(np.arange(n, dtype=np.int64),
                               np.diff(indptr))
        for backend in SCC_BACKENDS:
            rows = multi_scc_labels(indptr, h, keep, backend=backend)
            for i in range(r):
                reach = reachability(n, base_tails[keep[i]], h[keep[i]])
                mutual = reach & reach.T
                same = rows[i][:, None] == rows[i][None, :]
                assert (same == mutual).all(), (backend, i)


class TestFoldEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("r", [1, 3, 9])
    def test_robust_partition_bit_for_bit(self, seed, r):
        g = random_graph(80, 320, seed=seed, p_low=0.1, p_high=0.6)
        a = robust_scc_partition(g, r, rng=seed, scc_backend="scipy")
        b = robust_scc_partition(g, r, rng=seed, scc_backend="tarjan")
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("seed", range(3))
    def test_kept_samples_identical(self, seed):
        g = random_graph(50, 200, seed=seed)
        pa, sa = robust_scc_partition(g, 5, rng=seed, scc_backend="scipy",
                                      keep_samples=True)
        pb, sb = robust_scc_partition(g, 5, rng=seed, scc_backend="tarjan",
                                      keep_samples=True)
        assert np.array_equal(pa.labels, pb.labels)
        assert len(sa) == len(sb) == 5
        for (ia, ha), (ib, hb) in zip(sa, sb):
            assert np.array_equal(ia, ib)
            assert np.array_equal(ha, hb)

    @pytest.mark.parametrize("seed", range(3))
    def test_coarse_graph_digest_identical(self, seed):
        # Both coin disciplines: Algorithm 1's sequential stream and the
        # addressable coins the dynamic coarsener rebuilds against.
        g = random_graph(80, 400, seed=seed, p_low=0.05, p_high=0.9)
        for coarsen_with in (
            lambda backend: coarsen_influence_graph(g, r=6, rng=seed,
                                                    scc_backend=backend),
            lambda backend: coarsen_addressable(g, r=6, seed=seed,
                                                scc_backend=backend),
        ):
            a, b = coarsen_with("scipy"), coarsen_with("tarjan")
            assert a.partition == b.partition
            assert np.array_equal(a.pi, b.pi)
            assert a.coarse.digest() == b.coarse.digest()

    def test_r_zero_is_trivial(self):
        g = random_graph(20, 60, seed=0)
        assert robust_scc_partition(g, 0, rng=0).n_blocks == 1


class TestDynamicBatched:
    def test_coarsener_matches_cold_rebuild_across_batches(self):
        # Init and every refresh recompute SCCs through multi_scc_labels;
        # the maintained model must equal a cold per-round rebuild.
        g = random_graph(40, 170, seed=2, p_low=0.1, p_high=0.8)
        live = {backend: DynamicCoarsener(g, r=6, rng=3, scc_backend=backend,
                                          coins="addressable")
                for backend in SCC_BACKENDS}
        batches = [
            [Delta("insert", 0, 25, 0.7), Delta("insert", 25, 0, 0.7)],
            [Delta("delete", 0, 25)],
            [Delta("insert", 1, 30, 0.6), Delta("insert", 30, 2, 0.6),
             Delta("insert", 2, 1, 0.6)],
        ]
        for batch in [[]] + batches:
            for coarsener in live.values():
                if batch:
                    coarsener.apply_deltas(batch)
            current = live[DEFAULT_SCC_BACKEND].current_graph()
            cold = coarsen_addressable(current, r=6, seed=3,
                                       scc_backend="tarjan")
            for backend, coarsener in live.items():
                snap = coarsener.snapshot()
                assert np.array_equal(snap.pi, cold.pi), backend
                assert snap.coarse.digest() == cold.coarse.digest(), backend
        stats = [c.stats for c in live.values()]
        # The deferral bookkeeping is backend-independent: every path
        # accounts one skip-or-recompute per (delta, sample) event.
        assert len({s.scc_recomputations + s.scc_skipped for s in stats}) == 1
        assert stats[0].scc_recomputations > 0


class TestBackendRegistry:
    def test_menu_is_registry_derived(self):
        assert SCC_BACKENDS == available_backends() == ("scipy", "tarjan")
        assert DEFAULT_SCC_BACKEND == "scipy"
        assert available_backends(streaming=True) == (
            "scipy", "tarjan", "semi-external")

    def test_specs_expose_capabilities(self):
        assert backend_spec("semi-external").streaming
        assert not backend_spec("scipy").streaming
        assert isinstance(backend_spec("tarjan"), BackendSpec)

    def test_unknown_backend_lists_full_menu(self):
        with pytest.raises(AlgorithmError, match="semi-external") as err:
            backend_spec("scipy-typo")
        for name in available_backends(streaming=True):
            assert repr(name) in str(err.value)

    def test_streaming_backend_fails_early_in_scc_labels(self):
        g = random_graph(10, 30, seed=0)
        with pytest.raises(AlgorithmError, match="sublinear"):
            scc_labels(g.indptr, g.heads, backend="semi-external")
