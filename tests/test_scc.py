"""The differential SCC suite: ``scipy`` vs ``tarjan`` vs networkx.

Every in-memory kernel must label exactly the partition that
``networkx.strongly_connected_components`` finds — an implementation
outside the package, so agreement is evidence rather than a kernel
agreeing with a copy of itself.  The oracles defined here (:func:`csr`,
:func:`csr_arrays`, :func:`reachability`, :func:`nx_partition`) are shared
by the rest of the suite: ``test_fwbw.py`` checks the kernels against the
forward–backward definition of an SCC on adversarial shapes, and
``test_scc_multi.py`` checks the per-round helper, the r-robust fold and
the dynamic coarsener built on them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AlgorithmError
from repro.partition import Partition
from repro.scc import (
    SCC_BACKENDS,
    scc_labels,
    semi_external_scc_labels,
    tarjan_scc_labels,
)
from repro.storage import PairStore

from .conftest import random_graph

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def csr_arrays(n, tails, heads):
    """CSR of the digraph with edges ``zip(tails, heads)``."""
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads


def csr(n, edges):
    """CSR of the digraph with edge list ``edges``."""
    return csr_arrays(n, [u for u, _ in edges], [v for _, v in edges])


def reachability(n, tails, heads):
    """Boolean transitive closure by repeated squaring (small n only)."""
    adj = np.eye(n, dtype=bool)
    adj[tails, heads] = True
    while True:
        nxt = adj @ adj
        if (nxt == adj).all():
            return adj
        adj = nxt


def nx_partition(indptr, heads):
    """The SCC partition networkx finds on a CSR digraph."""
    nx = pytest.importorskip("networkx")
    n = indptr.size - 1
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    tails = np.repeat(np.arange(n), np.diff(indptr))
    g.add_edges_from(zip(tails.tolist(), heads.tolist()))
    labels = np.empty(n, dtype=np.int64)
    for block, members in enumerate(nx.strongly_connected_components(g)):
        labels[list(members)] = block
    return Partition(labels)


def assert_kernels_agree(indptr, heads):
    """Every in-memory backend labels networkx's partition."""
    oracle = nx_partition(indptr, heads)
    for backend in SCC_BACKENDS:
        assert Partition(scc_labels(indptr, heads, backend=backend)) == oracle, (
            backend
        )


BACKENDS = list(SCC_BACKENDS)


@pytest.mark.parametrize("backend", BACKENDS)
class TestKnownGraphs:
    def test_single_cycle(self, backend):
        indptr, heads = csr(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        labels = scc_labels(indptr, heads, backend=backend)
        assert len(set(labels.tolist())) == 1

    def test_chain_is_all_singletons(self, backend):
        indptr, heads = csr(4, [(0, 1), (1, 2), (2, 3)])
        labels = scc_labels(indptr, heads, backend=backend)
        assert len(set(labels.tolist())) == 4

    def test_two_cycles_with_bridge(self, backend):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        indptr, heads = csr(4, edges)
        labels = scc_labels(indptr, heads, backend=backend)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_empty_graph(self, backend):
        indptr, heads = csr(5, [])
        labels = scc_labels(indptr, heads, backend=backend)
        assert len(set(labels.tolist())) == 5

    def test_no_vertices(self, backend):
        indptr, heads = csr(0, [])
        labels = scc_labels(indptr, heads, backend=backend)
        assert labels.size == 0

    def test_figure3_style_nested_components(self, backend):
        # triangle {0,1,2} reaching a 2-cycle {3,4}, plus isolated 5
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]
        indptr, heads = csr(6, edges)
        p = Partition(scc_labels(indptr, heads, backend=backend))
        sizes = sorted(p.block_sizes().tolist())
        assert sizes == [1, 2, 3]


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_backends_agree_on_random_graphs(self, seed):
        g = random_graph(40, 120, seed=seed)
        assert_kernels_agree(g.indptr, g.heads)

    def test_deep_chain_no_recursion_error(self):
        # A 50k-vertex path would blow recursive implementations.
        n = 50_000
        edges = [(i, i + 1) for i in range(n - 1)]
        indptr, heads = csr(n, edges)
        labels = tarjan_scc_labels(indptr, heads)
        assert len(set(labels.tolist())) == n

    def test_long_cycle_single_component(self):
        n = 20_000
        edges = [(i, (i + 1) % n) for i in range(n)]
        indptr, heads = csr(n, edges)
        for backend in BACKENDS:
            labels = scc_labels(indptr, heads, backend=backend)
            assert set(labels.tolist()) == {0}, backend

    def test_unknown_backend_raises(self):
        indptr, heads = csr(2, [(0, 1)])
        with pytest.raises(AlgorithmError, match="unknown"):
            scc_labels(indptr, heads, backend="bogus")


class TestLazyScipyImport:
    """scipy loads only when an in-memory kernel runs.

    Importing the package, the CLI and the server must not pay for it, nor
    must Algorithm 2, whose SCC rounds run the semi-external kernel.  Each
    check runs in a fresh interpreter, since this one has scipy loaded.
    """

    def _run(self, body):
        code = textwrap.dedent(body) + textwrap.dedent("""
            loaded = sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
        """)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_import_leaves_scipy_unloaded(self):
        self._run("import repro, repro.cli, repro.serve\n")

    def test_sublinear_coarsening_leaves_scipy_unloaded(self, tmp_path):
        self._run(f"""
            import numpy as np
            import repro, repro.cli, repro.serve
            from repro.core import coarsen_influence_graph
            from repro.graph import InfluenceGraph
            from repro.storage import TripletStore
            ring = np.arange(60)
            graph = InfluenceGraph.from_edges(
                60, np.repeat(ring, 2),
                np.stack([(ring + 1) % 60, (ring + 7) % 60], 1).ravel(),
                np.full(120, 0.5))
            src = TripletStore.from_graph(graph, {str(tmp_path / "g.trip")!r})
            result = coarsen_influence_graph(
                src, r=4, rng=0, space="sublinear",
                out_path={str(tmp_path / "h.trip")!r},
                work_dir={str(tmp_path)!r})
            assert result.pi.size == 60
        """)


class TestSemiExternal:
    def _store(self, tmp_path, n, edges):
        store = PairStore.create(tmp_path / "g.pairs", n=n)
        if edges:
            store.append(
                np.array([e[0] for e in edges]), np.array([e[1] for e in edges])
            )
        return store

    def test_cycle(self, tmp_path):
        store = self._store(tmp_path, 3, [(0, 1), (1, 2), (2, 0)])
        labels = semi_external_scc_labels(store)
        assert len(set(labels.tolist())) == 1

    def test_empty(self, tmp_path):
        store = self._store(tmp_path, 4, [])
        labels = semi_external_scc_labels(store)
        assert len(set(labels.tolist())) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tarjan_on_random_graphs(self, tmp_path, seed):
        g = random_graph(35, 110, seed=100 + seed)
        tails, heads, _ = g.edge_arrays()
        store = self._store(tmp_path, g.n, list(zip(tails.tolist(), heads.tolist())))
        semi = Partition(semi_external_scc_labels(store, chunk_edges=16))
        ref = Partition(tarjan_scc_labels(g.indptr, g.heads))
        assert semi == ref

    def test_stats_reported(self, tmp_path):
        store = self._store(tmp_path, 5, [(0, 1), (1, 0), (2, 3)])
        labels, stats = semi_external_scc_labels(store, return_stats=True)
        assert stats.rounds >= 1
        assert stats.stream_passes >= stats.rounds
        assert stats.bytes_read > 0
        assert len(set(labels.tolist())) == 4

    def test_tiny_chunks_give_same_answer(self, tmp_path):
        g = random_graph(25, 80, seed=77)
        tails, heads, _ = g.edge_arrays()
        store = self._store(tmp_path, g.n, list(zip(tails.tolist(), heads.tolist())))
        a = Partition(semi_external_scc_labels(store, chunk_edges=1))
        b = Partition(semi_external_scc_labels(store, chunk_edges=1 << 16))
        assert a == b
