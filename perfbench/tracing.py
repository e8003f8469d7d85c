"""Timing wrappers installed at each layer's import site, for traced runs.

A traced run measures layers from the benchmark's own files: it replaces a
name in the module that *calls* it (``repro.core.robust_scc.scc_labels``,
not ``repro.scc.scc_labels``, because ``robust_scc`` bound the name when it
was imported) with a wrapper that records one span per call.  Spans are
``(name, start, end, request, info)`` tuples kept in memory and written out
when the run ends; ``start``/``end`` are :func:`time.perf_counter` readings,
which on Linux come from the system-wide monotonic clock, so spans recorded
in a server process line up with the load generator's own timestamps.

``request`` is the id of the HTTP request a span belongs to (``None`` on
the coarsen workloads).  The handler wrapper reads it from the
``X-Bench-Req`` header, and the service's dispatch executor carries it into
the worker thread that runs the query, so every span of one request shares
it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stores: list = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- request context -------------------------------------------------

    @property
    def request(self):
        return getattr(self._local, "req", None)

    @request.setter
    def request(self, value) -> None:
        self._local.req = value

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add(self, name: str, start: float, end: float, info=None) -> None:
        self.spans.append((name, start, end, self.request, info))

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``info(args, result)`` optionally attaches a small JSON-able value
        (a size, a count) to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            self.add(name, start, end,
                     None if info is None else info(args, result))
            return result

        self.patch(owner, attr, timed)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install_coarsen(rec: Recorder) -> None:
    """Wrap the four coarsening layers on both the linear and disk paths."""
    import repro.core.linear_space as linear
    import repro.core.robust_scc as robust
    import repro.core.sublinear_space as sublinear
    from repro.partition.partition import Partition
    from repro.storage import triplet_store

    rec.wrap(robust, "sample_live_edge_csr", "diffusion.sample")
    rec.wrap(robust, "scc_labels", "scc.kernel")
    rec.wrap(sublinear, "scc_labels", "scc.kernel")
    rec.wrap(sublinear, "semi_external_scc_labels", "scc.semi_external")
    rec.wrap(Partition, "meet", "partition.meet")
    rec.wrap(linear, "coarsen", "core.contract")
    # Algorithm 2's contraction is a private helper, but it is looked up in
    # the module namespace at call time, so it can be timed directly.
    rec.wrap(sublinear, "_contract_streaming", "core.contract")
    _install_disk_sampling(rec, sublinear)
    _install_store_registry(rec, triplet_store)


def _install_disk_sampling(rec: Recorder, sublinear) -> None:
    # Algorithm 2 samples inline (it does not call sample_live_edge_store),
    # so the only boundary around its sampling is the stage timer the
    # module creates; a subclass bound at the import site times that block.
    from repro.obs import STAGE_SAMPLE

    base = sublinear.StageTimes

    class SampleSpans(base):
        @contextlib.contextmanager
        def stage(self, name, **attrs):
            start = time.perf_counter()
            with super().stage(name, **attrs):
                yield
            if name == STAGE_SAMPLE:
                rec.add("diffusion.sample", start, time.perf_counter())

    rec.patch(sublinear, "StageTimes", SampleSpans)


def _install_store_registry(rec: Recorder, triplet_store) -> None:
    # Every edge store counts its own bytes; remembering each store created
    # lets the run sum the I/O of the short-lived per-sample stores too.
    base_init = triplet_store._EdgeStoreBase.__init__

    def init(store, *args, **kwargs):
        base_init(store, *args, **kwargs)
        rec.stores.append(store)

    rec.patch(triplet_store._EdgeStoreBase, "__init__", init)


def install_serve(rec: Recorder) -> None:
    """Wrap the serving layers; called by the traced server launcher."""
    import repro.cli as cli
    import repro.core.dynamic as core_dynamic
    import repro.serve.pool as pool_mod
    import repro.serve.service as service_mod
    from repro.diffusion.rr_sets import CoverageInstance, RRSampler
    from repro.serve.dynamic import DynamicModel
    from repro.serve.http import ServeHandler
    from repro.serve.pool import SamplePool
    from repro.serve.service import InfluenceService

    install_coarsen(rec)
    rec.wrap(core_dynamic, "scc_labels", "scc.kernel")
    rec.wrap(core_dynamic, "multi_scc_labels", "scc.kernel")
    rec.wrap(cli, "read_edge_list", "graph.io.read")
    rec.wrap(core_dynamic, "edge_coin_uniforms", "diffusion.sample")
    rec.wrap(core_dynamic, "coarsen", "core.contract")
    # Model builds carry H's edge ratio |F| / |E| as their info.
    rec.wrap(InfluenceService, "model_for", "serve.model.build",
             info=lambda args, result: result.coarse.m / args[1].m)
    rec.wrap(InfluenceService, "attach_dynamic", "serve.model.build",
             info=lambda args, result: result.model.coarse.m / args[1].m)
    rec.wrap(InfluenceService, "estimate_many", "serve.service.call",
             info=lambda args, result: len(result))
    rec.wrap(InfluenceService, "maximize", "serve.service.call")
    rec.wrap(DynamicModel, "apply_deltas", "serve.dynamic.apply",
             info=lambda args, result: bool(result["model_retained"]))
    rec.wrap(service_mod, "estimate_on_coarse", "core.frameworks.estimate")
    rec.wrap(pool_mod, "CoverageInstance", "serve.pool.coverage")
    rec.wrap(CoverageInstance, "greedy", "serve.pool.greedy")
    rec.wrap(RRSampler, "sample", "diffusion.rr_set",
             info=lambda args, result: [int(result.size),
                                        int(result.nbytes)])

    ensure = SamplePool.ensure

    def timed_ensure(pool, *args, **kwargs):
        before = pool.size
        start = time.perf_counter()
        result = ensure(pool, *args, **kwargs)
        rec.add("serve.pool.ensure", start, time.perf_counter(),
                pool.size - before)
        return result

    rec.patch(SamplePool, "ensure", timed_ensure)

    do_post = ServeHandler.do_POST

    def timed_post(handler):
        rec.request = handler.headers.get("X-Bench-Req")
        start = time.perf_counter()
        try:
            do_post(handler)
        finally:
            rec.add("serve.http.handler", start, time.perf_counter(),
                    handler.path)
            rec.request = None

    rec.patch(ServeHandler, "do_POST", timed_post)

    # Queries run on the service's dispatch pool; carry the request id
    # across the thread hop so worker-side spans join their request.
    service_init = InfluenceService.__init__

    def init(service, *args, **kwargs):
        service_init(service, *args, **kwargs)
        submit = service._dispatch.submit

        def tagged_submit(fn, *fargs, **fkwargs):
            req = rec.request

            def run():
                rec.request = req
                try:
                    return fn(*fargs, **fkwargs)
                finally:
                    rec.request = None

            return submit(run)

        service._dispatch.submit = tagged_submit

    rec.patch(InfluenceService, "__init__", init)
