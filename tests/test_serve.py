"""Tests for repro.serve: cache, pool, service, and the HTTP endpoint."""

from __future__ import annotations

import json
import pathlib
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core import coarsen_influence_graph
from repro.errors import AlgorithmError, BudgetExceededError
from repro.serve import (
    InfluenceService,
    ModelCache,
    ModelKey,
    SamplePool,
    ServiceConfig,
)
from repro.serve.cache import result_nbytes
from repro.serve.http import make_server

from .conftest import random_graph


def make_key(tag: str = "a", r: int = 4) -> ModelKey:
    return ModelKey(graph_digest=tag, r=r, seed=0,
                    scc_backend="scipy", executor="serial")


@pytest.fixture
def graph():
    return random_graph(120, 500, seed=3)


@pytest.fixture
def model(graph):
    return coarsen_influence_graph(graph, r=4, rng=0)


class TestModelKey:
    def test_content_addressing(self, graph):
        g2 = random_graph(120, 500, seed=3)  # same content, new object
        a = ModelKey.for_graph(graph, 4, 0, "scipy", "serial")
        b = ModelKey.for_graph(g2, 4, 0, "scipy", "serial")
        assert a == b
        assert a.token() == b.token()

    def test_any_parameter_changes_the_key(self, graph):
        base = ModelKey.for_graph(graph, 4, 0, "scipy", "serial")
        assert ModelKey.for_graph(graph, 5, 0, "scipy", "serial") != base
        assert ModelKey.for_graph(graph, 4, 1, "scipy", "serial") != base
        assert ModelKey.for_graph(graph, 4, 0, "tarjan", "serial") != base
        other = random_graph(120, 500, seed=4)
        assert ModelKey.for_graph(other, 4, 0, "scipy", "serial") != base

    def test_digest_is_cached_and_stable(self, graph):
        assert graph.digest() == graph.digest()
        assert graph.digest() is graph.digest()  # cached string


class TestModelCache:
    def test_lru_eviction_order(self, model):
        cache = ModelCache(max_models=2)
        k1, k2, k3 = make_key("a"), make_key("b"), make_key("c")
        cache.put(k1, model)
        cache.put(k2, model)
        assert cache.get(k1) is model  # k1 is now most recent
        cache.put(k3, model)           # k2 is LRU -> evicted
        assert cache.keys() == [k1, k3]
        assert cache.get(k2) is None

    def test_byte_budget_evicts_lru_first(self, model):
        per_model = result_nbytes(model)
        cache = ModelCache(max_models=10, max_bytes=2 * per_model)
        keys = [make_key(t) for t in "abc"]
        for key in keys:
            cache.put(key, model)
        assert len(cache) == 2
        assert cache.keys() == keys[1:]
        assert cache.nbytes() <= 2 * per_model

    def test_single_oversized_model_is_admitted(self, model):
        cache = ModelCache(max_models=4, max_bytes=1)
        cache.put(make_key("a"), model)
        assert len(cache) == 1  # never evict down to empty

    def test_counters(self, model):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            cache = ModelCache(max_models=1)
            cache.get(make_key("a"))
            cache.put(make_key("a"), model)
            cache.get(make_key("a"))
            cache.put(make_key("b"), model)
        assert registry.counter("serve.cache.miss") == 1
        assert registry.counter("serve.cache.hit") == 1
        assert registry.counter("serve.cache.evict") == 1

    def test_warm_start_round_trip(self, tmp_path, graph, model):
        warm = tmp_path / "warm"
        a = ModelCache(max_models=2, warm_dir=warm)
        key = ModelKey.for_graph(graph, 4, 0, "scipy", "serial")
        path = a.store_warm(key, model)
        assert path is not None
        # A fresh cache (fresh process, conceptually) warm-loads it.
        b = ModelCache(max_models=2, warm_dir=warm)
        loaded = b.get(key)
        assert loaded is not None
        assert loaded.coarse == model.coarse
        assert np.array_equal(loaded.pi, model.pi)

    def test_warm_archive_with_wrong_key_is_ignored(self, tmp_path, graph,
                                                    model):
        warm = tmp_path / "warm"
        a = ModelCache(max_models=2, warm_dir=warm)
        key = ModelKey.for_graph(graph, 4, 0, "scipy", "serial")
        path = a.store_warm(key, model)
        other = make_key("forged", r=9)
        (warm / (other.token() + ".npz")).write_bytes(
            pathlib.Path(path).read_bytes()
        )
        b = ModelCache(max_models=2, warm_dir=warm)
        assert b.get(other) is None  # stamped key does not match

    def test_corrupt_warm_archive_degrades_to_miss(self, tmp_path, graph):
        warm = tmp_path / "warm"
        warm.mkdir()
        key = ModelKey.for_graph(graph, 4, 0, "scipy", "serial")
        (warm / (key.token() + ".npz")).write_bytes(b"not an archive")
        cache = ModelCache(max_models=2, warm_dir=warm)
        assert cache.get(key) is None


class TestSamplePool:
    def test_grow_only_and_reuse(self, model):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            pool = SamplePool(model.coarse, rng=0)
            assert pool.ensure(100) == 100
            assert pool.size == 100
            assert pool.ensure(50) == 50   # pure reuse, no growth
            assert pool.size == 100
            assert pool.ensure(150) == 150
        assert registry.counter("serve.pool.reuse") >= 150
        assert registry.counter("serve.pool.drawn") == 150

    def test_prefix_scoring_matches_pool_size(self, model):
        """The prefix estimate is identical whether or not the pool has
        grown past it — the coalescing correctness property."""
        seeds = np.array([0, 1])
        small = SamplePool(model.coarse, rng=7)
        small.ensure(400)
        v_small = small.estimator(400).estimate(model.coarse, seeds)
        big = SamplePool(model.coarse, rng=7)
        big.ensure(2_000)  # same stream, grown further
        v_prefix = big.estimator(400).estimate(model.coarse, seeds)
        assert v_small == v_prefix

    def test_deadline_already_passed_stops_growth(self, model):
        pool = SamplePool(model.coarse, rng=0, chunk_sets=8)
        pool.ensure(16)
        achieved = pool.ensure(10_000, deadline=0.0)  # monotonic() > 0
        assert achieved == 16  # kept what it had, drew nothing new

    def test_maximizer_is_deterministic(self, model):
        pool = SamplePool(model.coarse, rng=1)
        a = pool.maximizer(500).select(model.coarse, 3)
        b = pool.maximizer(500).select(model.coarse, 3)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert a.estimated_influence == b.estimated_influence

    def test_maximizer_rejects_foreign_graph(self, model, graph):
        pool = SamplePool(model.coarse, rng=1)
        with pytest.raises(AlgorithmError):
            pool.maximizer(100).select(graph, 2)


class TestInfluenceService:
    def test_batched_equals_sequential_bitwise(self, graph):
        seed_sets = [[0], [1, 2], [3, 4, 5], [0], [7]]
        config = ServiceConfig(r=4, n_samples=2_000, min_samples=64)
        with InfluenceService(config) as svc:
            batched = svc.estimate_many(graph, seed_sets)
        with InfluenceService(config) as svc:
            sequential = [svc.estimate(graph, s) for s in seed_sets]
        assert [q.value for q in batched] == [q.value for q in sequential]
        assert not any(q.degraded for q in batched)

    def test_model_is_cached_across_queries(self, graph):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                                min_samples=64)) as svc:
                svc.estimate(graph, [0])
                svc.estimate(graph, [1])
                svc.maximize(graph, 2)
        assert registry.counter("serve.cache.miss") == 1
        assert registry.counter("serve.cache.hit") == 2

    def test_concurrent_queries_coalesce_and_match(self, graph):
        """Many threads against one service return exactly the values a
        sequential run returns, despite sharing one pool."""
        seed_sets = [[i] for i in range(12)]
        config = ServiceConfig(r=4, n_samples=1_000, min_samples=64,
                               max_workers=4)
        with InfluenceService(config) as svc:
            expected = [svc.estimate(graph, s).value for s in seed_sets]
        with InfluenceService(config) as svc:
            values = [None] * len(seed_sets)
            errors = []

            def worker(i):
                try:
                    values[i] = svc.estimate(graph, seed_sets[i]).value
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(seed_sets))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert values == expected

    def test_backpressure_rejects_past_the_queue(self, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64,
                               max_workers=1, max_pending=0)
        with InfluenceService(config) as svc:
            svc.model_for(graph)  # build outside the measured path
            with pytest.raises(BudgetExceededError):
                # Batch of 3 against capacity 1 -> rejected on admission.
                svc.estimate_many(graph, [[0], [1], [2]])
            # The failed batch released its slots once its one admitted
            # query drained; the service keeps working.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    assert svc.estimate(graph, [0]).value > 0
                    break
                except BudgetExceededError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

    def test_deadline_degrades_with_report(self, graph):
        config = ServiceConfig(r=4, n_samples=200_000, min_samples=64,
                               chunk_samples=64, deadline_seconds=1e-9,
                               report_samples=50)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                result = svc.estimate(graph, [0])
        assert result.degraded
        assert result.n_samples < result.requested_samples
        assert result.n_samples >= 64  # the min_samples floor always lands
        assert result.report is not None
        assert result.report.estimation_eps <= 1.0
        assert registry.counter("serve.deadline.degraded") == 1

    def test_batched_deadline_degrades_every_query(self, graph):
        # The batched path must account degradation per query: each entry
        # of the batch gets its own serve.deadline.degraded increment and
        # its own achieved-accuracy report.
        seed_sets = [[0], [1, 2], [3], [4, 5, 6]]
        config = ServiceConfig(r=4, n_samples=200_000, min_samples=64,
                               chunk_samples=64, deadline_seconds=1e-9,
                               report_samples=50)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                results = svc.estimate_many(graph, seed_sets)
        assert len(results) == len(seed_sets)
        assert all(r.degraded for r in results)
        assert all(r.n_samples >= 64 for r in results)
        assert all(r.report is not None for r in results)
        assert registry.counter("serve.deadline.degraded") == len(seed_sets)
        # Degraded batched answers are still the deterministic prefix
        # values: re-asking with the achieved size reproduces them.
        with InfluenceService(ServiceConfig(
                r=4, n_samples=200_000, min_samples=64,
                chunk_samples=64)) as svc:
            for seeds, result in zip(seed_sets, results):
                again = svc.estimate(graph, seeds,
                                     n_samples=result.n_samples)
                assert again.value == result.value

    def test_maximize_deterministic_and_valid(self, graph):
        config = ServiceConfig(r=4, n_samples=2_000, min_samples=64)
        with InfluenceService(config) as svc:
            a = svc.maximize(graph, 3)
            b = svc.maximize(graph, 3)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert len(set(a.seeds.tolist())) == 3
        assert all(0 <= s < graph.n for s in a.seeds)

    def test_warm_dir_round_trip(self, tmp_path, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64,
                               warm_dir=str(tmp_path / "warm"))
        with InfluenceService(config) as svc:
            first = svc.estimate(graph, [0])
            assert svc.persist(graph) is not None
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                again = svc.estimate(graph, [0])
        assert registry.counter("serve.cache.warm_hit") == 1
        assert again.value == first.value

    def test_stats_shape(self, graph):
        with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                            min_samples=64)) as svc:
            svc.estimate(graph, [0])
            stats = svc.stats()
        assert stats["models"] == 1
        assert stats["model_bytes"] > 0
        assert list(stats["pools"].values()) == [500]
        json.dumps(stats)  # must be JSON-able for /stats


class TestHTTP:
    @pytest.fixture
    def served(self, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64)
        service = InfluenceService(config)
        server = make_server(service, graph, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}", service
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def _post(self, url, body):
        req = urllib.request.Request(
            url, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_round_trip(self, served, graph):
        base, service = served
        with urllib.request.urlopen(base + "/healthz") as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        status, body = self._post(base + "/estimate", {"seeds": [0, 1]})
        assert status == 200
        expected = service.estimate(graph, [0, 1])
        assert body["value"] == expected.value
        status, body = self._post(base + "/maximize", {"k": 2})
        assert status == 200
        assert len(body["seeds"]) == 2
        with urllib.request.urlopen(base + "/stats") as resp:
            assert json.loads(resp.read())["models"] == 1

    def test_error_mapping(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/estimate", {"not_seeds": [0]})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/estimate", {"seeds": []})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/nope", {"seeds": [0]})
        assert exc.value.code == 404

    def test_malformed_content_length_is_bad_request(self, served):
        # Regression: int() on the attacker-controlled Content-Length
        # header used to sit outside the handler's error mapping, turning
        # a malformed header into an unhandled 500.  It must be a clean
        # 400 with a JSON error body — and because the body was never
        # consumed, the desynced keep-alive connection must close instead
        # of parsing body bytes as the next request line.
        base, _ = served
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            conn.settimeout(5)
            conn.sendall(
                b"POST /estimate HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: banana\r\n"
                b"\r\n"
                b'{"seeds": [0]}'
            )
            raw = b""
            while True:  # server closes the connection -> read to EOF
                chunk = conn.recv(4096)
                if not chunk:
                    break
                raw += chunk
        status_line = raw.split(b"\r\n", 1)[0]
        assert b" 400 " in status_line
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert "Content-Length" in body["error"]
