"""The ``serve-read`` and ``serve-live`` workloads: ``repro serve`` over HTTP.

Both serve the ``com-friendster`` analogue, which coarsens well (H keeps
about 7.5% of the edges), from an edge-list file written before timing.
The server runs with ``--workers 2`` (the box has two cores) and the load
is one client process with at most two threads and two keep-alive
connections.  Every request is built from the workload seed before the
server starts.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import loadgen
from common import (
    HERE,
    BenchError,
    Outcome,
    SpeedScale,
    covered_seconds,
    median,
    percentile,
    reset_peak_rss,
    spawn,
    stop,
    vm_hwm_mb,
    wait_for_line,
    write_graph,
)

GRAPH = "com-friendster"
SETUPS = 3
#: serve-read: share of phase A spent on reads, the rest on /maximize.
READ_SHARE = 0.7
#: serve-read: every EVERY-th phase-A request is an /estimate_many batch.
EVERY, BATCH = 8, 16
SEEDS_MAX = 50
K_RANGE = (5, 50)
#: serve-read: served answers compared bit for bit with an in-process
#: service after the timed phase.
CHECK_ESTIMATES, CHECK_MAXIMIZE = 24, 2
#: serve-live: deltas per /apply_deltas and reads per mutation.
DELTAS, READS = 4, 4
#: Requests planned per connection; far more than a run can send.
PLAN = 6000

READ_ARGS = ["--sampler", "stream", "--simulations", "10000"]
LIVE_ARGS = ["--simulations", "2000"]


# -- the server process ------------------------------------------------------

class Server:
    def __init__(self, ctx, edges: str, args: list, traced: bool,
                 tag: str) -> None:
        self.spans_path = os.path.join(ctx.work, f"spans-{tag}.json")
        cli = ["serve", edges, "--port", "0", "--workers", "2", *args]
        if traced:
            cmd = [os.path.join(HERE, "serve_launcher.py"),
                   self.spans_path, *cli]
        else:
            cmd = ["-m", "repro", *cli]
        self.started = time.perf_counter()
        self.proc = spawn(cmd, os.path.join(ctx.work, f"stderr-{tag}.txt"))
        try:
            line = wait_for_line(self.proc, "serving on")
        except BenchError:
            stop(self.proc)
            raise
        self.port = int(line.split("//", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        stop(self.proc)

    def spans(self) -> list:
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)


def _warm(server: Server, requests: list) -> float:
    """Send the warm-up requests in order; returns set-up seconds."""
    conn = loadgen.Connection(server.port)
    try:
        for request in requests:
            status, body = conn.roundtrip(request)
            if status != 200:
                raise BenchError(f"warm-up request failed ({status}): "
                                 f"{body[:200]!r}")
    finally:
        conn.close()
    return time.perf_counter() - server.started


def _start_ready(ctx, edges: str, args: list, warmup: list, traced: bool,
                 tag: str, speed: "SpeedScale | None" = None
                 ) -> "tuple[Server, float]":
    if speed is not None:
        speed.sample(reps=5)
    server = Server(ctx, edges, args, traced, tag)
    try:
        setup = _warm(server, warmup)
        reset_peak_rss(server.proc.pid)
    except BaseException:
        server.stop()
        raise
    return server, setup


def _setups(ctx, edges: str, args: list, warmup: list,
            speed: SpeedScale) -> list:
    """Set-up times of throwaway servers, so ``setup_s`` is a median."""
    times = []
    for i in range(SETUPS - 1):
        server, setup = _start_ready(ctx, edges, args, warmup, False,
                                     f"setup{i}", speed)
        server.stop()
        times.append(setup)
    return times


# -- request plans -------------------------------------------------------------

def _seed_set(rng, n: int) -> list:
    """1 to SEEDS_MAX distinct vertices, uniformly at random."""
    size = int(rng.integers(1, SEEDS_MAX + 1))
    seeds: dict = {}
    while len(seeds) < size:
        for v in rng.integers(0, n, size=size - len(seeds)).tolist():
            seeds[v] = None
    return list(seeds)


def _read_plan(rng, n: int, conn: int) -> "tuple[list, list]":
    """Phase A for one connection: /estimate plus a fixed share of
    /estimate_many batches.  Returns (request bytes, seed sets)."""
    requests, payloads = [], []
    for j in range(PLAN):
        rid = f"a{conn}-{j}"
        if j % EVERY == EVERY - 1:
            sets = [_seed_set(rng, n) for _ in range(BATCH)]
            requests.append(loadgen.request_bytes(
                "POST", "/estimate_many", rid, {"seed_sets": sets}))
        else:
            sets = [_seed_set(rng, n)]
            requests.append(loadgen.request_bytes(
                "POST", "/estimate", rid, {"seeds": sets[0]}))
        payloads.append(sets)
    return requests, payloads


def _maximize_plan(rng) -> "tuple[list, list]":
    ks = [int(k) for k in rng.integers(K_RANGE[0], K_RANGE[1] + 1,
                                        size=PLAN // 10)]
    return ([loadgen.request_bytes("POST", "/maximize", f"b-{j}", {"k": k})
             for j, k in enumerate(ks)], ks)


def _live_plan(rng, graph) -> "tuple[list, list]":
    """Cycles of one /apply_deltas (half inserts with p ~ Exp(mean 0.1),
    half deletes) and READS /estimate, valid against the evolving edge
    set so no delta is rejected."""
    tails, heads, _ = graph.edge_arrays()
    edges = list(zip(tails.tolist(), heads.tolist()))
    where = {edge: i for i, edge in enumerate(edges)}
    n = graph.n
    requests, kinds = [], []
    j = 0
    while len(requests) < PLAN:
        deltas = []
        for d in range(DELTAS):
            if d % 2 == 0:
                while True:
                    u, v = (int(x) for x in rng.integers(0, n, size=2))
                    if u != v and (u, v) not in where:
                        break
                p = float(rng.exponential(0.1))
                while not 0.0 < p <= 1.0:
                    p = float(rng.exponential(0.1))
                where[(u, v)] = len(edges)
                edges.append((u, v))
                deltas.append({"op": "insert", "u": u, "v": v, "p": p})
            else:
                i = int(rng.integers(len(edges)))
                u, v = edges[i]
                last = edges.pop()
                if i < len(edges):
                    edges[i] = last
                    where[last] = i
                del where[(u, v)]
                deltas.append({"op": "delete", "u": u, "v": v})
        requests.append(loadgen.request_bytes(
            "POST", "/apply_deltas", f"m-{j}", {"deltas": deltas}))
        kinds.append(("mutate", None, f"m-{j}"))
        for r in range(READS):
            seeds = _seed_set(rng, n)
            requests.append(loadgen.request_bytes(
                "POST", "/estimate", f"r-{j}-{r}", {"seeds": seeds}))
            kinds.append(("read", seeds, f"r-{j}-{r}"))
        j += 1
    return requests, kinds


def _plan_rng(seed: int, stream: int):
    return np.random.default_rng([seed, 0x5E2E, stream])


# -- reply checks --------------------------------------------------------------

def _estimate_ok(result: dict, n: int) -> bool:
    """An RIS estimate is n * covered / theta for an integer ``covered`` in
    [0, theta]; anything else is a wrong answer.  (It may legitimately
    fall below |S| for small seed sets, which the report counts.)"""
    theta = result["n_samples"]
    if result["degraded"] or theta != result["requested_samples"]:
        return False
    covered = result["value"] * theta / n
    return 0 <= covered <= theta and abs(covered - round(covered)) < 1e-6


def _below_seeds(result: dict, seeds: list) -> bool:
    return result["value"] < len(seeds)


# -- serve-read ------------------------------------------------------------------

def run_read(ctx) -> Outcome:
    edges = os.path.join(ctx.work, "graph.txt")
    graph = write_graph(GRAPH, ctx.seed, edges)
    n = graph.n
    plans = [_read_plan(_plan_rng(ctx.seed, c), n, c) for c in (0, 1)]
    max_requests, ks = _maximize_plan(_plan_rng(ctx.seed, 2))
    warmup = [loadgen.request_bytes("POST", "/estimate", "w-0",
                                    {"seeds": [0]}),
              loadgen.request_bytes("POST", "/maximize", "w-1", {"k": 10})]

    def measure(server: Server, seconds: float) -> dict:
        conns = [loadgen.Connection(server.port) for _ in range(2)]
        try:
            a_end = time.perf_counter() + seconds * READ_SHARE
            phase_a = loadgen.parallel_closed_loops(
                conns, [p[0] for p in plans], a_end)
            b_end = time.perf_counter() + seconds * (1 - READ_SHARE)
            phase_b = loadgen.closed_loop(conns[0], max_requests, b_end)
        finally:
            for conn in conns:
                conn.close()
        return {"a": phase_a, "b": phase_b,
                "peak_rss_mb": vm_hwm_mb(server.proc.pid)}

    setup_speed = SpeedScale()
    setups = ([] if ctx.trace
              else _setups(ctx, edges, READ_ARGS, warmup, setup_speed))
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    server, setup = _start_ready(ctx, edges, READ_ARGS, warmup, False, "main",
                                 setup_speed)
    setups.append(setup)
    try:
        run = measure(server, seconds)
    finally:
        server.stop()
    traced = None
    if ctx.trace:
        tserver, _ = _start_ready(ctx, edges, READ_ARGS, warmup, True,
                                  "traced")
        try:
            traced = measure(tserver, seconds)
        finally:
            tserver.stop()
        traced["spans"] = tserver.spans()

    out = Outcome(0, 0)
    stats = _tally_read(out, run, plans, ks, n)
    if traced is not None:
        tstats = _tally_read(out, traced, plans, ks, n)
    out.failed += _check_read_bits(edges, run, plans, ks)
    est = stats["estimate_ms"]
    # The timed latencies are ~99% a kernel delayed-ACK timer (see
    # README), which does not follow CPU speed, so only set-up is scaled.
    out.metrics = {
        "setup_s": median(setups) * setup_speed.factor,
        "peak_rss_mb": run["peak_rss_mb"],
        "p50_ms": median(est),
        "ops_per_s": stats["read_qps"],
    }
    out.report = {
        "graph": {"name": GRAPH, "n": n, "m": graph.m},
        "setup_speed_factor": setup_speed.factor,
        "raw_setup_s": median(setups),
        "setup_s_each": setups,
        "estimate_p50_ms": median(est),
        "estimate_p90_ms": percentile(est, 90),
        "estimate_p99_ms": percentile(est, 99),
        "estimate_count": len(est),
        "estimate_many_p50_ms": _p50(stats["estimate_many_ms"]),
        "read_qps": stats["read_qps"],
        "maximize_p50_ms": _p50(stats["maximize_ms"]),
        "maximize_count": len(stats["maximize_ms"]),
        "estimates_below_seed_count": stats["below"],
    }
    if traced is not None:
        client = _client_requests(traced["a"], traced["b"])
        out.layers = _serve_layers(traced["spans"], client)
        out.layers["trace.overhead_pct"] = _overhead(
            median(tstats["estimate_ms"]), median(est))
        out.report["traced_p50_ms"] = median(tstats["estimate_ms"])
    return out


def _p50(values: list) -> float:
    return median(values) if values else 0.0


def _overhead(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def _client_requests(phase_a: list, phase_b: list) -> list:
    """``(req id, start, end)`` for every timed request."""
    out = []
    for conn, results in enumerate(phase_a):
        for index, start, end, _status, _body in results:
            out.append((f"a{conn}-{index}", start, end))
    for index, start, end, _status, _body in phase_b:
        out.append((f"b-{index}", start, end))
    return out


def _tally_read(out: Outcome, run: dict, plans: list, ks: list,
                n: int) -> dict:
    """Check every timed reply; counts into ``out``, latencies back."""
    estimate_ms, many_ms, maximize_ms = [], [], []
    answered = 0
    below = 0
    starts, ends = [], []
    for conn, results in enumerate(run["a"]):
        payloads = plans[conn][1]
        for index, start, end, status, body in results:
            out.attempted += 1
            starts.append(start)
            ends.append(end)
            sets = payloads[index]
            ok = status == 200
            if ok:
                reply = json.loads(body)
                replies = (reply["results"] if index % EVERY == EVERY - 1
                           else [reply])
                ok = len(replies) == len(sets) and all(
                    _estimate_ok(r, n) for r in replies)
                below += sum(_below_seeds(r, s)
                             for r, s in zip(replies, sets))
            if not ok:
                out.failed += 1
                continue
            answered += len(sets)
            latency = (end - start) * 1e3
            (estimate_ms if index % EVERY != EVERY - 1
             else many_ms).append(latency)
    for index, start, end, status, body in run["b"]:
        out.attempted += 1
        ok = status == 200
        if ok:
            seeds = json.loads(body)["seeds"]
            ok = (len(seeds) == ks[index] == len(set(seeds))
                  and all(0 <= v < n for v in seeds))
        if ok:
            maximize_ms.append((end - start) * 1e3)
        else:
            out.failed += 1
    if not estimate_ms:
        raise BenchError("no /estimate completed in the timed phase")
    return {"estimate_ms": estimate_ms, "estimate_many_ms": many_ms,
            "maximize_ms": maximize_ms, "below": below,
            "read_qps": answered / (max(ends) - min(starts))}


def _check_read_bits(edges: str, run: dict, plans: list, ks: list) -> int:
    """Served answers must equal an in-process service bit for bit."""
    from repro.graph import read_edge_list
    from repro.serve import InfluenceService, ServiceConfig

    graph = read_edge_list(edges)
    config = ServiceConfig(r=16, seed=0, sampler="stream", n_samples=10_000,
                           max_workers=2)
    failed = 0
    with InfluenceService(config) as service:
        sampled = [r for r in run["a"][0] if r[0] % EVERY != EVERY - 1]
        for index, _s, _e, status, body in sampled[:CHECK_ESTIMATES]:
            seeds = plans[0][1][index][0]
            expect = service.estimate(graph, seeds).value
            failed += status != 200 or json.loads(body)["value"] != expect
        for index, _s, _e, status, body in run["b"][:CHECK_MAXIMIZE]:
            expect = service.maximize(graph, ks[index])
            reply = json.loads(body) if status == 200 else {}
            failed += (reply.get("seeds") != expect.seeds.tolist()
                       or reply.get("estimated_influence")
                       != expect.estimated_influence)
    return failed


# -- serve-live ------------------------------------------------------------------

def run_live(ctx) -> Outcome:
    edges = os.path.join(ctx.work, "graph.txt")
    graph = write_graph(GRAPH, ctx.seed, edges)
    n = graph.n
    requests, kinds = _live_plan(_plan_rng(ctx.seed, 3), graph)
    warmup = [loadgen.request_bytes("POST", "/estimate", "w-0",
                                    {"seeds": [0]})]

    speed = SpeedScale()

    def sample_speed(index: int) -> None:
        # Once per cycle, while the server is idle between requests.
        if kinds[index][0] == "mutate":
            speed.sample()

    def measure(server: Server, seconds: float, before=None) -> dict:
        conn = loadgen.Connection(server.port)
        try:
            results = loadgen.closed_loop(
                conn, requests, time.perf_counter() + seconds, before)
            status, body = conn.roundtrip(
                loadgen.request_bytes("GET", "/stats", "stats"))
        finally:
            conn.close()
        if status != 200:
            raise BenchError("/stats failed")
        return {"results": results, "stats": json.loads(body),
                "peak_rss_mb": vm_hwm_mb(server.proc.pid)}

    setup_speed = SpeedScale()
    setups = ([] if ctx.trace
              else _setups(ctx, edges, LIVE_ARGS, warmup, setup_speed))
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    server, setup = _start_ready(ctx, edges, LIVE_ARGS, warmup, False, "main",
                                 setup_speed)
    setups.append(setup)
    try:
        run = measure(server, seconds, sample_speed)
    finally:
        server.stop()
    traced = None
    if ctx.trace:
        tserver, _ = _start_ready(ctx, edges, LIVE_ARGS, warmup, True,
                                  "traced")
        try:
            traced = measure(tserver, seconds)
        finally:
            tserver.stop()
        traced["spans"] = tserver.spans()

    out = Outcome(0, 0)
    stats = _tally_live(out, run, kinds, n)
    if traced is not None:
        tstats = _tally_live(out, traced, kinds, n)
    first = stats["first_read_ms"]
    out.metrics = {
        "setup_s": median(setups) * setup_speed.factor,
        "peak_rss_mb": run["peak_rss_mb"],
        "p50_ms": median(first) * speed.factor,
        "ops_per_s": stats["requests_per_s"] / speed.factor,
    }
    out.report = {
        "graph": {"name": GRAPH, "n": n, "m": graph.m},
        "speed_factor": speed.factor,
        "setup_speed_factor": setup_speed.factor,
        "raw_setup_s": median(setups),
        "setup_s_each": setups,
        "mutation_p50_ms": median(stats["mutation_ms"]),
        "first_read_p50_ms": median(first),
        "estimate_p50_ms": _p50(stats["warm_read_ms"]),
        "mutations": len(stats["mutation_ms"]),
        "requests_per_s": stats["requests_per_s"],
        "retained_ratio": stats["retained"] / len(stats["mutation_ms"]),
        "estimates_below_seed_count": stats["below"],
        "dynamic_updates": run["stats"]["dynamic"][0]["updates"],
    }
    if traced is not None:
        layers = _serve_layers(traced["spans"], tstats["timeline"])
        updates = traced["stats"]["dynamic"][0]["updates"]
        mutations = max(1, len(tstats["mutation_ms"]))
        recomputed = updates["scc_recomputations"]
        layers["core.dynamic.scc_recomputations"] = recomputed / mutations
        layers["core.dynamic.prune_ratio"] = (
            updates["scc_pruned"] / max(1, updates["scc_pruned"] + recomputed))
        layers["serve.dynamic.retained_ratio"] = tstats["retained"] / mutations
        layers["trace.overhead_pct"] = _overhead(
            median(tstats["first_read_ms"]), median(first))
        out.report["traced_p50_ms"] = median(tstats["first_read_ms"])
        out.layers = layers
    return out


def _tally_live(out: Outcome, run: dict, kinds: list, n: int) -> dict:
    mutation_ms, first_ms, warm_ms = [], [], []
    retained = below = 0
    epoch = 0
    fresh = False
    timeline = []
    results = run["results"]
    for index, start, end, status, body in results:
        out.attempted += 1
        kind, seeds, rid = kinds[index]
        reply = json.loads(body) if status == 200 else None
        latency = (end - start) * 1e3
        timeline.append((rid, start, end))
        if kind == "mutate":
            ok = (reply is not None and reply["epoch"] == epoch + 1
                  and reply["applied"] == DELTAS)
            if ok:
                epoch += 1
                retained += bool(reply["model_retained"])
                mutation_ms.append(latency)
                fresh = True
            else:
                out.failed += 1
            continue
        ok = (reply is not None and reply["epoch"] == epoch
              and _estimate_ok(reply, n))
        if not ok:
            out.failed += 1
            continue
        below += _below_seeds(reply, seeds)
        (first_ms if fresh else warm_ms).append(latency)
        fresh = False
    if not first_ms:
        raise BenchError("no read followed a mutation in the timed phase")
    # One connection in closed loop: throughput is requests per second of
    # request time (the client's untimed speed samples are left out).
    busy = sum(end - start for _, start, end in timeline)
    return {"mutation_ms": mutation_ms, "first_read_ms": first_ms,
            "warm_read_ms": warm_ms, "retained": retained, "below": below,
            "requests_per_s": len(results) / busy, "timeline": timeline}


# -- per-layer numbers from a traced server ---------------------------------------

def _serve_layers(spans: list, client: list) -> dict:
    """Per-layer metrics from the traced server's spans.

    Request-path layers are means per timed request (spans joined to the
    client's timings by request id); set-up layers are totals over the
    server's start-up, which ends at the first timed request.
    """
    lo = min(start for _, start, _ in client)
    by_req: dict = {}
    setup: dict = {}
    rr_count = rr_time = rr_size = rr_bytes = 0
    build_ratio = 0.0
    for name, start, end, req, info in spans:
        if name == "diffusion.rr_set":
            rr_count += 1
            rr_time += end - start
            rr_size += info[0]
            rr_bytes += info[1]
        if req is not None:
            by_req.setdefault(req, []).append((name, start, end, info))
        elif end <= lo:
            setup.setdefault(name, []).append((start, end))
            if name == "serve.model.build" and info is not None:
                build_ratio = info
    requests = len(client)
    sums: dict = {}
    wire = handler_self = service_self = handled = 0.0
    estimates = []
    greedy = []
    applies = []
    drawn = 0
    for rid, start, end in client:
        spans_of = by_req.get(rid, [])
        handler = [s for s in spans_of if s[0] == "serve.http.handler"]
        if not handler:
            raise BenchError(f"no handler span for request {rid}")
        h = handler[0][2] - handler[0][1]
        handled += h
        wire += (end - start) - h
        calls = [s for s in spans_of if s[0] in ("serve.service.call",
                                                  "serve.dynamic.apply")]
        inner = sum(s[2] - s[1] for s in calls)
        handler_self += h - inner
        children = [(s[1], s[2]) for s in spans_of if s[0] in (
            "core.frameworks.estimate", "serve.pool.ensure",
            "serve.pool.coverage", "serve.pool.greedy", "serve.model.build")]
        for _, cs, ce, _ in (s for s in calls
                             if s[0] == "serve.service.call"):
            service_self += (ce - cs) - covered_seconds(children, cs, ce)
        for name, s, e, info in spans_of:
            sums[name] = sums.get(name, 0.0) + (e - s)
            if name == "core.frameworks.estimate":
                estimates.append(e - s)
            elif name == "serve.pool.greedy":
                greedy.append(e - s)
            elif name == "serve.dynamic.apply":
                applies.append(e - s)
            elif name == "serve.pool.ensure":
                drawn += info
                if info:
                    sums["grow"] = sums.get("grow", 0.0) + (e - s)
    span_total = sum(end - start for _, start, end in client)

    def per_req(name: str) -> float:
        return 1e3 * sums.get(name, 0.0) / requests

    def setup_ms(name: str) -> float:
        return 1e3 * sum(e - s for s, e in setup.get(name, []))

    def mean_ms(values: list) -> float:
        return 1e3 * sum(values) / len(values) if values else 0.0

    return {
        "graph.io.read_ms": setup_ms("graph.io.read"),
        "serve.model.build_ms": setup_ms("serve.model.build"),
        "diffusion.sample_ms": setup_ms("diffusion.sample"),
        "scc.kernel_ms": setup_ms("scc.kernel"),
        "scc.rounds": float(len(setup.get("scc.kernel", []))),
        "partition.meet_ms": setup_ms("partition.meet"),
        "core.contract_ms": setup_ms("core.contract"),
        "core.coarse_edge_ratio": build_ratio,
        "serve.http.handler_ms": 1e3 * handler_self / requests,
        "serve.http.wire_ms": 1e3 * wire / requests,
        "serve.service.dispatch_ms": 1e3 * service_self / requests,
        "core.frameworks.estimate_ms": mean_ms(estimates),
        "serve.pool.grow_ms": per_req("grow"),
        "serve.pool.sets_drawn": drawn / requests,
        "serve.pool.coverage_ms": per_req("serve.pool.coverage"),
        "serve.pool.greedy_ms": mean_ms(greedy),
        "serve.pool.bytes": float(rr_bytes),
        "diffusion.rr_set_us": 1e6 * rr_time / rr_count if rr_count else 0.0,
        "diffusion.rr_set_size": rr_size / rr_count if rr_count else 0.0,
        "serve.dynamic.apply_ms": mean_ms(applies),
        "serve.dynamic.scc_ms": (1e3 * sums.get("scc.kernel", 0.0)
                                 / len(applies) if applies else 0.0),
        "trace.coverage": handled / span_total,
    }
