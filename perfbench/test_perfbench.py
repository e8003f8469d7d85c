"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The helper tests take a second; ``test_smoke`` runs every workload briefly
through ``run.py --smoke`` (a few minutes) and checks the result schema
against ``BENCHMARK.json`` and that every correctness check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loadgen  # noqa: E402
import run  # noqa: E402
import serve_bench  # noqa: E402
from common import covered_seconds, percentile  # noqa: E402


def test_covered_seconds_merges_overlaps_and_clips():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert covered_seconds(spans, 0.5, 10.0) == 1.5 + 1.0 + 1.0 + 1.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 99) == 7.0


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        body = self.rfile.read(int(self.headers["Content-Length"]))
        reply = json.dumps({"req": self.headers["X-Bench-Req"],
                            "body": json.loads(body)}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


def test_keep_alive_roundtrips_carry_request_ids():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        conn = loadgen.Connection(server.server_address[1])
        try:
            for i in range(3):
                status, body = conn.roundtrip(loadgen.request_bytes(
                    "POST", "/x", f"id-{i}", {"k": i}))
                assert status == 200
                assert json.loads(body) == {"req": f"id-{i}",
                                            "body": {"k": i}}
        finally:
            conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_live_plan_deltas_are_valid_against_the_evolving_edge_set():
    from repro.datasets import load_dataset

    graph = load_dataset("ca-hepph", "exp", 0)
    tails, heads, _ = graph.edge_arrays()
    present = set(zip(tails.tolist(), heads.tolist()))
    requests, kinds = serve_bench._live_plan(
        serve_bench._plan_rng(0, 3), graph)
    assert len(requests) == len(kinds) >= serve_bench.PLAN
    for request, (kind, _seeds, rid) in zip(requests, kinds):
        assert f"X-Bench-Req: {rid}\r\n".encode() in request
        if kind != "mutate":
            continue
        body = json.loads(request.split(b"\r\n\r\n", 1)[1])
        for delta in body["deltas"]:
            edge = (delta["u"], delta["v"])
            if delta["op"] == "insert":
                assert edge not in present and edge[0] != edge[1]
                assert 0.0 < delta["p"] <= 1.0
                present.add(edge)
            else:
                assert edge in present
                present.remove(edge)


def test_estimate_check_accepts_only_ris_values():
    good = {"value": 24000 * 37 / 2000, "n_samples": 2000,
            "requested_samples": 2000, "degraded": False}
    assert serve_bench._estimate_ok(good, 24000)
    assert serve_bench._estimate_ok(dict(good, value=0.0), 24000)
    assert not serve_bench._estimate_ok(dict(good, value=1.5), 24000)
    assert not serve_bench._estimate_ok(dict(good, value=24001.0), 24000)
    assert not serve_bench._estimate_ok(dict(good, degraded=True), 24000)


def test_schema_check_flags_missing_metrics_and_failures():
    declared = [{"name": "p50_ms", "unit": "ms"},
                {"name": "setup_s", "unit": "s"}]
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"},
                        "setup_s": {"value": 0.2, "unit": "s"}}}
    assert run._schema(good, declared) == []
    bad = dict(good, correct=False, failed=1,
               metrics={"p50_ms": {"value": 1.5, "unit": "s"}})
    assert len(run._schema(bad, declared)) == 3


def test_smoke():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr
