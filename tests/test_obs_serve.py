"""End-to-end tracing tests: one request, one tree of spans.

Both parts run through one :class:`ServerThread` harness. Part one drives
a single in-process :class:`DiffServer`; part two is the acceptance path —
a real 2-worker :class:`ClusterServer` where the trace
crosses the client, the router's proxy leg, and a worker subprocess, and is
reassembled shard-by-shard through ``GET /v1/trace/<id>``. The SIGKILL test
runs last: a replayed request must leave its failover attempt visible in
the span tree instead of pretending the first try succeeded.
"""

import http.client
import json
import os
import signal
import time

import pytest

from repro.obs.export import build_span_tree, load_spans_jsonl, merge_spans, validate_trace
from repro.serve.app import DiffServer, ServeConfig
from repro.serve.client import DiffServiceClient
from repro.serve.cluster import ClusterConfig, ClusterServer
from repro.serve.lifecycle import ServerThread
from repro.workload import MutationEngine, random_tree

OLD_SEXPR = '(D (P (S "alpha one") (S "beta two")))'
NEW_SEXPR = '(D (P (S "beta two") (S "alpha one") (S "gamma three")))'

STAGE_NAMES = {"index", "match", "postprocess", "editscript"}


def fetch_json(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def make_pairs(count, seed=42):
    pairs = []
    for i in range(count):
        old = random_tree(seed + i)
        new = MutationEngine(seed + 100 + i).mutate(old, 4).tree
        pairs.append((old, new))
    return pairs


# ---------------------------------------------------------------------------
# Single worker, real sockets
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_server():
    config = ServeConfig(
        port=0, workers=2, queue_capacity=8,
        deadline_ms=10_000.0, trace_fraction=1.0,
    )
    with ServerThread(DiffServer(config)) as handle:
        yield handle


class TestServerTracing:
    def test_client_originated_trace_spans_every_layer(self, traced_server):
        with DiffServiceClient(
            port=traced_server.port, retries=0, timeout=10.0, trace_fraction=1.0
        ) as client:
            out = client.diff(OLD_SEXPR, NEW_SEXPR)
            tid = client.last_trace_id
            assert tid is not None
            assert out["trace_id"] == tid
            client_spans = client.tracer.trace(tid)

        status, view = fetch_json(traced_server.port, f"/v1/trace/{tid}")
        assert status == 200
        assert view["trace_id"] == tid
        assert view["complete"] is True
        assert view["protocol"] == "repro-serve/1"

        merged = merge_spans(client_spans, view["spans"])
        assert validate_trace(merged) == []
        roots, children = build_span_tree(merged)
        assert [r["name"] for r in roots] == ["client.request"]

        names = {span["name"] for span in merged}
        assert {"client.request", "client.attempt", "worker",
                "admission", "engine"} <= names
        assert names & STAGE_NAMES  # per-stage child spans made it across

        # The worker bracket hangs off the client's attempt span.
        by_name = {span["name"]: span for span in merged}
        attempt = by_name["client.attempt"]
        worker = by_name["worker"]
        assert worker["parent"] == attempt["span"]
        assert by_name["engine"]["parent"] == worker["span"]

    def test_server_samples_headerless_requests(self, traced_server):
        # No client tracer at all: the server's own fraction=1.0 kicks in
        # and mints the trace, echoing the id back in the payload.
        with DiffServiceClient(port=traced_server.port, retries=0,
                               timeout=10.0) as client:
            out = client.diff(OLD_SEXPR, NEW_SEXPR)
        tid = out["trace_id"]
        status, view = fetch_json(traced_server.port, f"/v1/trace/{tid}")
        assert status == 200
        roots, _ = build_span_tree(view["spans"])
        assert [r["name"] for r in roots] == ["worker"]
        assert view["complete"] is True

    def test_metrics_expose_tracer_stats(self, traced_server):
        with DiffServiceClient(port=traced_server.port, retries=0,
                               timeout=10.0) as client:
            client.diff(OLD_SEXPR, NEW_SEXPR)
            snap = client.metrics()
        trace_stats = snap["trace"]
        assert trace_stats["spans_recorded"] >= 3
        assert trace_stats["spans_open"] == 0
        assert trace_stats["traces_started"] >= 1


def test_unsampled_request_records_nothing_but_is_still_measured():
    config = ServeConfig(port=0, workers=1, queue_capacity=4, trace_fraction=0.0)
    with ServerThread(DiffServer(config)) as handle:
        with DiffServiceClient(port=handle.port, retries=0,
                               timeout=10.0) as client:
            out = client.diff(OLD_SEXPR, NEW_SEXPR)
            snap = client.metrics()
        stats = handle.server.tracer.stats()
    assert "trace_id" not in out
    assert stats["spans_recorded"] == 0 and stats["traces_started"] == 0
    # The untraced stage spans still time every stage and feed the metrics.
    assert set(out["stage_ms"]) == STAGE_NAMES
    assert {name: snap["stages"][name]["count"] for name in STAGE_NAMES} == dict.fromkeys(
        STAGE_NAMES, 1
    )
    assert snap["counters"]["leaf_compares"] > 0


def test_trace_export_flushes_on_drain(tmp_path):
    export = tmp_path / "spans.jsonl"
    config = ServeConfig(port=0, workers=1, queue_capacity=4,
                         trace_fraction=1.0, trace_export=str(export))
    with ServerThread(DiffServer(config)) as handle:
        with DiffServiceClient(port=handle.port, retries=0,
                               timeout=10.0) as client:
            out = client.diff(OLD_SEXPR, NEW_SEXPR)
    spans = load_spans_jsonl(export.read_text())
    mine = [s for s in spans if s["trace"] == out["trace_id"]]
    assert {"worker", "admission", "engine"} <= {s["name"] for s in mine}
    assert all(s["end"] is not None for s in mine)


# ---------------------------------------------------------------------------
# The acceptance path: 2-worker cluster, merged trace via the router
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster():
    config = ClusterConfig(
        port=0,
        workers=2,
        health_interval=0.2,
        backoff_base=0.1,
        serve=ServeConfig(port=0, workers=1, queue_capacity=16, cache_size=64),
    )
    thread = ServerThread(ClusterServer(config)).start()
    yield thread
    thread.stop()


class TestClusterTracing:
    def test_trace_crosses_client_router_and_worker(self, cluster):
        old, new = make_pairs(1, seed=5100)[0]
        with DiffServiceClient(
            port=cluster.port, retries=2, timeout=30.0, trace_fraction=1.0
        ) as client:
            out = client.diff(old, new)
            assert out["status"] == "ok"
            tid = client.last_trace_id
            assert out["trace_id"] == tid
            client_spans = client.tracer.trace(tid)

        status, view = fetch_json(cluster.port, f"/v1/trace/{tid}")
        assert status == 200
        assert view["complete"] is True
        assert view["workers"]  # at least one shard contributed spans

        merged = merge_spans(client_spans, view["spans"])
        assert validate_trace(merged) == []
        roots, children = build_span_tree(merged)
        assert [r["name"] for r in roots] == ["client.request"]

        by_name = {}
        for span in merged:
            by_name.setdefault(span["name"], span)
        chain = ["client.request", "client.attempt", "router.proxy",
                 "worker", "engine"]
        for parent_name, child_name in zip(chain, chain[1:]):
            assert by_name[child_name]["parent"] == by_name[parent_name]["span"], (
                f"{child_name} should hang off {parent_name}"
            )
        names = {s["name"] for s in merged}
        assert "admission" in names and names & STAGE_NAMES
        stage_spans = [s for s in merged if s["kind"] == "stage"]
        assert stage_spans
        engine = by_name["engine"]
        assert all(s["parent"] == engine["span"] for s in stage_spans)

    def test_router_trace_endpoint_rejects_garbage(self, cluster):
        status, body = fetch_json(cluster.port, "/v1/trace/zzz!")
        assert status == 400
        assert body["error"] == "bad_trace_id"
        status, body = fetch_json(cluster.port, "/v1/trace/" + "66" * 8)
        assert status == 404

    def test_sigkill_leaves_failover_span_in_the_trace(self, cluster):
        """Kill a worker, then trace requests through the replay window.

        At least one replayed request must show its failed proxy attempt —
        a ``router.proxy`` span closed ``failover`` — next to the attempt
        that succeeded on the ring successor.
        """
        with DiffServiceClient(port=cluster.port, retries=2) as probe:
            health = probe.request("GET", "/healthz")
        victim_id, victim = sorted(health["workers"].items())[0]
        victim_pid = victim["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        trace_ids = []
        with DiffServiceClient(
            port=cluster.port, retries=6, connect_retries=10,
            timeout=30.0, trace_fraction=1.0,
        ) as client:
            for old, new in make_pairs(8, seed=6200):
                out = client.diff(old, new)
                assert out["status"] == "ok"
                trace_ids.append(client.last_trace_id)

        failover_traces = []
        for tid in trace_ids:
            status, view = fetch_json(cluster.port, f"/v1/trace/{tid}")
            if status != 200:
                continue
            proxies = [s for s in view["spans"] if s["name"] == "router.proxy"]
            if any(s["status"] == "failover" for s in proxies):
                failover_traces.append((tid, view))
        assert failover_traces, (
            "no trace recorded a failover proxy attempt after SIGKILL"
        )
        # The replay chain is ordered: the failed attempt precedes the one
        # that answered, and both share the same parent attempt span.
        tid, view = failover_traces[0]
        proxies = sorted(
            (s for s in view["spans"] if s["name"] == "router.proxy"),
            key=lambda s: s["start"],
        )
        assert proxies[0]["status"] == "failover"
        assert proxies[-1]["status"] == "ok"
        assert len({s["parent"] for s in proxies}) == 1

        # Leave the module the way we found it: wait out the restart.
        deadline = time.time() + 60
        with DiffServiceClient(port=cluster.port, retries=2) as client:
            while time.time() < deadline:
                health = client.request("GET", "/healthz")
                info = health["workers"][victim_id]
                if info["state"] == "up" and info["pid"] != victim_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"{victim_id} never restarted: {health['workers']}")
