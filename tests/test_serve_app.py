"""Integration tests for the HTTP diff service (repro.serve.app).

A real server runs on a background thread bound to an ephemeral port; the
tests drive it through the real client over real sockets. Slow compute is
simulated by wrapping the engine's job runner, so overload and deadline
paths are deterministic without large inputs.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.serialization import tree_from_sexpr
from repro.serve import DiffServer, DiffServiceClient, ServeConfig, ServerThread, ServiceError
from repro.serve.protocol import PROTOCOL

OLD_SEXPR = '(D (P (S "alpha one") (S "beta two")))'
NEW_SEXPR = '(D (P (S "beta two") (S "alpha one") (S "gamma three")))'


def make_server(**overrides) -> ServerThread:
    options = dict(port=0, workers=2, queue_capacity=4, deadline_ms=10_000.0)
    options.update(overrides)
    return ServerThread(DiffServer(ServeConfig(**options)))


def slow_engine(handle: ServerThread, delay: float) -> None:
    """Make every job take at least *delay* seconds (install before start)."""
    engine = handle.server.engine
    original = engine._run_job

    def slowed(job_id, old, new, trace=None):
        time.sleep(delay)
        return original(job_id, old, new, trace)

    engine._run_job = slowed


@pytest.fixture(scope="module")
def server():
    with make_server() as handle:
        yield handle


@pytest.fixture
def client(server):
    with DiffServiceClient(port=server.port, retries=0, timeout=10.0) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL
        assert health["in_flight"] == 0

    def test_diff_roundtrip(self, client):
        out = client.diff(OLD_SEXPR, NEW_SEXPR)
        assert out["status"] == "ok"
        assert out["source"] == "computed"
        assert out["operations"] > 0
        assert out["script"]["records"]
        assert out["old_digest"] != out["new_digest"]

    def test_diff_accepts_tree_dicts_and_replays(self, client):
        from repro.editscript.script import EditScript

        old = tree_from_sexpr(OLD_SEXPR)
        new = tree_from_sexpr(NEW_SEXPR)
        out = client.diff(old, new)
        # identifiers in the response script bind to the submitted tree
        script = EditScript.from_dicts(out["script"]["records"])
        assert len(script) == out["operations"]
        assert out["cost"] == pytest.approx(script.cost())

    def test_identical_pair_short_circuits(self, client):
        out = client.diff(OLD_SEXPR, OLD_SEXPR)
        assert out["source"] == "digest"
        assert out["operations"] == 0

    def test_repeat_pair_hits_cache(self, client):
        pair = ('(D (P (S "cache me") (S "now")))', '(D (P (S "now") (S "cache me")))')
        first = client.diff(*pair)
        second = client.diff(*pair)
        assert first["source"] == "computed"
        assert second["source"] == "cache"
        assert second["operations"] == first["operations"]

    def test_batch(self, client):
        out = client.batch([(OLD_SEXPR, NEW_SEXPR), (OLD_SEXPR, OLD_SEXPR)])
        assert out["failed"] == 0
        assert len(out["jobs"]) == 2
        assert out["jobs"][1]["source"] == "digest"

    def test_verify_endpoint(self, client):
        out = client.verify(OLD_SEXPR, NEW_SEXPR)
        assert out["ok"] is True
        assert out["oracles"]
        assert out["protocol"] == PROTOCOL

    def test_verify_deep_chain_is_ok(self, client):
        # D → P → … → P, one sentence per level: 961 nodes, well under the
        # body cap, and deeper than a two-frames-per-level recursive check
        # can walk at the default recursion limit. The body is written as
        # text: encoding it from nested dicts would need ~970 frames.
        def chain(depth, last_sentence):
            levels = [
                '{"label": "P", "children": [{"label": "S", "value": "%s"}'
                % (last_sentence if level == depth - 1 else f"sentence {level}")
                for level in range(depth)
            ]
            return (
                '{"label": "D", "children": [' + ", ".join(levels) + "]}" * (depth + 1)
            )

        raw = '{"old": %s, "new": %s, "algorithm": "fast"}' % (
            chain(480, "the bottom"), chain(480, "the very bottom")
        )
        conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10.0)
        try:
            conn.request("POST", "/v1/verify", body=raw.encode("utf-8"))
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert (response.status, body["ok"]) == (200, True)

    def test_verify_5000_deep_sexpr_chain_is_ok(self, client):
        # 10 001 nodes on a single path: the oracles must walk it in linear
        # time to answer inside the client's timeout.
        chain = "(D" + " (P" * 4999 + ' (S "x")' + ")" * 5000
        out = client.verify(chain, chain, algorithm="fast")
        assert out["ok"] is True

    def test_metrics_snapshot(self, client):
        client.diff(OLD_SEXPR, NEW_SEXPR)
        snap = client.metrics()
        assert snap["counters"]["http_requests"] >= 1
        assert snap["server"]["queue_capacity"] == 4
        assert snap["cache"]["capacity"] == 256
        assert "p99_ms" in snap["wall_time"]

    def test_metrics_body_is_deterministically_serialized(self, server, client):
        client.diff(OLD_SEXPR, NEW_SEXPR)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("GET", "/metrics")
            raw = conn.getresponse().read()
        finally:
            conn.close()
        assert raw == json.dumps(json.loads(raw), sort_keys=True).encode("utf-8")


class TestProtocolErrors:
    def test_not_found(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/v1/diff")
        assert err.value.status == 405

    def test_bad_json(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request(
                "POST", "/v1/diff", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"] == "bad_json"

    def test_missing_fields(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/diff", {"old": OLD_SEXPR})
        assert err.value.status == 400
        assert err.value.payload["error"] == "missing_field"

    def test_unparseable_tree(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/diff", {"old": "(((", "new": OLD_SEXPR})
        assert err.value.status == 400
        assert err.value.payload["error"] == "bad_tree"

    def test_deeply_nested_bodies_are_400_not_500(self, client):
        # ~6 KB each, far under the body cap, but 3000 levels deep: deeper
        # than the JSON decoder can recurse (bad_json). The s-expression
        # parser keeps an explicit stack, so the same depth there parses
        # and diffs.
        depth = 3000
        raw = b'{"old": ' + b"[" * depth + b"]" * depth + b', "new": "(D)"}'
        conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10.0)
        try:
            conn.request("POST", "/v1/diff", body=raw)
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert (response.status, body["error"]) == (400, "bad_json")
        deep_sexpr = "(S " * depth + ")" * depth
        out = client.request(
            "POST", "/v1/diff", {"old": deep_sexpr, "new": "(D)", "include_script": False}
        )
        assert (out["status"], out["source"]) == ("ok", "computed")

    def test_5000_deep_sexpr_pair_takes_the_digest_path(self, client):
        chain = "(D" + " (P" * 4999 + ' (S "x")' + ")" * 5000
        out = client.request("POST", "/v1/diff", {"old": chain, "new": chain})
        assert (out["status"], out["source"], out["operations"]) == ("ok", "digest", 0)

    def test_bad_deadline_releases_its_admission_slot(self, client):
        with pytest.raises(ServiceError) as err:
            client.request(
                "POST", "/v1/diff",
                {"old": OLD_SEXPR, "new": NEW_SEXPR, "deadline_ms": "soon"},
            )
        assert (err.value.status, err.value.payload["error"]) == (400, "bad_deadline")
        assert client.healthz()["in_flight"] == 0

    def test_post_without_content_length(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.putrequest("POST", "/v1/diff", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
        finally:
            conn.close()
        assert response.status == 411

    def test_batch_too_large(self, client):
        with ServerThread(DiffServer(ServeConfig(port=0, workers=1, max_batch=2))) as handle:
            with DiffServiceClient(port=handle.port, retries=0) as small:
                with pytest.raises(ServiceError) as err:
                    small.batch([(OLD_SEXPR, OLD_SEXPR)] * 3)
        assert err.value.status == 413


class TestOverloadBehavior:
    def test_413_on_oversized_body(self):
        with make_server(max_body_bytes=64) as handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.diff(OLD_SEXPR, NEW_SEXPR)  # body > 64 bytes
                assert err.value.status == 413
            final = handle.stop()
        assert final["counters"]["rejected_too_large"] == 1

    def test_429_when_queue_is_full(self):
        handle = make_server(queue_capacity=2, workers=1)
        slow_engine(handle, 0.25)
        statuses = []
        lock = threading.Lock()

        def fire():
            with DiffServiceClient(port=handle.port, retries=0) as c:
                try:
                    c.diff(OLD_SEXPR, NEW_SEXPR, job_id="burst")
                    outcome = 200
                except ServiceError as exc:
                    outcome = exc.status
            with lock:
                statuses.append(outcome)

        with handle:
            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            final = handle.stop()
        assert set(statuses) <= {200, 429}  # never hangs, never 500s
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 1
        assert final["counters"]["rejected_queue_full"] >= 1

    def test_429_carries_retry_after(self):
        handle = make_server(queue_capacity=1, workers=1)
        slow_engine(handle, 0.4)
        def block():
            with DiffServiceClient(port=handle.port, retries=0) as client:
                client.diff(OLD_SEXPR, NEW_SEXPR)

        with handle:
            blocker = threading.Thread(target=block)
            blocker.start()
            time.sleep(0.1)  # let the blocker take the only slot
            with DiffServiceClient(port=handle.port, retries=0) as client:
                status, payload, headers = client.request_once(
                    "POST",
                    "/v1/diff",
                    {"old": OLD_SEXPR, "new": NEW_SEXPR},
                )
            blocker.join()
        assert status == 429
        assert payload["error"] == "queue_full"
        assert "retry_after_s" in payload
        assert int(headers.get("Retry-After", "0")) >= 1

    def test_rate_limited_client_gets_429(self):
        with make_server(rate=1.0, burst=2.0) as handle:
            with DiffServiceClient(
                port=handle.port, retries=0, client_id="greedy"
            ) as client:
                client.diff(OLD_SEXPR, OLD_SEXPR)
                client.diff(OLD_SEXPR, OLD_SEXPR)
                with pytest.raises(ServiceError) as err:
                    client.diff(OLD_SEXPR, OLD_SEXPR)
                assert err.value.status == 429
                assert err.value.payload["error"] == "rate_limited"
            final = handle.stop()
        assert final["counters"]["rejected_rate_limited"] == 1

    def test_504_when_deadline_expires(self):
        handle = make_server(workers=1)
        slow_engine(handle, 0.5)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.diff(OLD_SEXPR, NEW_SEXPR, deadline_ms=100)
            assert err.value.status == 504
            final = handle.stop()
        assert final["counters"]["deadline_timeouts"] == 1


class TestLifecycle:
    def test_healthz_reports_draining_and_computes_refused(self):
        with make_server() as handle:
            # flip the flag without closing the listener: the refusal path
            # is then observable deterministically
            handle.server.lifecycle.draining = True
            with DiffServiceClient(port=handle.port, retries=0) as client:
                assert client.healthz()["status"] == "draining"
                with pytest.raises(ServiceError) as err:
                    client.diff(OLD_SEXPR, NEW_SEXPR)
                assert err.value.status == 503
                assert err.value.payload["error"] == "draining"
            handle.server.lifecycle.draining = False

    def test_drain_flushes_in_flight_work(self):
        handle = make_server(workers=1)
        slow_engine(handle, 0.4)
        handle.start()
        outcome = {}

        def long_job():
            with DiffServiceClient(port=handle.port, retries=0) as c:
                outcome.update(c.diff(OLD_SEXPR, NEW_SEXPR))

        worker = threading.Thread(target=long_job)
        worker.start()
        time.sleep(0.1)  # the job is now in flight
        final = handle.stop()  # SIGTERM-equivalent: drain, don't kill
        worker.join(timeout=10)
        assert outcome["status"] == "ok"  # the in-flight job was flushed
        assert handle.server.lifecycle.drained_clean is True
        assert final["counters"]["jobs_succeeded"] >= 1

    def test_final_metrics_line_is_deterministic_json(self):
        import io

        from repro.serve.lifecycle import dump_final_metrics

        stream = io.StringIO()
        line = dump_final_metrics({"b": 1, "a": {"z": 2, "y": 3}}, stream=stream)
        assert line.startswith("METRICS ")
        assert line == stream.getvalue().rstrip("\n")
        body = line[len("METRICS "):]
        assert body == json.dumps(json.loads(body), sort_keys=True)
