"""Integration tests for the HTTP diff service (repro.serve.app).

A real server runs on a background thread bound to an ephemeral port; the
tests drive it through the real client over real sockets. Slow compute is
simulated by wrapping the engine's compute step, so overload and deadline
paths are deterministic without slow inputs. A request's one job computes
on the event loop when its pair is within ``INLINE_MAX_NODES`` nodes and
``INLINE_MAX_WORDS`` words, so a test that holds a pool thread or a queue
slot sends a pair above the node bound.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.serialization import tree_from_sexpr
from repro.serve import DiffServer, DiffServiceClient, ServeConfig, ServerThread, ServiceError
from repro.serve import cluster as cluster_module
from repro.serve.cluster import ClusterConfig, ClusterServer
from repro.serve.protocol import PROTOCOL
from repro.service.engine import INLINE_MAX_NODES, INLINE_MAX_WORDS

OLD_SEXPR = '(D (P (S "alpha one") (S "beta two")))'
NEW_SEXPR = '(D (P (S "beta two") (S "alpha one") (S "gamma three")))'


def sized_pair(nodes: int, tag: str = "w", words: int = 2):
    """An (old, new) sexpr pair of *nodes* nodes in all, *words* words a
    sentence, sharing no word."""
    old_leaves = (nodes - 4) // 2
    new_leaves = nodes - 4 - old_leaves

    def document(prefix: str, leaves: int) -> str:
        sentences = " ".join(
            f'(S "{prefix}{tag}{i}{f" {prefix}x{i}" * (words - 1)}")' for i in range(leaves)
        )
        return f"(D (P {sentences}))"

    return document("old", old_leaves), document("new", new_leaves)


#: Above INLINE_MAX_NODES, so its compute runs on the engine pool.
BIG_OLD, BIG_NEW = sized_pair(INLINE_MAX_NODES + 16)


class IdleWorker:
    """A cluster fleet member with no process: up at once, never sent a request."""

    def __init__(self, worker_id, argv, **_options):
        self.worker_id = worker_id
        self.port = self.pid = self.last_exit = self.final_metrics = None

    async def spawn(self):
        self.port = 1

    def alive(self):
        return True

    async def check_health(self):
        return True

    async def terminate(self, graceful=True):
        pass


def make_server(**overrides) -> ServerThread:
    options = dict(port=0, workers=2, queue_capacity=4, deadline_ms=10_000.0)
    options.update(overrides)
    return ServerThread(DiffServer(ServeConfig(**options)))


def slow_engine(handle: ServerThread, delay: float) -> None:
    """Make every computed job take at least *delay* seconds."""
    engine = handle.server.engine
    original = engine._compute

    def slowed(old_tree, new_tree, span):
        time.sleep(delay)
        return original(old_tree, new_tree, span)

    engine._compute = slowed


def compute_threads(handle: ServerThread) -> list:
    """Record the thread each computed job's matching runs on."""
    engine = handle.server.engine
    original = engine._compute
    threads = []

    def recording(old_tree, new_tree, span):
        threads.append(threading.current_thread())
        return original(old_tree, new_tree, span)

    engine._compute = recording
    return threads


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

    def test_nan_leaf_value_is_bad_json(self, client):
        # NaN != NaN: decoded, this correct diff would fail the replay and
        # delta oracles of /v1/verify.
        def doc(last):
            return {"label": "D", "children": [
                {"label": "S", "value": float("nan")}, {"label": "S", "value": last},
            ]}

        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/verify", {"old": doc("b"), "new": doc("c")})
        assert (err.value.status, err.value.payload["error"]) == (400, "bad_json")

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
                    c.diff(BIG_OLD, BIG_NEW, job_id="burst")
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
                client.diff(BIG_OLD, BIG_NEW)

        with handle:
            blocker = threading.Thread(target=block)
            blocker.start()
            time.sleep(0.1)  # let the blocker take the only slot
            with DiffServiceClient(port=handle.port, retries=0) as client:
                status, payload, headers = client.request_once(
                    "POST",
                    "/v1/diff",
                    {"old": BIG_OLD, "new": BIG_NEW},
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
                    client.diff(BIG_OLD, BIG_NEW, deadline_ms=100)
            assert err.value.status == 504
            final = handle.stop()
        assert final["counters"]["deadline_timeouts"] == 1

    def test_queued_job_past_the_deadline_is_closed_as_timed_out(self):
        handle = make_server(workers=1, trace_fraction=1.0)
        slow_engine(handle, 0.5)
        other = '(D (P (S "delta four")))'
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.batch([(OLD_SEXPR, NEW_SEXPR), (OLD_SEXPR, other)], deadline_ms=100)
            assert err.value.status == 504
            final = handle.stop()  # joins the pool: the running job finishes
        counters = final["counters"]
        # the second job was still queued at the deadline and never ran
        assert (counters["jobs_submitted"], counters["jobs_succeeded"]) == (2, 1)
        assert counters["jobs_timed_out"] == 1
        assert handle.server.tracer.open_count() == 0  # its span was closed too


class TestWarmReadPath:
    """Digest short-circuits and cache hits are answered on the event loop."""

    def test_hits_do_not_wait_behind_a_computed_job(self):
        handle = make_server(workers=1)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                assert client.diff(OLD_SEXPR, NEW_SEXPR)["source"] == "computed"
                slow_engine(handle, 0.5)  # the next miss holds the only pool thread

                def miss():
                    with DiffServiceClient(port=handle.port, retries=0) as other:
                        other.diff(BIG_OLD, BIG_NEW)

                busy = threading.Thread(target=miss)
                busy.start()
                while handle.server.admission.in_flight == 0:
                    time.sleep(0.005)
                for old, new, source in (
                    (OLD_SEXPR, NEW_SEXPR, "cache"),
                    (OLD_SEXPR, OLD_SEXPR, "digest"),
                ):
                    started = time.perf_counter()
                    out = client.diff(old, new)
                    assert out["source"] == source
                    assert time.perf_counter() - started < 0.2
                assert handle.server.admission.in_flight == 1  # still computing
                busy.join(timeout=10)

    def test_sampled_hit_is_spot_checked_on_the_pool(self):
        handle = make_server(verify_fraction=1.0)
        engine = handle.server.engine
        checked = []
        original = engine._spot_check

        def recording(result, old_tree, new_tree):
            checked.append((result.source, threading.current_thread().name))
            return original(result, old_tree, new_tree)

        engine._spot_check = recording
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                outs = [
                    client.diff(BIG_OLD, BIG_NEW),
                    client.diff(BIG_OLD, BIG_NEW),
                    client.diff(BIG_OLD, BIG_OLD),
                ]
        assert [out["source"] for out in outs] == ["computed", "cache", "digest"]
        assert all(out["verified"] is True for out in outs)
        assert [source for source, _ in checked] == ["computed", "cache", "digest"]
        assert all(name.startswith("repro-diff") for _, name in checked)

    def test_counters_match_the_pool_path(self):
        other = '(D (P (S "delta four")))'
        with make_server() as handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                client.diff(OLD_SEXPR, NEW_SEXPR)  # miss
                client.diff(OLD_SEXPR, NEW_SEXPR)  # hit
                client.diff(NEW_SEXPR, NEW_SEXPR)  # short-circuit
                batch = client.batch([(OLD_SEXPR, NEW_SEXPR), (OLD_SEXPR, other)])
                snap = client.metrics()
        assert [job["source"] for job in batch["jobs"]] == ["cache", "computed"]
        assert [job["job_id"] for job in batch["jobs"]] == ["pair-0", "pair-1"]
        counters = snap["counters"]
        assert {
            name: counters[name]
            for name in (
                "jobs_submitted", "jobs_succeeded", "cache_hits", "cache_misses",
                "digest_short_circuits",
            )
        } == {
            "jobs_submitted": 5, "jobs_succeeded": 5, "cache_hits": 2,
            "cache_misses": 2, "digest_short_circuits": 1,
        }
        cache = snap["cache"]
        assert (cache["hits"], cache["misses"], cache["puts"]) == (2, 2, 2)

    def test_traced_hit_keeps_its_engine_span_under_the_worker(self):
        trace_id = "ab" * 16
        with make_server() as handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                client.diff(OLD_SEXPR, NEW_SEXPR)
                status, out, headers = client.request_once(
                    "POST",
                    "/v1/diff",
                    {"old": OLD_SEXPR, "new": NEW_SEXPR},
                    trace=(trace_id, "cd" * 8),
                )
                view = client.request("GET", f"/v1/trace/{trace_id}")
        assert status == 200 and out["source"] == "cache"
        assert headers.get("X-Trace-Id") == trace_id
        assert view["complete"] is True
        spans = {span["name"]: span for span in view["spans"]}
        assert spans["engine"]["parent"] == spans["worker"]["span"]
        assert spans["engine"]["meta"]["source"] == "cache"


class TestInlineCompute:
    """A request's one job computes on the loop within INLINE_MAX_NODES and INLINE_MAX_WORDS."""

    def test_the_bound_splits_the_loop_from_the_pool(self):
        handle = make_server()
        threads = compute_threads(handle)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                for nodes in (INLINE_MAX_NODES, INLINE_MAX_NODES + 1):
                    old, new = sized_pair(nodes)
                    assert len(tree_from_sexpr(old)) + len(tree_from_sexpr(new)) == nodes
                    assert client.diff(old, new)["source"] == "computed"
                counters = client.metrics()["counters"]
        assert threads[0] is handle._thread
        assert threads[1].name.startswith("repro-diff")
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (1, 1)

    def test_the_word_bound_splits_the_loop_from_the_pool(self):
        def worded_pair(words: int):
            old_words = words // 2
            old = " ".join(f"o{i}" for i in range(old_words))
            new = " ".join(f"n{i}" for i in range(words - old_words))
            return f'(D (S "{old}"))', f'(D (S "{new}"))'

        handle = make_server()
        threads = compute_threads(handle)
        pairs = [worded_pair(INLINE_MAX_WORDS), worded_pair(INLINE_MAX_WORDS + 1)]
        # within the node bound, but 124 sentences of 8 words: 992 words
        pairs.append(sized_pair(INLINE_MAX_NODES, words=8))
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                for old, new in pairs:
                    assert client.diff(old, new)["source"] == "computed"
                counters = client.metrics()["counters"]
        assert threads[0] is handle._thread
        assert all(thread.name.startswith("repro-diff") for thread in threads[1:])
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (1, 2)

    def test_inline_job_past_its_deadline_is_504(self):
        handle = make_server()
        slow_engine(handle, 0.3)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.diff(OLD_SEXPR, NEW_SEXPR, deadline_ms=100)
            assert err.value.status == 504
            final = handle.stop()
        counters = final["counters"]
        assert counters["deadline_timeouts"] == 1
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (1, 0)
        # like a late pool job, it ran to its end and was counted
        assert counters["jobs_succeeded"] == 1

    def test_multi_pair_batches_and_verify_run_on_the_pool(self, monkeypatch):
        from repro.verify import fuzz

        handle = make_server()
        threads = compute_threads(handle)
        original = fuzz.check_pair

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(fuzz, "check_pair", recording)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                batch = client.batch([(OLD_SEXPR, NEW_SEXPR), (NEW_SEXPR, OLD_SEXPR)])
                report = client.verify(OLD_SEXPR, NEW_SEXPR)
                counters = client.metrics()["counters"]
        assert [job["source"] for job in batch["jobs"]] == ["computed", "computed"]
        assert report["ok"] is True
        assert len(threads) == 3
        assert all(thread.name.startswith("repro-diff") for thread in threads)
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (0, 3)

    def test_a_one_pair_batch_is_a_lone_job(self):
        handle = make_server()
        threads = compute_threads(handle)
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                batch = client.batch([(OLD_SEXPR, NEW_SEXPR)])
                counters = client.metrics()["counters"]
        assert batch["jobs"][0]["source"] == "computed"
        assert threads == [handle._thread]
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (1, 0)

    def test_sampled_spot_check_of_a_small_pair_runs_inline(self):
        handle = make_server(verify_fraction=1.0)
        engine = handle.server.engine
        checked = []
        original = engine._spot_check

        def recording(result, old_tree, new_tree):
            checked.append((result.source, threading.current_thread()))
            return original(result, old_tree, new_tree)

        engine._spot_check = recording
        with handle:
            with DiffServiceClient(port=handle.port, retries=0) as client:
                outs = [
                    client.diff(OLD_SEXPR, NEW_SEXPR),
                    client.diff(OLD_SEXPR, NEW_SEXPR),
                    client.diff(OLD_SEXPR, OLD_SEXPR),
                ]
                counters = client.metrics()["counters"]
        assert [out["source"] for out in outs] == ["computed", "cache", "digest"]
        assert all(out["verified"] is True for out in outs)
        assert [source for source, _ in checked] == ["computed", "cache", "digest"]
        assert all(thread is handle._thread for _, thread in checked)
        assert (counters["jobs_inline"], counters["jobs_pooled"]) == (3, 0)


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
                outcome.update(c.diff(BIG_OLD, BIG_NEW))

        worker = threading.Thread(target=long_job)
        worker.start()
        time.sleep(0.1)  # the job is now in flight
        final = handle.stop()  # SIGTERM-equivalent: drain, don't kill
        worker.join(timeout=10)
        assert outcome["status"] == "ok"  # the in-flight job was flushed
        assert handle.server.lifecycle.drained_clean is True
        assert final["counters"]["jobs_succeeded"] >= 1

    @pytest.mark.parametrize("front", ["diff-server", "router"])
    def test_idle_keepalive_client_does_not_hold_the_drain(self, front, monkeypatch):
        if front == "router":
            monkeypatch.setattr(cluster_module, "WorkerProcess", IdleWorker)
            handle = ServerThread(ClusterServer(ClusterConfig(port=0, workers=2)))
        else:
            handle = make_server()
        handle.start()
        idle = socket.create_connection(("127.0.0.1", handle.port), timeout=10.0)
        try:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200")
            started = time.perf_counter()
            handle.stop()  # drain_timeout is 30 s; the idle socket must not wait it out
            assert time.perf_counter() - started < 1.0
            assert handle.server.lifecycle.drained_clean is True
            assert idle.recv(1) == b""  # the server closed the idle socket
        finally:
            idle.close()

    def test_final_metrics_line_is_deterministic_json(self):
        import io

        from repro.serve.lifecycle import dump_final_metrics

        stream = io.StringIO()
        line = dump_final_metrics({"b": 1, "a": {"z": 2, "y": 3}}, stream=stream)
        assert line.startswith("METRICS ")
        assert line == stream.getvalue().rstrip("\n")
        body = line[len("METRICS "):]
        assert body == json.dumps(json.loads(body), sort_keys=True)
