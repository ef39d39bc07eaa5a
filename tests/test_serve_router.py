"""Unit tests for the cluster routing layer (repro.serve.router).

Pure-function coverage: the consistent-hash ring's stability/minimal-
movement contract, affinity-key extraction precedence, and the
snapshot-level metrics merge the aggregate ``/metrics`` endpoint uses.
No sockets and no subprocesses — the process-level behavior lives in
``test_serve_cluster.py``.
"""

import json

import pytest

from repro.serve.router import HashRing, affinity_key, hash_key
from repro.service.metrics import ServiceMetrics, merge_snapshots

KEYS = [f"doc-{n}" for n in range(2000)]


def assignments(ring, keys=KEYS):
    return {key: ring.assign(key) for key in keys}


def make_ring(worker_ids, replicas=64):
    ring = HashRing(replicas=replicas)
    for worker_id in worker_ids:
        ring.add(worker_id)
    return ring


class TestHashRing:
    def test_assignment_is_stable(self):
        a = make_ring(["w0", "w1", "w2"])
        b = make_ring(["w2", "w0", "w1"])  # insertion order must not matter
        assert assignments(a) == assignments(b)
        # and repeated queries agree with themselves
        assert assignments(a) == assignments(a)

    def test_distribution_is_roughly_balanced(self):
        ring = make_ring(["w0", "w1", "w2", "w3"])
        counts = {}
        for owner in assignments(ring).values():
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        # virtual nodes keep the arcs coarse-grained fair: no worker owns
        # more than twice its fair share of 2000 keys
        assert max(counts.values()) < 2 * (len(KEYS) / 4)

    def test_removal_moves_only_the_lost_workers_keys(self):
        ring = make_ring(["w0", "w1", "w2"])
        before = assignments(ring)
        ring.remove("w2")
        after = assignments(ring)
        moved = [key for key in KEYS if before[key] != after[key]]
        # the minimal-movement property: exactly w2's keys were reassigned
        assert moved == [key for key in KEYS if before[key] == "w2"]
        assert all(after[key] in ("w0", "w1") for key in moved)

    def test_rejoin_restores_the_original_assignment(self):
        ring = make_ring(["w0", "w1", "w2"])
        before = assignments(ring)
        ring.remove("w2")
        ring.add("w2")
        assert assignments(ring) == before

    def test_add_and_remove_are_idempotent(self):
        ring = make_ring(["w0", "w1"])
        before = assignments(ring)
        ring.add("w0")
        assert assignments(ring) == before
        assert len(ring) == 2
        ring.remove("missing")
        assert assignments(ring) == before

    def test_assign_chain_is_the_failover_order(self):
        ring = make_ring(["w0", "w1", "w2"])
        for key in KEYS[:50]:
            chain = ring.assign_chain(key)
            assert chain[0] == ring.assign(key)
            assert sorted(chain) == ["w0", "w1", "w2"]  # all distinct members
            # the second entry is exactly who inherits the key if the
            # first leaves the ring
            survivor = make_ring(["w0", "w1", "w2"])
            survivor.remove(chain[0])
            assert survivor.assign(key) == chain[1]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.assign("anything") is None
        assert ring.assign_chain("anything") == []
        assert len(ring) == 0
        assert "w0" not in ring

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)

    def test_hash_key_is_content_based(self):
        assert hash_key("doc-1") == hash_key("doc-1")
        assert hash_key("doc-1") != hash_key("doc-2")


class TestAffinityKey:
    def test_header_wins(self):
        body = json.dumps({"id": "from-body"}).encode()
        key = affinity_key("/v1/diff", {"x-affinity-key": "from-header"}, body)
        assert key == "from-header"

    def test_body_id_beats_body_hash(self):
        body = json.dumps({"id": "job-42", "old": "x"}).encode()
        assert affinity_key("/v1/diff", {}, body) == "job-42"

    def test_identical_bodies_share_a_key(self):
        body = json.dumps({"old": "(D)", "new": "(D (S \"a\"))"}).encode()
        a = affinity_key("/v1/diff", {}, body)
        b = affinity_key("/v1/diff", {}, bytes(body))
        assert a == b
        other = json.dumps({"old": "(D)", "new": "(D)"}).encode()
        assert affinity_key("/v1/diff", {}, other) != a

    def test_malformed_json_falls_back_to_body_hash(self):
        body = b'{"id": not-json'
        key = affinity_key("/v1/diff", {}, body)
        assert key == affinity_key("/v1/diff", {}, body)  # still deterministic

    def test_too_deep_json_falls_back_to_body_hash(self):
        body = b'{"id": 1, "old": ' + b"[" * 3000 + b"]" * 3000 + b"}"
        assert affinity_key("/v1/diff", {}, body) == affinity_key("/v1/diff", {}, body)

    def test_empty_body_hashes_the_path(self):
        assert affinity_key("/v1/close", {}, b"") != affinity_key("/v1/diff", {}, b"")


class TestMergeSnapshots:
    @staticmethod
    def _snapshot(jobs, wall_count, wall_mean, cache_hits=0):
        metrics = ServiceMetrics()
        for _ in range(jobs):
            metrics.incr("jobs_submitted")
        snap = metrics.snapshot()
        snap["wall_time"] = {
            "count": wall_count, "mean_ms": wall_mean, "p50_ms": wall_mean,
            "p95_ms": wall_mean, "p99_ms": wall_mean, "max_ms": wall_mean,
        }
        snap["cache"] = {"hits": cache_hits, "misses": 0, "evictions": 0,
                        "size": 0, "capacity": 8}
        return snap

    def test_counters_sum(self):
        merged = merge_snapshots(
            {"w0": self._snapshot(3, 0, 0.0), "w1": self._snapshot(5, 0, 0.0)}
        )
        assert merged["counters"]["jobs_submitted"] == 8

    def test_wall_time_merges_count_weighted(self):
        merged = merge_snapshots(
            {
                "w0": self._snapshot(0, 1, 10.0),
                "w1": self._snapshot(0, 3, 20.0),
            }
        )
        wall = merged["wall_time"]
        assert wall["count"] == 4
        assert wall["mean_ms"] == pytest.approx(17.5)  # (1*10 + 3*20) / 4
        assert wall["max_ms"] == 20.0

    def test_cache_fields_sum(self):
        merged = merge_snapshots(
            {
                "w0": self._snapshot(0, 0, 0.0, cache_hits=2),
                "w1": self._snapshot(0, 0, 0.0, cache_hits=4),
            }
        )
        assert merged["cache"]["hits"] == 6

    def test_workers_are_tagged(self):
        snapshots = {"w1": self._snapshot(1, 0, 0.0), "w0": self._snapshot(2, 0, 0.0)}
        merged = merge_snapshots(snapshots)
        assert list(merged["workers"]) == ["w0", "w1"]  # sorted, inspectable
        assert merged["workers"]["w0"]["counters"]["jobs_submitted"] == 2

    def test_verify_failure_poisons_the_merge(self):
        bad = self._snapshot(0, 0, 0.0)
        bad["verify"] = {"ok": False, "oracles": {"oracle_a": {"pass": 1, "fail": 2}}}
        good = self._snapshot(0, 0, 0.0)
        good["verify"] = {"ok": True, "oracles": {"oracle_a": {"pass": 4, "fail": 0}}}
        merged = merge_snapshots({"w0": bad, "w1": good})
        assert merged["verify"]["ok"] is False
        assert merged["verify"]["oracles"]["oracle_a"] == {"pass": 5, "fail": 2}

    def test_classmethod_alias(self):
        assert ServiceMetrics.merge_snapshots({}) == merge_snapshots({})

    def test_empty_merge(self):
        merged = merge_snapshots({})
        assert merged["counters"] == {}
        assert merged["wall_time"]["count"] == 0
        assert merged["cache"] is None
