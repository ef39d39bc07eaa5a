"""Tests for the digest-keyed script cache (repro.service.cache)."""

import threading

import pytest

from repro import DiffEngine, Tree, tree_diff, trees_isomorphic
from repro.core.serialization import tree_from_dict
from repro.editscript.script import EditScript
from repro.service.cache import (
    ScriptCache,
    canonicalize_script,
    instantiate_script,
)


def key(n):
    return (f"old{n}", f"new{n}", "cfg")


def payload(n):
    return {"records": [], "wrapped": False, "cost": float(n), "summary": {}}


class TestLRU:
    def test_miss_then_hit(self):
        cache = ScriptCache(capacity=4)
        assert cache.get(key(1)) is None
        cache.put(key(1), payload(1))
        assert cache.get(key(1)) == payload(1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["size"] == 1

    def test_eviction_order_is_lru(self):
        cache = ScriptCache(capacity=2)
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))
        assert cache.get(key(1)) is not None  # refresh 1; 2 becomes LRU
        cache.put(key(3), payload(3))         # evicts 2
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) is not None
        assert cache.get(key(3)) is not None
        assert cache.stats()["evictions"] == 1

    def test_capacity_bound_holds(self):
        cache = ScriptCache(capacity=3)
        for n in range(10):
            cache.put(key(n), payload(n))
        stats = cache.stats()
        assert stats["size"] == 3
        assert stats["evictions"] == 7

    def test_put_refreshes_existing_key(self):
        cache = ScriptCache(capacity=2)
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))
        cache.put(key(1), payload(10))  # refresh, no eviction
        cache.put(key(3), payload(3))   # evicts 2, not 1
        assert cache.get(key(1)) == payload(10)
        assert cache.get(key(2)) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ScriptCache(capacity=0)

    def test_thread_safety_smoke(self):
        cache = ScriptCache(capacity=16)

        def worker(base):
            for n in range(50):
                cache.put(key(base * 100 + n), payload(n))
                cache.get(key(base * 100 + n))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats["size"] <= 16
        assert stats["puts"] == 200


class TestSpill:
    def test_save_and_warm_roundtrip(self, tmp_path):
        path = str(tmp_path / "spill.json")
        cache = ScriptCache(capacity=4)
        for n in range(3):
            cache.put(key(n), payload(n))
        assert cache.save(path) == 3

        warmed = ScriptCache(capacity=4)
        assert warmed.warm(path) == 3
        for n in range(3):
            assert warmed.get(key(n)) == payload(n)

    def test_warm_respects_capacity(self, tmp_path):
        path = str(tmp_path / "spill.json")
        cache = ScriptCache(capacity=8)
        for n in range(6):
            cache.put(key(n), payload(n))
        cache.save(path)
        small = ScriptCache(capacity=2)
        small.warm(path)
        assert len(small) == 2
        # the most recently used entries survive
        assert small.get(key(5)) is not None
        assert small.get(key(0)) is None

    def test_warm_missing_file_is_cold_start(self, tmp_path):
        cache = ScriptCache(capacity=4)
        assert cache.warm(str(tmp_path / "nope.json")) == 0
        assert len(cache) == 0


class TestCanonicalization:
    def make_pair(self):
        old = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "shared sentence one"), ("S", "doomed line")]),
                ("P", None, [("S", "tail paragraph stays")]),
            ])
        )
        new = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "tail paragraph stays")]),
                ("P", None, [("S", "shared sentence one"), ("S", "fresh line")]),
            ])
        )
        return old, new

    def test_roundtrip_on_same_tree(self):
        old, new = self.make_pair()
        result = tree_diff(old, new)
        payload = canonicalize_script(
            result.script, old, result.edit.wrapped, result.edit.dummy_t1_id
        )
        script, wrapped, _dummy = instantiate_script(payload, old)
        assert wrapped == result.edit.wrapped
        assert len(script) == len(result.script)
        if not wrapped:
            assert trees_isomorphic(script.apply_to(old), new)

    def test_rebinds_onto_isomorphic_tree_with_other_ids(self):
        old, new = self.make_pair()
        result = tree_diff(old, new)
        payload = canonicalize_script(
            result.script, old, result.edit.wrapped, result.edit.dummy_t1_id
        )
        # a content-identical pair with a disjoint identifier space
        old2 = Tree.from_obj(old.to_obj())
        new2 = Tree.from_obj(new.to_obj())
        script, wrapped, _dummy = instantiate_script(payload, old2)
        assert not wrapped
        assert trees_isomorphic(script.apply_to(old2), new2)

    def test_payload_is_json_friendly(self):
        import json

        old, new = self.make_pair()
        result = tree_diff(old, new)
        payload = canonicalize_script(result.script, old)
        assert json.loads(json.dumps(payload)) == payload


def preorder_walk_records(payload, t1):
    """Reference rebind: the ``o<k>`` names resolved by a Node preorder walk."""
    reverse = {f"o{rank}": node.id for rank, node in enumerate(t1.preorder())}
    taken = set(t1.node_ids())

    def fresh_id(canonical):
        candidate = f"svc:{canonical}"
        while candidate in taken:
            candidate += "_"
        taken.add(candidate)
        return candidate

    if payload["wrapped"]:
        reverse["d"] = fresh_id("d")
    records = []
    for record in payload["records"]:
        record = dict(record)
        for field in ("node_id", "parent_id"):
            canonical = record.get(field)
            if canonical is not None:
                if canonical not in reverse:
                    reverse[canonical] = fresh_id(canonical)
                record[field] = reverse[canonical]
        records.append(record)
    return EditScript.from_dicts(records).to_dicts()


class TestArenaRebind:
    """Canonical ids come from the arena: a hit builds no node graph."""

    OLD = {"label": "D", "children": [
        {"label": "P", "children": [
            {"label": "S", "value": "shared sentence one"},
            {"label": "S", "value": "doomed line"},
        ]},
        {"label": "P", "children": [{"label": "S", "value": "tail paragraph stays"}]},
    ]}
    NEW = {"label": "D", "children": [
        {"label": "P", "children": [{"label": "S", "value": "tail paragraph stays"}]},
        {"label": "P", "children": [
            {"label": "S", "value": "shared sentence one"},
            {"label": "S", "value": "fresh line"},
        ]},
    ]}

    def test_cache_hit_builds_no_nodes(self):
        with DiffEngine(workers=1) as engine:
            first = engine.diff(tree_from_dict(self.OLD), tree_from_dict(self.NEW))
            old, new = tree_from_dict(self.OLD), tree_from_dict(self.NEW)
            result = engine.diff(old, new)
        assert first.source == "computed"
        assert result.source == "cache" and len(result.script) > 0
        assert old._node_map is None and new._node_map is None
        assert trees_isomorphic(result.script.apply_to(old), new)

    def test_digest_short_circuit_builds_no_nodes(self):
        old, new = tree_from_dict(self.OLD), tree_from_dict(self.OLD)
        with DiffEngine(workers=1) as engine:
            result = engine.diff(old, new)
        assert result.source == "digest" and len(result.script) == 0
        assert old._node_map is None and new._node_map is None

    def test_edited_tree_matches_preorder_walk(self):
        # An edited tree has no fresh snapshot: to_arena() re-flattens the
        # mutated node graph, whose preorder must give the same names.
        old = tree_from_dict(self.OLD)
        tail = old.root.children[1]
        old.move(tail.id, old.root.id, 1)
        old.update(tail.children[0].id, "tail paragraph moved")
        old.insert("svc:n0", "S", "inserted line", tail.id, 1)
        assert old.arena_snapshot() is None
        new = tree_from_dict(self.NEW)
        result = tree_diff(old, new)
        payload = canonicalize_script(
            result.script, old, result.edit.wrapped, result.edit.dummy_t1_id
        )
        script, wrapped, dummy = instantiate_script(payload, old)
        assert script.to_dicts() == preorder_walk_records(payload, old)
        assert wrapped == result.edit.wrapped
        assert trees_isomorphic(script.apply_to(old, dummy_id=dummy), new)
        # rebinding onto an isomorphic copy with other ids replays as well
        copy = Tree.from_obj(old.to_obj())
        script, _wrapped, dummy = instantiate_script(payload, copy)
        assert script.to_dicts() == preorder_walk_records(payload, copy)
        assert trees_isomorphic(script.apply_to(copy, dummy_id=dummy), new)

    def test_fresh_ids_skip_tree_ids_and_foreign_names(self):
        # minted ids step past tree ids of the same spelling; out-of-range
        # and zero-padded o<k> names are foreign, so they mint fresh ids
        t1 = tree_from_dict({"id": "svc:n0", "label": "D", "children": [
            {"id": "svc:o5", "label": "S", "value": "a"},
        ]})
        payload = {"wrapped": True, "records": [
            {"op": "insert", "node_id": "n0", "label": "S", "value": "b",
             "parent_id": "o0", "position": 1},
            {"op": "update", "node_id": "o1", "value": "c"},
            {"op": "insert", "node_id": "o5", "label": "S", "value": "d",
             "parent_id": "o00", "position": 1},
        ]}
        script, wrapped, dummy = instantiate_script(payload, t1)
        assert t1._node_map is None
        assert wrapped and dummy == "svc:d"
        assert script.to_dicts() == preorder_walk_records(payload, t1)


class TestConcurrentAccess:
    """Multi-threaded hammer: the LRU must stay consistent under contention."""

    CAPACITY = 24
    THREADS = 8
    ROUNDS = 400
    KEYSPACE = 64  # > capacity so eviction churns constantly

    def test_hammer_no_lost_updates_and_bounded_size(self):
        import random

        cache = ScriptCache(capacity=self.CAPACITY)
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()  # maximize interleaving
            for _ in range(self.ROUNDS):
                n = rng.randrange(self.KEYSPACE)
                got = cache.get(key(n))
                if got is not None and got["cost"] != float(n):
                    # a hit must return the payload stored under that key,
                    # never a torn or foreign entry
                    errors.append((n, got))
                cache.put(key(n), payload(n))
                if len(cache) > self.CAPACITY:
                    errors.append(("overflow", len(cache)))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        stats = cache.stats()
        total = self.THREADS * self.ROUNDS
        # every get is counted exactly once, as either a hit or a miss
        assert stats["hits"] + stats["misses"] == total
        assert stats["puts"] == total
        # bounded under contention, and eviction accounting is conserved:
        # every insert of a new key either still resides or was evicted
        assert stats["size"] <= self.CAPACITY
        assert stats["size"] + stats["evictions"] <= stats["puts"]
        # with keyspace >> capacity the hammer must actually churn
        assert stats["evictions"] > 0
        assert stats["hits"] > 0

