"""Tests for the delta-based version store."""

import pytest

from repro import Tree, VersionStore, trees_isomorphic
from repro.core import EditScriptError, TreeError, map_tree
from repro.store import VersionStoreError
from repro.workload import DocumentSpec, MutationEngine, generate_document


def version_chain(length=5, seed=0, edits=6):
    """A chain of document versions, each mutated from the previous."""
    versions = [generate_document(seed, DocumentSpec(sections=3))]
    for i in range(length - 1):
        versions.append(
            MutationEngine(seed * 100 + i).mutate(versions[-1], edits).tree
        )
    return versions


def with_root_label(tree, label):
    """*tree* with its root relabeled (ids kept), so its legs get dummy-wrapped."""
    return map_tree(tree, lambda n: (label if n.parent is None else n.label, n.value))


def preorder_records(tree):
    return [(n.id, n.label, n.value) for n in tree.preorder()]


class TestCommitAndCheckout:
    def test_head_tracks_latest(self):
        versions = version_chain(3)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        assert trees_isomorphic(store.head(), versions[-1])
        assert store.head_version == 2
        assert len(store) == 3

    def test_checkout_every_version(self):
        versions = version_chain(5)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        for index, version in enumerate(versions):
            assert trees_isomorphic(store.checkout(index), version)

    def test_commit_metadata(self):
        store = VersionStore()
        info = store.commit(Tree.from_obj(("D", None, [("S", "x")])),
                            "initial import", author="alice")
        assert info.version == 0
        assert info.message == "initial import"
        assert info.metadata == {"author": "alice"}
        assert info.operations == 0

    def test_second_commit_records_operations(self):
        store = VersionStore()
        t1 = Tree.from_obj(("D", None, [("S", "same line"), ("S", "old line here")]))
        t2 = Tree.from_obj(("D", None, [("S", "same line")]))
        store.commit(t1)
        info = store.commit(t2, "trim")
        assert info.operations == 1
        assert info.cost == pytest.approx(1.0)

    def test_commit_copies_input(self):
        store = VersionStore()
        tree = Tree.from_obj(("D", None, [("S", "x")]))
        store.commit(tree)
        tree.update(2, "mutated after commit")
        assert store.head().get(2).value == "x"

    def test_identical_recommit_is_empty_delta(self):
        store = VersionStore()
        tree = Tree.from_obj(("D", None, [("S", "x")]))
        store.commit(tree)
        info = store.commit(tree.copy())
        assert info.operations == 0


class TestErrors:
    def test_empty_store(self):
        store = VersionStore()
        with pytest.raises(VersionStoreError):
            store.head()
        with pytest.raises(VersionStoreError):
            store.checkout(0)
        with pytest.raises(VersionStoreError):
            _ = store.head_version

    def test_unknown_version(self):
        store = VersionStore()
        store.commit(Tree.from_obj(("D", None, [("S", "x")])))
        with pytest.raises(VersionStoreError):
            store.checkout(5)
        with pytest.raises(VersionStoreError):
            store.checkout(-1)
        with pytest.raises(VersionStoreError):
            store.forward_delta(0)


class TestDeltas:
    def test_forward_delta_replays(self):
        versions = version_chain(3, seed=2)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        # delta legs 0->2 replayed manually reproduce version 2
        legs = store.delta(0, 2)
        assert len(legs) == 2

    def test_backward_legs_order(self):
        versions = version_chain(4, seed=3)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        assert len(store.delta(3, 0)) == 3
        assert store.delta(1, 1) == []

    def test_verify_history(self):
        versions = version_chain(4, seed=4)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        assert store.verify_history()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        versions = version_chain(4, seed=5)
        store = VersionStore()
        for index, v in enumerate(versions):
            store.commit(v, f"rev {index}")
        path = str(tmp_path / "history.json")
        store.save(path)
        loaded = VersionStore.load(path)
        assert len(loaded) == len(store)
        for index, version in enumerate(versions):
            assert trees_isomorphic(loaded.checkout(index), version)
        assert [i.message for i in loaded.log()] == [
            f"rev {index}" for index in range(4)
        ]

    def test_empty_store_round_trip(self, tmp_path):
        store = VersionStore()
        path = str(tmp_path / "empty.json")
        store.save(path)
        loaded = VersionStore.load(path)
        assert len(loaded) == 0


class TestRootChanges:
    def test_commit_with_changed_root_label(self):
        """Dummy-root wrapping flows through commit/checkout transparently."""
        store = VersionStore()
        v0 = Tree.from_obj(("A", None, [("S", "x y z")]))
        v1 = Tree.from_obj(("B", None, [("S", "x y z")]))
        store.commit(v0)
        store.commit(v1)
        assert trees_isomorphic(store.head(), v1)
        assert trees_isomorphic(store.checkout(0), v0)
        assert store.verify_history()


class TestOneReplayPath:
    def test_every_checkout_route_gives_the_same_tree(self, tmp_path):
        versions = version_chain(6, seed=7)
        versions[2] = with_root_label(versions[2], "D2")  # legs 1->2, 2->3
        uncached = VersionStore(checkout_cache_size=0)
        cached = VersionStore(checkout_cache_size=8)
        for store in (uncached, cached):
            for version in versions:
                store.commit(version)
        assert cached.to_dict()["wrapped"].count(True) == 2
        path = str(tmp_path / "history.json")
        cached.save(path)
        loaded = VersionStore.load(path)
        for index, version in enumerate(versions):
            expected = preorder_records(uncached.checkout(index))
            routes = {
                "miss": cached.checkout(index),
                "hit": cached.checkout(index),
                "loaded": loaded.checkout(index),
            }
            for route, tree in routes.items():
                assert preorder_records(tree) == expected, (index, route)
                assert trees_isomorphic(tree, version), (index, route)
        # the head bypasses the memo; every other version missed, then hit
        assert cached.checkout_misses == cached.checkout_hits == len(versions) - 1

    def test_dummy_id_naming_a_live_node_is_refused(self):
        # The leaf sits below the moved P, so no edit touches it: a wrap
        # that aliased it would go unnoticed and drop it from the id map.
        store = VersionStore()
        store.commit(Tree.from_obj(("A", None, [("P", None, [("S", "x y z")])])))
        store.commit(Tree.from_obj(("B", None, [("P", None, [("S", "x y z")])])))
        data = store.to_dict()
        assert data["wrapped"] == [True]
        dummy = data["wrapped_ids"][0]
        leaf = next(store.head().leaves()).id
        data["wrapped_ids"][0] = leaf
        for leg in data["forward"] + data["backward"]:
            for record in leg:
                for key in ("node_id", "parent_id"):
                    if record.get(key) == dummy:
                        record[key] = leaf
        with pytest.raises((TreeError, EditScriptError)):
            VersionStore.from_dict(data).checkout(0)
        with pytest.raises((TreeError, EditScriptError)):
            VersionStore.from_dict(data).verify_history()


class TestDigestCommitPath:
    def make_engine_store(self, **kwargs):
        from repro.service import DiffEngine

        engine = DiffEngine(workers=1)
        return engine, VersionStore(engine=engine, **kwargs)

    def test_unchanged_snapshot_skips_commit(self):
        engine, store = self.make_engine_store()
        versions = version_chain(2)
        store.commit(versions[0])
        store.commit(versions[1])
        before = len(store)
        # content-identical snapshot with a fresh identifier space
        twin = Tree.from_obj(versions[1].to_obj())
        info = store.commit(twin, "no-op redeploy")
        assert len(store) == before  # nothing appended
        assert info.version == store.head_version
        assert info.operations == 0
        assert info.metadata["unchanged"] is True
        assert engine.metrics.get("digest_short_circuits") == 1
        assert store.verify_history()

    def test_changed_snapshot_still_commits(self):
        engine, store = self.make_engine_store()
        versions = version_chain(3)
        for v in versions:
            store.commit(v)
        assert len(store) == 3
        assert engine.metrics.get("digest_short_circuits") == 0
        for index, version in enumerate(versions):
            assert trees_isomorphic(store.checkout(index), version)

    def test_store_without_engine_always_commits(self):
        store = VersionStore()
        tree = Tree.from_obj(("D", None, [("S", "same")]))
        store.commit(tree)
        info = store.commit(tree.copy(), "identical")
        # legacy behavior preserved: a new (empty-delta) version is recorded
        assert len(store) == 2
        assert info.version == 1
        assert "unchanged" not in info.metadata


class TestCheckoutCache:
    def test_repeated_checkout_hits_cache(self):
        versions = version_chain(5)
        store = VersionStore(checkout_cache_size=4)
        for v in versions:
            store.commit(v)
        first = store.checkout(1)
        second = store.checkout(1)
        assert store.checkout_misses == 1
        assert store.checkout_hits == 1
        assert trees_isomorphic(first, versions[1])
        assert trees_isomorphic(second, versions[1])

    def test_cached_tree_is_isolated_from_callers(self):
        versions = version_chain(3)
        store = VersionStore()
        for v in versions:
            store.commit(v)
        checked_out = store.checkout(0)
        leaf = next(checked_out.leaves())
        checked_out.update(leaf.id, "caller-side vandalism")
        assert trees_isomorphic(store.checkout(0), versions[0])

    def test_eviction_bound_holds(self):
        versions = version_chain(7)
        store = VersionStore(checkout_cache_size=2)
        for v in versions:
            store.commit(v)
        for index in range(len(versions) - 1):
            store.checkout(index)
        assert len(store._checkout_cache) <= 2
        for index, version in enumerate(versions):
            assert trees_isomorphic(store.checkout(index), version)

    def test_head_checkout_bypasses_cache(self):
        versions = version_chain(3)
        store = VersionStore(checkout_cache_size=4)
        for v in versions:
            store.commit(v)
        store.checkout(store.head_version)
        assert store.checkout_hits == 0
        assert store.checkout_misses == 0

    def test_zero_size_disables_memo(self):
        versions = version_chain(4)
        store = VersionStore(checkout_cache_size=0)
        for v in versions:
            store.commit(v)
        for _ in range(3):
            assert trees_isomorphic(store.checkout(1), versions[1])
        assert len(store._checkout_cache) == 0
        assert store.checkout_hits == 0

    def test_replays_from_nearest_cached_version(self):
        versions = version_chain(6)
        store = VersionStore(checkout_cache_size=4)
        for v in versions:
            store.commit(v)
        store.checkout(4)  # materialize an intermediate version
        # checking out an older version may start from version 4's memo
        assert trees_isomorphic(store.checkout(1), versions[1])
        assert trees_isomorphic(store.checkout(3), versions[3])
