"""Tests for Merkle subtree digests (repro.service.digest)."""

import json
import random

import pytest

from repro import Tree, trees_isomorphic
from repro.core import map_tree
from repro.core.isomorphism import canonical_form
from repro.core.serialization import tree_from_dict
from repro.service.digest import (
    DIGEST_SIZE,
    EMPTY_TREE_DIGEST,
    _encode_value,
    cached_digests,
    compute_digests,
    tree_fingerprint,
)
from repro.workload import (
    DocumentSpec,
    MutationEngine,
    generate_document,
    paper_document_sets,
    random_tree,
    RandomTreeSpec,
)


def doc(seed=1, **overrides):
    spec = DocumentSpec(
        sections=overrides.pop("sections", 3),
        paragraphs_per_section=overrides.pop("paragraphs", 3),
        sentences_per_paragraph=overrides.pop("sentences", 3),
    )
    return generate_document(seed, spec)


class TestBasics:
    def test_empty_tree(self):
        index = compute_digests(Tree())
        assert index.root == EMPTY_TREE_DIGEST

    def test_digest_width(self):
        index = compute_digests(doc())
        assert len(index.root) == DIGEST_SIZE
        assert len(index.root_hex) == 2 * DIGEST_SIZE

    def test_identifiers_do_not_matter(self):
        tree = doc(seed=5)
        twin = Tree.from_obj(tree.to_obj())  # same content, fresh ids
        assert tree_fingerprint(tree) == tree_fingerprint(twin)

    def test_value_change_changes_fingerprint(self):
        tree = doc()
        before = tree_fingerprint(tree)
        leaf = next(tree.leaves())
        tree.update(leaf.id, "something entirely different")
        assert tree_fingerprint(tree) != before

    def test_label_change_changes_fingerprint(self):
        tree = doc()
        before = tree_fingerprint(tree)
        first = next(tree.leaves()).id
        relabeled = map_tree(
            tree, lambda n: ("Q" if n.id == first else n.label, n.value)
        )
        assert tree_fingerprint(relabeled) != before
        assert tree_fingerprint(tree) == before

    def test_node_attributes_are_read_only(self):
        # Writing a node directly would leave the tree's snapshot, and so
        # its fingerprint and every cached diff, describing the old data.
        u = Tree.from_obj(("D", None, [("S", "a b")]))
        tree_fingerprint(u)
        leaf = next(u.leaves())
        with pytest.raises(AttributeError):
            leaf.value = "changed words"
        with pytest.raises(AttributeError):
            leaf.label = "Q"
        assert leaf.value == "a b" and leaf.label == "S"

    def test_update_reaches_the_fingerprint_and_the_engine(self):
        from repro.service import DiffEngine

        spec = ("D", None, [("S", "a b")])
        t, u = Tree.from_obj(spec), Tree.from_obj(spec)
        assert tree_fingerprint(u) == tree_fingerprint(t)
        u.update(next(u.leaves()).id, "changed words")
        assert tree_fingerprint(u) != tree_fingerprint(t)
        with DiffEngine(workers=1) as engine:
            result = engine.diff(t, u)
        assert result.status == "ok" and result.source == "computed"
        assert len(result.script) > 0
        assert trees_isomorphic(result.apply_to(t), u)

    def test_sibling_order_matters(self):
        t1 = Tree.from_obj(("D", None, [("S", "a"), ("S", "b")]))
        t2 = Tree.from_obj(("D", None, [("S", "b"), ("S", "a")]))
        assert tree_fingerprint(t1) != tree_fingerprint(t2)

    def test_value_vs_structure_not_confused(self):
        # A leaf valued "x" must not collide with an interior node whose
        # child carries "x".
        t1 = Tree.from_obj(("D", "x"))
        t2 = Tree.from_obj(("D", None, [("D", "x")]))
        assert tree_fingerprint(t1) != tree_fingerprint(t2)


def subtree_fingerprint(node):
    """Root digest of *node*'s subtree, taken as a tree of its own."""

    def spec(n):
        return (n.label, n.value, [spec(c) for c in n.children])

    return tree_fingerprint(Tree.from_obj(spec(node)))


class TestSubtreeFastPath:
    def test_equal_subtrees_detected_across_trees(self):
        tree = doc(seed=9)
        twin = Tree.from_obj(tree.to_obj())
        for a, b in zip(tree.preorder(), twin.preorder()):
            assert subtree_fingerprint(a) == subtree_fingerprint(b)

    def test_differing_subtree_flagged(self):
        tree = doc(seed=9)
        twin = Tree.from_obj(tree.to_obj())
        changed_leaf = next(twin.leaves())
        twin.update(changed_leaf.id, "changed!")
        # The changed leaf and all its ancestors differ; disjoint subtrees
        # keep their digests.
        dirty = {changed_leaf.id}
        dirty.update(n.id for n in changed_leaf.ancestors())
        for a, b in zip(tree.preorder(), twin.preorder()):
            same = subtree_fingerprint(a) == subtree_fingerprint(b)
            assert same == (b.id not in dirty)

    def test_attach_and_cached(self):
        tree = Tree.from_obj(doc().to_obj())
        index = cached_digests(tree)
        assert tree.to_arena().digests is index
        assert cached_digests(tree) is index
        bare = doc()  # built node by node: memoized on its first flatten
        assert bare.arena_snapshot() is None
        assert cached_digests(bare) is cached_digests(bare)
        assert bare.to_arena().digests is cached_digests(bare)
        assert cached_digests(bare).root == index.root


class TestSnapshotMemo:
    """Digests and the structure tables live with the tree's arena snapshot."""

    def test_digests_shared_until_mutation(self):
        tree = Tree.from_obj(doc(seed=4).to_obj())
        first = cached_digests(tree)
        assert cached_digests(tree) is first
        assert cached_digests(tree.copy()) is first
        leaf = next(tree.leaves())
        tree.update(leaf.id, "a value nobody wrote before")
        after = cached_digests(tree)
        assert after is not first
        assert after.root == compute_digests(Tree.from_obj(tree.to_obj())).root

    def test_index_reused_until_mutation(self):
        tree = Tree.from_obj(doc(seed=4).to_obj())
        arena = tree.to_arena()
        assert not arena.build_tables()
        assert tree.to_arena().build_tables()
        assert tree.copy().to_arena().build_tables()
        tree.insert(10_000, "S", "fresh", tree.root.id, 1)
        fresh = tree.to_arena()
        assert fresh is not arena
        assert not fresh.build_tables()
        assert tree.to_arena().build_tables()

    @pytest.mark.parametrize("edit", ["update", "insert", "move", "delete"])
    def test_engine_sees_edits_after_digesting(self, edit):
        from repro.service import DiffEngine

        spec = ("D", None, [
            ("P", None, [("S", "one two three"), ("S", "four five six")]),
            ("P", None, [("S", "seven eight nine"), ("S", "ten eleven")]),
        ])
        old, new = Tree.from_obj(spec), Tree.from_obj(spec)
        assert cached_digests(old).root == cached_digests(new).root
        if edit == "update":
            new.update(3, "x y z")
        elif edit == "insert":
            new.insert(100, "S", "twelve", 5, 3)
        elif edit == "move":
            new.move(3, 5, 3)
        else:
            new.delete(7)
        with DiffEngine(workers=1) as engine:
            result = engine.diff(old, new)
        assert result.status == "ok"
        assert result.source == "computed"
        assert trees_isomorphic(result.apply_to(old), new)


class TestDigestIsomorphismProperty:
    """digest(t1) == digest(t2)  iff  trees_isomorphic(t1, t2)."""

    def test_over_random_mutated_documents(self):
        rng = random.Random(2026)
        base = doc(seed=13)
        variants = [base, Tree.from_obj(base.to_obj())]
        for round_index in range(12):
            engine = MutationEngine(rng.randint(0, 10**6))
            variants.append(engine.mutate(base, rng.randint(1, 10)).tree)
        for i, a in enumerate(variants):
            for b in variants[i:]:
                same_digest = tree_fingerprint(a) == tree_fingerprint(b)
                assert same_digest == trees_isomorphic(a, b)

    def test_over_random_trees(self):
        trees = []
        for seed in range(10):
            tree = random_tree(seed, RandomTreeSpec(max_depth=3, max_children=4))
            trees.append(tree)
            trees.append(Tree.from_obj(tree.to_obj()))
        for i, a in enumerate(trees):
            for b in trees[i:]:
                assert (tree_fingerprint(a) == tree_fingerprint(b)) == (
                    trees_isomorphic(a, b)
                )

    def test_collision_sanity_on_file_corpus(self):
        """Across the paper-style corpus, digests separate exactly the
        non-isomorphic versions (no collisions, no false splits)."""
        versions = [
            version.tree
            for document_set in paper_document_sets(edit_counts=(0, 3, 6, 12))
            for version in document_set.versions
        ]
        fingerprints = {tree_fingerprint(tree) for tree in versions}
        canonicals = {canonical_form(tree) for tree in versions}
        assert len(fingerprints) == len(canonicals)


# Root digests of ``(D (S <value>) (S "tail"))`` recorded before the string
# fast path and the one-shot hash existed. Digests key the script cache, its
# spill files and the ``old_digest``/``new_digest`` response fields, so any
# drift here is a wire-visible change.
GOLDEN = {
    "ascii": ("hello world", "a5c79f272e056630fecd6f74d2fc19cf"),
    "non_ascii": ("é 漢字", "8504e1f67a49d5903a97039deee9fed9"),
    "emoji": ("\U0001F600", "01c3f5746848648abfc4924c365cdfc9"),
    "lone_surrogate": ("\ud800", "ceac456bf102dca1f36839e69eb7b901"),
    "quotes_backslashes": ('say "hi" \\ back\\slash', "df358ea79fd39dee1a024a9d761c0979"),
    "control": ("\x00\n\t", "3d2f90f30c79d9f7acdd4c8295fd0a13"),
    "empty": ("", "0106101b6e9f709a6b0240e6218ae1df"),
    "int": (1, "f9d78093c482b245eb70ca5421505911"),
    "float": (1.0, "8cf822fb6b4c386471891ee6c82be60e"),
    "bool": (True, "a3642602422ec19d7c9b876d7844c79e"),
    "none": (None, "73bea6dc5265bba650b653f81c1afdfe"),
    "list": ([1, "a", None], "2e18354622d1b9335df53a4c420ac1e4"),
    "dict": ({"b": 1, "a": [2, 3]}, "edc58e49911159969f9f40e74e4e9dce"),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_root_digest_is_pinned(self, name):
        value, expected = GOLDEN[name]
        data = {"id": 1, "label": "D", "children": [
            {"id": 2, "label": "S", "value": value},
            {"id": 3, "label": "S", "value": "tail"},
        ]}
        arena_backed = tree_from_dict(data)
        assert compute_digests(arena_backed).root_hex == expected
        assert arena_backed._node_map is None
        # an edited tree (snapshot dropped, re-flattened) agrees too
        edited = tree_from_dict(data)
        edited.update(3, "tail")
        assert edited.arena_snapshot() is None
        assert compute_digests(edited).root_hex == expected

    @pytest.mark.parametrize(
        "name", sorted(n for n, (v, _) in GOLDEN.items() if isinstance(v, str))
    )
    def test_string_fast_path_is_json_dumps(self, name):
        value = GOLDEN[name][0]
        reference = json.dumps(
            value, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        ).encode("utf-8", "surrogatepass")
        assert _encode_value(value) == b"j" + reference
