"""Tests for Merkle subtree digests (repro.service.digest)."""

import json
import random

import pytest

from repro import Tree, trees_isomorphic
from repro.core.isomorphism import canonical_form
from repro.core.serialization import tree_from_dict
from repro.service.digest import (
    DIGEST_SIZE,
    EMPTY_TREE_DIGEST,
    _encode_value,
    attach_digests,
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
        assert len(index) == 0

    def test_digest_width(self):
        index = compute_digests(doc())
        assert all(len(d) == DIGEST_SIZE for d in index.by_id.values())

    def test_every_node_indexed(self):
        tree = doc()
        index = compute_digests(tree)
        assert set(index.by_id) == set(tree.node_ids())

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
        next(tree.leaves()).label = "Q"
        assert tree_fingerprint(tree) != before

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


class TestSubtreeFastPath:
    def test_equal_subtrees_detected_across_trees(self):
        tree = doc(seed=9)
        twin = Tree.from_obj(tree.to_obj())
        idx1 = compute_digests(tree)
        idx2 = compute_digests(twin)
        for a, b in zip(tree.preorder(), twin.preorder()):
            assert idx1.subtrees_equal(a.id, idx2, b.id)

    def test_differing_subtree_flagged(self):
        tree = doc(seed=9)
        twin = Tree.from_obj(tree.to_obj())
        changed_leaf = next(twin.leaves())
        twin.update(changed_leaf.id, "changed!")
        idx1 = compute_digests(tree)
        idx2 = compute_digests(twin)
        # The changed leaf and all its ancestors differ; disjoint subtrees
        # keep their digests.
        dirty = {changed_leaf.id}
        dirty.update(n.id for n in changed_leaf.ancestors())
        for a, b in zip(tree.preorder(), twin.preorder()):
            assert idx1.subtrees_equal(a.id, idx2, b.id) == (b.id not in dirty)

    def test_attach_and_cached(self):
        tree = doc()
        index = attach_digests(tree)
        assert tree.digests is index
        assert cached_digests(tree) is index
        bare = doc()
        assert cached_digests(bare).root == index.root
        assert not hasattr(bare, "digests")


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
