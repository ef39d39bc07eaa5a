"""Unit tests for the ordered-tree substrate (repro.core.tree)."""

import random
from collections import Counter

import pytest

from repro.core import (
    CyclicMoveError,
    DuplicateNodeError,
    InvalidPositionError,
    NotALeafError,
    RootOperationError,
    Tree,
    TreeError,
    UnknownNodeError,
)
from repro.core.tree import map_tree


@pytest.fixture
def small_tree():
    return Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "a"), ("S", "b")]),
            ("P", None, [("S", "c")]),
        ])
    )


class TestConstruction:
    def test_from_obj_builds_structure(self, small_tree):
        assert small_tree.root.label == "D"
        assert [c.label for c in small_tree.root.children] == ["P", "P"]
        leaves = [leaf.value for leaf in small_tree.leaves()]
        assert leaves == ["a", "b", "c"]

    def test_from_obj_assigns_preorder_ids(self, small_tree):
        ids = [node.id for node in small_tree.preorder()]
        assert ids == [1, 2, 3, 4, 5, 6]

    def test_from_obj_label_only_shorthand(self):
        tree = Tree.from_obj(("D", None, ["S", ("S", "x")]))
        values = [leaf.value for leaf in tree.leaves()]
        assert values == [None, "x"]

    def test_from_obj_children_without_value_slot(self):
        tree = Tree.from_obj(("D", [("S", "x")]))
        assert tree.root.value is None
        assert tree.root.children[0].value == "x"

    def test_bad_spec_raises(self):
        with pytest.raises(TreeError):
            Tree.from_obj(())

    def test_generated_ids_skip_existing(self):
        tree = Tree.from_obj(("D", None, [("S", "x")]))
        first = tree.fresh_id()
        assert first == 3
        tree.insert(first, "S", "y", 1, 2)
        tree.insert(4, "S", "z", 1, 3)
        assert tree.fresh_id() == 5


class TestLookup:
    def test_get_and_contains(self, small_tree):
        assert small_tree.get(1) is small_tree.root
        assert 1 in small_tree
        assert 99 not in small_tree

    def test_get_unknown_raises(self, small_tree):
        with pytest.raises(UnknownNodeError):
            small_tree.get(99)

    def test_len_counts_nodes(self, small_tree):
        assert len(small_tree) == 6


class TestTraversal:
    def test_preorder_order(self, small_tree):
        labels = [n.label for n in small_tree.preorder()]
        assert labels == ["D", "P", "S", "S", "P", "S"]

    def test_postorder_children_before_parents(self, small_tree):
        order = [n.id for n in small_tree.postorder()]
        for node in small_tree.preorder():
            for child in node.children:
                assert order.index(child.id) < order.index(node.id)

    def test_bfs_level_order(self, small_tree):
        labels = [n.label for n in small_tree.bfs()]
        assert labels == ["D", "P", "P", "S", "S", "S"]

    def test_leaves_left_to_right(self, small_tree):
        assert [n.value for n in small_tree.leaves()] == ["a", "b", "c"]

    def test_nodes_with_label_chain_order(self, small_tree):
        chain = [n.id for n in small_tree.preorder() if n.label == "S"]
        assert chain == sorted(chain)

    def test_labels_counts(self, small_tree):
        counts = Counter(n.label for n in small_tree.preorder())
        assert counts == {"D": 1, "P": 2, "S": 3}

    def test_leaf_and_internal_labels(self, small_tree):
        arena = small_tree.to_arena()
        assert list(arena.leaf_chains) == ["S"]
        assert set(arena.internal_chains) == {"D", "P"}

    def test_height(self, small_tree):
        depths = [len(list(leaf.ancestors())) for leaf in small_tree.leaves()]
        assert max(depths) == 2
        assert list(Tree().leaves()) == []

    def test_empty_tree_traversals(self):
        tree = Tree()
        assert list(tree.preorder()) == []
        assert list(tree.postorder()) == []
        assert list(tree.bfs()) == []
        assert list(tree.leaves()) == []


class TestInsert:
    def test_insert_leaf_at_position(self, small_tree):
        small_tree.insert(100, "S", "x", 2, 2)
        parent = small_tree.get(2)
        assert [c.value for c in parent.children] == ["a", "x", "b"]

    def test_insert_position_bounds(self, small_tree):
        with pytest.raises(InvalidPositionError):
            small_tree.insert(100, "S", "x", 2, 4)
        with pytest.raises(InvalidPositionError):
            small_tree.insert(101, "S", "x", 2, 0)

    def test_insert_append_position(self, small_tree):
        small_tree.insert(100, "S", "x", 2, 3)
        assert small_tree.get(2).children[-1].value == "x"

    def test_insert_duplicate_id(self, small_tree):
        with pytest.raises(DuplicateNodeError):
            small_tree.insert(1, "S", "x", 2, 1)

    def test_insert_unknown_parent(self, small_tree):
        with pytest.raises(UnknownNodeError):
            small_tree.insert(100, "S", "x", 999, 1)


class TestDelete:
    def test_delete_leaf(self, small_tree):
        small_tree.delete(3)
        assert 3 not in small_tree
        assert [c.value for c in small_tree.get(2).children] == ["b"]

    def test_delete_preserves_sibling_order(self, small_tree):
        small_tree.insert(100, "S", "x", 2, 2)
        small_tree.delete(100)
        assert [c.value for c in small_tree.get(2).children] == ["a", "b"]

    def test_delete_interior_raises(self, small_tree):
        with pytest.raises(NotALeafError):
            small_tree.delete(2)

    def test_delete_root_raises(self):
        tree = Tree.from_obj(("D", None))
        with pytest.raises(RootOperationError):
            tree.delete(tree.root.id)


class TestUpdate:
    def test_update_value(self, small_tree):
        small_tree.update(3, "new value")
        assert small_tree.get(3).value == "new value"

    def test_update_interior_node(self, small_tree):
        small_tree.update(2, "para-value")
        assert small_tree.get(2).value == "para-value"


class TestMove:
    def test_move_between_parents(self, small_tree):
        small_tree.move(3, 5, 1)
        assert [c.value for c in small_tree.get(5).children] == ["a", "c"]
        assert [c.value for c in small_tree.get(2).children] == ["b"]

    def test_move_subtree_carries_children(self, small_tree):
        small_tree.move(2, 5, 2)
        moved = small_tree.get(2)
        assert moved.parent is small_tree.get(5)
        assert [c.value for c in moved.children] == ["a", "b"]

    def test_move_within_parent(self, small_tree):
        parent = small_tree.get(2)
        small_tree.move(3, 2, 2)  # "a" after "b"
        assert [c.value for c in parent.children] == ["b", "a"]

    def test_move_into_own_subtree_raises(self, small_tree):
        with pytest.raises(CyclicMoveError):
            small_tree.move(2, 3, 1)

    def test_move_onto_itself_raises(self, small_tree):
        with pytest.raises(CyclicMoveError):
            small_tree.move(2, 2, 1)

    def test_move_root_raises(self, small_tree):
        with pytest.raises(RootOperationError):
            small_tree.move(1, 2, 1)

    def test_move_position_checked_after_detach(self, small_tree):
        parent = small_tree.get(2)
        # "a" to the last slot of its own parent: rank 2 of 2 post-detach.
        small_tree.move(3, 2, 2)
        assert [c.value for c in parent.children] == ["b", "a"]
        with pytest.raises(InvalidPositionError):
            small_tree.move(3, 2, 3)


class TestCopy:
    def test_copy_preserves_ids_and_structure(self, small_tree):
        clone = small_tree.copy()
        assert [n.id for n in clone.preorder()] == [
            n.id for n in small_tree.preorder()
        ]
        assert [n.value for n in clone.leaves()] == ["a", "b", "c"]

    def test_copy_is_independent(self, small_tree):
        clone = small_tree.copy()
        clone.update(3, "changed")
        assert small_tree.get(3).value == "a"

    def test_copy_fresh_ids_do_not_collide(self, small_tree):
        clone = small_tree.copy()
        node = clone.insert(clone.fresh_id(), "S", "x", clone.root.id, 1)
        assert node.id > max(n.id for n in small_tree.preorder())

    def test_copy_empty_tree(self):
        assert Tree().copy().root is None


class TestRoundTripsAndUtilities:
    def test_to_obj_round_trip(self, small_tree):
        rebuilt = Tree.from_obj(small_tree.to_obj())
        assert rebuilt.to_obj() == small_tree.to_obj()

    def test_to_obj_empty(self):
        assert Tree().to_obj() is None

    def test_pretty_contains_labels_and_values(self, small_tree):
        text = small_tree.pretty()
        assert "D" in text and "(a)" in text

    def test_pretty_empty(self):
        assert Tree().pretty() == "<empty tree>"

    def test_map_tree_transforms_values(self, small_tree):
        upper = map_tree(
            small_tree,
            lambda n: (n.label, n.value.upper() if n.value else None),
        )
        assert [n.value for n in upper.leaves()] == ["A", "B", "C"]
        # original untouched
        assert [n.value for n in small_tree.leaves()] == ["a", "b", "c"]


class TestNodeApi:
    def test_child_index_is_one_based(self, small_tree):
        assert small_tree.get(2).child_index() == 1
        assert small_tree.get(5).child_index() == 2

    def test_child_index_of_root_raises(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.root.child_index()

    def test_depth_and_ancestors(self, small_tree):
        leaf = small_tree.get(3)
        assert [a.label for a in leaf.ancestors()] == ["P", "D"]

    def test_is_ancestor_of(self, small_tree):
        assert small_tree.root.is_ancestor_of(small_tree.get(3))
        assert not small_tree.get(3).is_ancestor_of(small_tree.root)
        assert not small_tree.get(2).is_ancestor_of(small_tree.get(2))

    def test_leaf_count_and_subtree_size(self, small_tree):
        assert small_tree.root.leaf_count() == 3
        assert small_tree.root.subtree_size() == 6
        assert small_tree.get(2).leaf_count() == 2


class TestWideSiblingDetach:
    """Bulk deletes among many siblings must not degrade to O(siblings).

    ``Tree._detach`` finds the node by its recorded slot hint (plus a tiny
    probe window and both ends); ``detach_fallback_scans`` counts the times
    it had to fall back to a full ``list.index`` scan.
    """

    WIDTH = 500

    def wide_tree(self):
        tree = Tree.from_obj(("D", None, [("S", f"v{i}") for i in range(self.WIDTH)]))
        root = tree.root
        return tree, root, list(root.children)

    def test_back_to_front_bulk_delete_never_scans(self):
        tree, _, leaves = self.wide_tree()
        for leaf in reversed(leaves):
            tree.delete(leaf.id)
        assert tree.detach_fallback_scans == 0
        assert len(tree) == 1

    def test_front_to_back_bulk_delete_never_scans(self):
        tree, _, leaves = self.wide_tree()
        for leaf in leaves:
            tree.delete(leaf.id)
        assert tree.detach_fallback_scans == 0
        assert len(tree) == 1

    def test_bulk_move_out_never_scans(self):
        tree, root, leaves = self.wide_tree()
        target = tree.insert(tree.fresh_id(), "P", None, root.id, len(root.children) + 1)
        for leaf in leaves:
            tree.move(leaf.id, target.id, len(target.children) + 1)
        assert tree.detach_fallback_scans == 0
        assert [c.value for c in target.children] == [
            f"v{i}" for i in range(self.WIDTH)
        ]

    def test_interleaved_ops_stay_correct_with_fallback(self):
        # Arbitrary interleavings may miss the probe window; correctness
        # (not the counter) is the contract then.
        rng = random.Random(96)
        tree, root, leaves = self.wide_tree()
        alive = list(leaves)
        for _ in range(300):
            victim = alive.pop(rng.randrange(len(alive)))
            tree.delete(victim.id)
        assert len(tree) == 1 + len(alive)
        assert [c.id for c in root.children] == [n.id for n in alive]
