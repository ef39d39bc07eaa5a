"""Tests for the baseline algorithms: Zhang-Shasha [ZS89] and flat diff."""

import random

import pytest

from repro.core import Tree
from repro.baselines import (
    flat_diff,
    flat_diff_text,
    flatten_tree,
    undetected_moves,
    zhang_shasha_distance,
    zhang_shasha_mapping,
    zhang_shasha_operations,
)


def tree(spec):
    return Tree.from_obj(spec)


def random_labeled_tree(seed, max_nodes=12):
    rng = random.Random(seed)
    t = Tree()
    root = t.create_node(rng.choice("abc"), None)
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        nodes.append(t.create_node(rng.choice("abc"), None, parent=parent))
    return t


class TestZhangShashaDistance:
    def test_classic_example(self):
        """The canonical [ZS89] example: distance 2 (one delete, one insert
        in different places)."""
        t1 = tree(("f", None, [("d", None, [("a",), ("c", None, [("b",)])]), ("e",)]))
        t2 = tree(("f", None, [("c", None, [("d", None, [("a",), ("b",)])]), ("e",)]))
        assert zhang_shasha_distance(t1, t2) == 2.0

    def test_identical_trees(self):
        t = tree(("a", None, [("b",), ("c", None, [("d",)])]))
        assert zhang_shasha_distance(t, t.copy()) == 0.0

    def test_single_relabel(self):
        t1 = tree(("a", None, [("b",)]))
        t2 = tree(("a", None, [("c",)]))
        assert zhang_shasha_distance(t1, t2) == 1.0

    def test_value_difference_counts_as_relabel(self):
        t1 = tree(("a", "v1"))
        t2 = tree(("a", "v2"))
        assert zhang_shasha_distance(t1, t2) == 1.0

    def test_single_node_vs_chain(self):
        t1 = tree(("a",))
        t2 = tree(("a", None, [("a", None, [("a",)])]))
        assert zhang_shasha_distance(t1, t2) == 2.0

    def test_empty_trees(self):
        assert zhang_shasha_distance(Tree(), Tree()) == 0.0
        assert zhang_shasha_distance(Tree(), tree(("a", None, [("b",)]))) == 2.0
        assert zhang_shasha_distance(tree(("a",)), Tree()) == 1.0

    def test_symmetry_with_unit_costs(self):
        for seed in range(15):
            t1 = random_labeled_tree(seed)
            t2 = random_labeled_tree(seed + 100)
            assert zhang_shasha_distance(t1, t2) == pytest.approx(
                zhang_shasha_distance(t2, t1)
            )

    def test_triangle_inequality(self):
        for seed in range(10):
            a = random_labeled_tree(seed)
            b = random_labeled_tree(seed + 50)
            c = random_labeled_tree(seed + 99)
            ab = zhang_shasha_distance(a, b)
            bc = zhang_shasha_distance(b, c)
            ac = zhang_shasha_distance(a, c)
            assert ac <= ab + bc + 1e-9

    def test_identity_of_indiscernibles(self):
        for seed in range(10):
            t = random_labeled_tree(seed)
            assert zhang_shasha_distance(t, t.copy()) == 0.0

    def test_distance_bounded_by_sizes(self):
        for seed in range(10):
            t1 = random_labeled_tree(seed)
            t2 = random_labeled_tree(seed + 31)
            d = zhang_shasha_distance(t1, t2)
            assert 0 <= d <= len(t1) + len(t2)
            assert d >= abs(len(t1) - len(t2))

    def test_custom_costs(self):
        t1 = tree(("a", None, [("b",)]))
        t2 = tree(("a", None, [("c",)]))
        expensive = zhang_shasha_distance(
            t1, t2, relabel_cost=lambda x, y: 0.0 if x.label == y.label else 10.0
        )
        # relabel costs 10, but delete+insert costs 2: the DP picks 2
        assert expensive == 2.0


class TestZhangShashaOperations:
    def test_ops_cost_equals_distance(self):
        for seed in range(20):
            t1 = random_labeled_tree(seed)
            t2 = random_labeled_tree(seed + 77)
            distance, ops = zhang_shasha_operations(t1, t2)
            cost = sum(1 for op in ops if op.kind in ("delete", "insert", "relabel"))
            assert cost == pytest.approx(distance)

    def test_ops_cover_all_nodes(self):
        t1 = tree(("a", None, [("b",), ("c",)]))
        t2 = tree(("a", None, [("b",)]))
        _, ops = zhang_shasha_operations(t1, t2)
        covered1 = {id(op.old) for op in ops if op.old is not None}
        covered2 = {id(op.new) for op in ops if op.new is not None}
        assert covered1 == {id(n) for n in t1.preorder()}
        assert covered2 == {id(n) for n in t2.preorder()}

    def test_mapping_is_one_to_one(self):
        t1 = random_labeled_tree(5)
        t2 = random_labeled_tree(6)
        mapping = zhang_shasha_mapping(t1, t2)
        olds = [id(a) for a, _ in mapping]
        news = [id(b) for _, b in mapping]
        assert len(olds) == len(set(olds))
        assert len(news) == len(set(news))

    def test_str_representations(self):
        t1 = tree(("a", None, [("b",)]))
        t2 = tree(("a", None, [("c",)]))
        _, ops = zhang_shasha_operations(t1, t2)
        rendered = " ".join(str(op) for op in ops)
        assert "ZS-" in rendered


class TestFlatDiff:
    def test_flatten_includes_headings_and_leaves(self):
        t = tree(("D", None, [("Sec", "Title", [("P", None, [("S", "body text")])])]))
        lines = flatten_tree(t)
        assert "[Sec] Title" in lines
        assert "body text" in lines

    def test_identical_trees_no_changes(self):
        t = tree(("D", None, [("S", "a"), ("S", "b")]))
        result = flat_diff(t, t.copy())
        assert result.total_changes == 0
        assert result.unchanged_lines == 2

    def test_counts(self):
        t1 = tree(("D", None, [("S", "a"), ("S", "b"), ("S", "c")]))
        t2 = tree(("D", None, [("S", "a"), ("S", "x"), ("S", "c")]))
        result = flat_diff(t1, t2)
        assert result.deleted_lines == 1
        assert result.inserted_lines == 1
        assert result.unchanged_lines == 2

    def test_moves_reported_as_delete_plus_insert(self):
        """The paper's §2 criticism of flat diff, demonstrated."""
        t1 = tree(("D", None, [
            ("P", None, [("S", "moved paragraph text")]),
            ("P", None, [("S", "stable one")]),
            ("P", None, [("S", "stable two")]),
        ]))
        t2 = tree(("D", None, [
            ("P", None, [("S", "stable one")]),
            ("P", None, [("S", "stable two")]),
            ("P", None, [("S", "moved paragraph text")]),
        ]))
        result = flat_diff(t1, t2)
        assert result.total_changes == 2  # one delete + one insert
        assert undetected_moves(t1, t2) == 1

    def test_diff_text_rendering(self):
        t1 = tree(("D", None, [("S", "old line")]))
        t2 = tree(("D", None, [("S", "new line")]))
        output = flat_diff_text(t1, t2)
        assert "-old line" in output
        assert "+new line" in output

    def test_empty_trees(self):
        result = flat_diff(Tree(), Tree())
        assert result.total_changes == 0
