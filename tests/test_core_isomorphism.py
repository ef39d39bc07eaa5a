"""Tests for tree isomorphism (the edit-script correctness oracle)."""

from repro.core import Tree, canonical_form, first_difference, isomorphism_mapping, trees_isomorphic
from repro.core.serialization import tree_from_dict


def tree(spec):
    return Tree.from_obj(spec)


class TestTreesIsomorphic:
    def test_identical_structure_different_ids(self):
        t1 = tree(("D", None, [("S", "a"), ("S", "b")]))
        t2 = tree_from_dict({"id": 100, "label": "D", "children": [
            {"id": 200, "label": "S", "value": "a"},
            {"id": 300, "label": "S", "value": "b"},
        ]})
        assert trees_isomorphic(t1, t2)

    def test_label_difference(self):
        assert not trees_isomorphic(tree(("D",)), tree(("E",)))

    def test_value_difference(self):
        assert not trees_isomorphic(tree(("S", "a")), tree(("S", "b")))

    def test_child_order_matters(self):
        t1 = tree(("D", None, [("S", "a"), ("S", "b")]))
        t2 = tree(("D", None, [("S", "b"), ("S", "a")]))
        assert not trees_isomorphic(t1, t2)

    def test_child_count_difference(self):
        t1 = tree(("D", None, [("S", "a")]))
        t2 = tree(("D", None, [("S", "a"), ("S", "a")]))
        assert not trees_isomorphic(t1, t2)

    def test_empty_trees(self):
        assert trees_isomorphic(Tree(), Tree())
        assert not trees_isomorphic(Tree(), tree(("D",)))

    def test_deep_nesting(self):
        spec = ("A", None, [("B", None, [("C", None, [("S", "x")])])])
        assert trees_isomorphic(tree(spec), tree(spec))


class TestIsomorphismMapping:
    def test_mapping_pairs_preorder(self):
        t1 = tree(("D", None, [("S", "a")]))
        t2 = tree_from_dict({"id": 10, "label": "D", "children": [
            {"id": 20, "label": "S", "value": "a"},
        ]})
        mapping = isomorphism_mapping(t1, t2)
        assert mapping == {1: 10, 2: 20}

    def test_mapping_none_when_not_isomorphic(self):
        assert isomorphism_mapping(tree(("D",)), tree(("E",))) is None


class TestFirstDifference:
    def test_none_for_equal(self):
        t = tree(("D", None, [("S", "a")]))
        assert first_difference(t, t.copy()) is None

    def test_reports_value_mismatch(self):
        t1 = tree(("D", None, [("S", "a")]))
        t2 = tree(("D", None, [("S", "b")]))
        diff = first_difference(t1, t2)
        assert diff is not None and "value" in diff

    def test_reports_child_count(self):
        t1 = tree(("D", None, [("S", "a")]))
        t2 = tree(("D", None, []))
        diff = first_difference(t1, t2)
        assert diff is not None and "child count" in diff

    def test_reports_empty_mismatch(self):
        assert first_difference(Tree(), tree(("D",))) is not None


class TestCanonicalForm:
    def test_equal_forms_iff_isomorphic(self):
        t1 = tree(("D", None, [("S", "a"), ("S", "b")]))
        t2 = tree(("D", None, [("S", "a"), ("S", "b")]))
        t3 = tree(("D", None, [("S", "b"), ("S", "a")]))
        assert canonical_form(t1) == canonical_form(t2)
        assert canonical_form(t1) != canonical_form(t3)

    def test_form_is_hashable(self):
        forms = {canonical_form(tree(("D",))), canonical_form(tree(("E",)))}
        assert len(forms) == 2

    def test_empty_tree_form(self):
        assert canonical_form(Tree()) == ()
