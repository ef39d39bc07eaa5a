"""Tests for tree serialization (dict and s-expression formats)."""

import json

import pytest

from repro.core import (
    ParseError,
    Tree,
    tree_from_dict,
    tree_from_sexpr,
    tree_to_dict,
    tree_to_sexpr,
    trees_isomorphic,
)


@pytest.fixture
def doc_tree():
    return Tree.from_obj(
        ("D", None, [
            ("Sec", "Intro", [
                ("P", None, [("S", "hello world"), ("S", "bye")]),
            ]),
        ])
    )


class TestDictFormat:
    def test_round_trip_preserves_ids(self, doc_tree):
        data = tree_to_dict(doc_tree)
        rebuilt = tree_from_dict(data)
        assert [n.id for n in rebuilt.preorder()] == [
            n.id for n in doc_tree.preorder()
        ]
        assert trees_isomorphic(rebuilt, doc_tree)

    def test_dict_is_json_serializable(self, doc_tree):
        text = json.dumps(tree_to_dict(doc_tree))
        rebuilt = tree_from_dict(json.loads(text))
        assert trees_isomorphic(rebuilt, doc_tree)

    def test_empty_tree(self):
        assert tree_to_dict(Tree()) is None
        assert tree_from_dict(None).root is None

    def test_values_omitted_when_none(self, doc_tree):
        data = tree_to_dict(doc_tree)
        assert "value" not in data  # root D has no value
        assert data["children"][0]["value"] == "Intro"


class TestSexprFormat:
    def test_round_trip(self, doc_tree):
        text = tree_to_sexpr(doc_tree)
        rebuilt = tree_from_sexpr(text)
        assert trees_isomorphic(rebuilt, doc_tree)

    def test_simple_parse(self):
        tree = tree_from_sexpr('(D (P (S "a") (S "b")) (P (S "c")))')
        assert [leaf.value for leaf in tree.leaves()] == ["a", "b", "c"]

    def test_quotes_and_escapes(self):
        tree = Tree.from_obj(("S", 'say "hi" \\ there'))
        rebuilt = tree_from_sexpr(tree_to_sexpr(tree))
        assert rebuilt.root.value == 'say "hi" \\ there'

    def test_empty_sexpr(self):
        assert tree_from_sexpr("()").root is None

    def test_unbalanced_raises(self):
        with pytest.raises(ParseError):
            tree_from_sexpr("(D (P)")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            tree_from_sexpr("(D) (E)")

    def test_empty_input_raises(self):
        with pytest.raises(ParseError):
            tree_from_sexpr("   ")

    def test_value_must_follow_label(self):
        tree = tree_from_sexpr('(S "only value")')
        assert tree.root.label == "S"
        assert tree.root.value == "only value"


DEEP = 5000


def deep_chain(depth=DEEP):
    """A P-chain ending in one sentence, grown on the object path by INS."""
    tree = Tree.from_obj(("P",))
    parent = tree.root.id
    for _ in range(depth - 2):
        parent = tree.insert(tree.fresh_id(), "P", None, parent, 1).id
    tree.insert(tree.fresh_id(), "S", "bottom", parent, 1)
    return tree


class TestDeepTrees:
    def test_dict_round_trip_of_a_5000_deep_chain(self):
        tree = deep_chain()
        rebuilt = tree_from_dict(tree_to_dict(tree))
        original, copy = tree.to_arena(), rebuilt.to_arena()
        assert copy.n == DEEP
        assert copy.node_ids == original.node_ids
        assert copy.parent == original.parent
        assert copy.value_of(DEEP - 1) == "bottom"

    def test_sexpr_of_a_5000_deep_chain(self):
        text = tree_to_sexpr(deep_chain())
        assert text == "(P " * (DEEP - 1) + '(S "bottom")' + ")" * (DEEP - 1)

    def test_5000_deep_sexpr_parses_and_round_trips(self):
        text = "(P " * (DEEP - 1) + '(S "bottom")' + ")" * (DEEP - 1)
        arena = tree_from_sexpr(text).to_arena()
        assert arena.n == DEEP
        assert list(arena.parent) == list(range(-1, DEEP - 1))
        assert arena.value_of(DEEP - 1) == "bottom"
        assert tree_to_sexpr(tree_from_sexpr(text)) == text
