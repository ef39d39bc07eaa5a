"""Tests for the Matching data structure and the inferred label order."""

import pytest

from repro.core import Tree
from repro.core.errors import MatchingError
from repro.matching import Matching, infer_label_ranks
from repro.workload import DocumentSpec, generate_document


class TestMatching:
    def test_add_and_lookup(self):
        m = Matching()
        m.add(1, 10)
        assert m.partner1(1) == 10
        assert m.partner2(10) == 1
        assert m.has1(1) and m.has2(10)
        assert (1, 10) in m
        assert m.contains(1, 10)

    def test_unmatched_lookups(self):
        m = Matching()
        assert m.partner1(1) is None
        assert m.partner2(1) is None
        assert not m.has1(1)
        assert (1, 2) not in m

    def test_one_to_one_enforced(self):
        m = Matching([(1, 10)])
        with pytest.raises(MatchingError):
            m.add(1, 20)
        with pytest.raises(MatchingError):
            m.add(2, 10)

    def test_re_adding_same_pair_is_noop(self):
        m = Matching([(1, 10)])
        m.add(1, 10)
        assert len(m) == 1

    def test_remove(self):
        m = Matching([(1, 10), (2, 20)])
        m.remove(1, 10)
        assert not m.has1(1) and not m.has2(10)
        assert len(m) == 1

    def test_remove_missing_raises(self):
        m = Matching([(1, 10)])
        with pytest.raises(MatchingError):
            m.remove(1, 20)

    def test_replace_unmatches_both_sides(self):
        m = Matching([(1, 10), (2, 20)])
        m.replace(1, 20)
        assert m.contains(1, 20)
        assert not m.has2(10)
        assert not m.has1(2)
        assert len(m) == 1

    def test_copy_is_independent(self):
        m = Matching([(1, 10)])
        clone = m.copy()
        clone.add(2, 20)
        assert len(m) == 1 and len(clone) == 2

    def test_pairs_order_and_equality(self):
        m = Matching([(1, 10), (2, 20)])
        assert list(m.pairs()) == [(1, 10), (2, 20)]
        assert m == Matching([(1, 10), (2, 20)])
        assert m != Matching([(1, 10)])


class TestLabelSchema:
    def test_merged_group(self):
        # list and item nest in each other: one merged rank between S and D.
        t = Tree.from_obj(
            ("D", None, [("list", None, [("item", None, [
                ("list", None, [("item", None, [("S", "x")])]),
            ])])])
        )
        ranks = infer_label_ranks([t])
        assert ranks["list"] == ranks["item"]
        assert ranks["S"] < ranks["list"] < ranks["D"]
        assert len(set(ranks.values())) == 3

    def test_sort_labels_deepest_first(self):
        t = Tree.from_obj(
            ("D", None, [("Sec", None, [("P", None, [("S", "x")])])])
        )
        ranks = infer_label_ranks([t])
        assert sorted(["D", "S", "Sec", "P"], key=ranks.__getitem__) == [
            "S", "P", "Sec", "D"
        ]

    def test_infer_simple_document(self):
        t = Tree.from_obj(
            ("D", None, [("Sec", None, [("P", None, [("S", "x")])])])
        )
        ranks = infer_label_ranks([t])
        assert ranks == {"S": 0, "P": 1, "Sec": 2, "D": 3}

    def test_infer_merges_cycles(self):
        # itemize inside enumerate and enumerate inside itemize: a cycle.
        t1 = Tree.from_obj(
            ("D", None, [("itemize", None, [("enumerate", None, [("S", "a")])])])
        )
        t2 = Tree.from_obj(
            ("D", None, [("enumerate", None, [("itemize", None, [("S", "b")])])])
        )
        ranks = infer_label_ranks([t1, t2])
        assert ranks["itemize"] == ranks["enumerate"]
        assert ranks["S"] < ranks["itemize"] < ranks["D"]

    def test_infer_empty(self):
        assert infer_label_ranks([Tree()]) == {}

    def test_infer_self_nesting_label(self):
        t = Tree.from_obj(("P", None, [("P", None, [("S", "x")])]))
        ranks = infer_label_ranks([t])
        assert ranks["S"] < ranks["P"]

    def test_document_schema_covers_ladiff_labels(self):
        spec = DocumentSpec(
            sections=5, subsection_probability=0.4, list_probability=0.4
        )
        doc = generate_document(13, spec)
        ranks = infer_label_ranks([doc])
        assert set(ranks) == {"S", "item", "list", "P", "SubSec", "Sec", "D"}
        assert ranks["S"] < ranks["P"]
        assert ranks["item"] < ranks["list"]
