"""Tests for Match, FastMatch, post-processing, and key-based matching."""

import pytest

from repro.core import Tree
from repro.core.errors import MatchingError
from repro.matching import (
    MatchConfig,
    Matching,
    MatchingStats,
    criterion3_holds,
    fast_match,
    match,
    match_by_keys,
    match_with_keys_then_values,
    postprocess_matching,
)
from repro.verify import check_matching_validity
from repro.workload import DocumentSpec, generate_document
from repro.workload.mutations import MutationEngine


class TestMatchExample51:
    """Example 5.1: Algorithm Match on the Figure 1 running example."""

    def test_expected_pairs(self, figure1_trees):
        t1, t2 = figure1_trees
        m = match(t1, t2, MatchConfig(f=0.0, t=0.5))
        # leaves: a, c, d, e, f pair up; b and g stay unmatched
        assert m.contains(3, 3)    # S a
        assert m.contains(6, 10)   # S c
        assert m.contains(8, 5)    # S d
        assert m.contains(9, 6)    # S e
        assert m.contains(10, 7)   # S f
        assert not m.has1(4)       # S b unmatched
        assert not m.has2(8)       # S g unmatched
        # internal: P(def) ~ P(defg): 3/4 > 1/2; P(c) ~ P(c): 1/1; roots.
        assert m.contains(7, 4)
        assert m.contains(5, 9)
        assert m.contains(1, 1)

    def test_paper_paragraph_pair_excluded_at_half(self, figure1_trees):
        """P(a b) ~ P(a) has ratio exactly 1/2, which fails ratio > t at
        t = 1/2 (the paper's informal example is more permissive)."""
        t1, t2 = figure1_trees
        m = match(t1, t2, MatchConfig(f=0.0, t=0.5))
        assert not m.has1(2)


class TestMatchBasics:
    def test_identical_trees_match_fully(self):
        t1 = generate_document(seed=5, spec=DocumentSpec(sections=2))
        t2 = t1.copy()
        m = match(t1, t2)
        assert len(m) == len(t1)

    def test_disjoint_trees_match_structurals_only(self):
        t1 = Tree.from_obj(("D", None, [("S", "aaa bbb")]))
        t2 = Tree.from_obj(("D", None, [("S", "ccc ddd")]))
        m = match(t1, t2)
        assert not m.has1(2)

    def test_labels_must_agree(self):
        t1 = Tree.from_obj(("D", None, [("S", "same text")]))
        t2 = Tree.from_obj(("D", None, [("T", "same text")]))
        m = match(t1, t2)
        assert not m.has1(2)

    def test_first_candidate_in_document_order_wins(self):
        t1 = Tree.from_obj(("D", None, [("S", "dup words")]))
        t2 = Tree.from_obj(("D", None, [("S", "dup words"), ("S", "dup words")]))
        m = match(t1, t2)
        assert m.partner1(2) == 2  # the left duplicate

    def test_satisfies_criteria(self):
        base = generate_document(seed=9, spec=DocumentSpec(sections=3))
        engine = MutationEngine(3)
        edited = engine.mutate(base, 6).tree
        config = MatchConfig(f=0.6, t=0.5)
        m = match(base, edited, config)
        assert check_matching_validity(base, edited, m, config, check_criterion2=True) == []


class TestFastMatch:
    def test_agrees_with_match_when_criterion3_holds(self):
        base = generate_document(seed=21, spec=DocumentSpec(sections=3))
        engine = MutationEngine(7)
        edited = engine.mutate(base, 8).tree
        config = MatchConfig(f=0.6, t=0.5)
        assert criterion3_holds(base, edited, config)
        slow = match(base, edited, config)
        fast = fast_match(base, edited, config)
        assert set(slow.pairs()) == set(fast.pairs())

    def test_far_fewer_comparisons_than_match(self):
        base = generate_document(seed=33, spec=DocumentSpec(sections=5))
        engine = MutationEngine(11)
        edited = engine.mutate(base, 5).tree
        config = MatchConfig()
        slow_stats, fast_stats = MatchingStats(), MatchingStats()
        match(base, edited, config, stats=slow_stats)
        fast_match(base, edited, config, stats=fast_stats)
        # FastMatch's LCS sweep avoids most pairwise scans; the advantage
        # grows with the number of unmatched leftovers Match rescans.
        assert fast_stats.leaf_compares < slow_stats.leaf_compares
        assert fast_stats.lcs_calls > 0 and slow_stats.lcs_calls == 0

    def test_identical_trees_single_lcs_sweep(self):
        base = generate_document(seed=40, spec=DocumentSpec(sections=2))
        stats = MatchingStats()
        m = fast_match(base, base.copy(), stats=stats)
        assert len(m) == len(base)

    def test_moved_leaf_found_by_quadratic_fallback(self):
        t1 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "first unique phrase"), ("S", "second unique phrase")]),
                ("P", None, [("S", "third unique phrase")]),
            ])
        )
        t2 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "second unique phrase")]),
                ("P", None, [("S", "third unique phrase"), ("S", "first unique phrase")]),
            ])
        )
        m = fast_match(t1, t2)
        # "first unique phrase" moved across the LCS order; fallback pairs it
        assert m.partner1(3) == 6

    def test_empty_like_trees(self):
        t1 = Tree.from_obj(("D", None))
        t2 = Tree.from_obj(("D", None))
        m = fast_match(t1, t2)
        # two childless roots: matched via the empty-internal policy only if
        # treated as internal; roots are leaves here, matched by Criterion 1
        # on equal (None) values.
        assert len(m) <= 1


class TestPostprocess:
    def test_rematches_child_to_unmatched_sibling_copy(self):
        """Two identical sentences (Criterion 3 violation): a child paired
        with the far duplicate is re-anchored to the unmatched copy under
        its parent's partner (the paper's §8 repair pass)."""
        t1 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "hello common words"), ("S", "left anchor here")]),
            ])
        )
        t2 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "hello common words"), ("S", "left anchor here")]),
                ("P", None, [("S", "hello common words")]),
            ])
        )
        config = MatchConfig(f=0.6, t=0.5)
        # t2 ids: 1=D, 2=P, 3=S dup, 4=S anchor, 5=P, 6=S dup.
        # Wrong initial matching: leaf 3 paired with the far duplicate (6).
        m = Matching([(1, 1), (2, 2), (3, 6), (4, 4)])
        repairs = postprocess_matching(t1, t2, m, config)
        assert repairs == 1
        assert m.partner1(3) == 3  # re-anchored under its parent's partner

    def test_no_repair_without_close_replacement(self):
        """A cross-parent match with no similar unmatched sibling stays."""
        t1 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "wandering sentence text"), ("S", "anchor one two")]),
                ("P", None, []),
            ])
        )
        t2 = Tree.from_obj(
            ("D", None, [
                ("P", None, [("S", "anchor one two")]),
                ("P", None, [("S", "wandering sentence text")]),
            ])
        )
        config = MatchConfig(f=0.6, t=0.5)
        # t1: 3=wandering, 4=anchor; t2: 3=anchor, 5=wandering (a real move)
        m = Matching([(1, 1), (2, 2), (3, 5), (4, 3)])
        repairs = postprocess_matching(t1, t2, m, config)
        assert repairs == 0
        assert m.partner1(3) == 5  # genuine move is preserved

    def test_internal_child_rematch(self):
        """The repair also applies to internal children via Criterion 2."""
        t1 = Tree.from_obj(
            ("D", None, [
                ("Sec", "one", [
                    ("P", None, [("S", "aa bb cc"), ("S", "dd ee ff")]),
                ]),
            ])
        )
        t2 = Tree.from_obj(
            ("D", None, [
                ("Sec", "one", [
                    ("P", None, [("S", "aa bb cc"), ("S", "dd ee ff")]),
                ]),
                ("Sec", "two", [
                    ("P", None, [("S", "zz yy xx")]),
                ]),
            ])
        )
        config = MatchConfig(f=0.6, t=0.5)
        # Pair t1's P (id 3) with the WRONG paragraph (t2 id 8), while the
        # leaves are matched correctly under t2's first section.
        m = Matching([(1, 1), (2, 2), (4, 4), (5, 5), (3, 8)])
        repairs = postprocess_matching(t1, t2, m, config)
        assert repairs == 1
        assert m.partner1(3) == 3

    def test_noop_on_consistent_matching(self):
        t1 = Tree.from_obj(("D", None, [("P", None, [("S", "a b c")])]))
        t2 = Tree.from_obj(("D", None, [("P", None, [("S", "a b c")])]))
        m = Matching([(1, 1), (2, 2), (3, 3)])
        assert postprocess_matching(t1, t2, m) == 0


class TestKeyedMatching:
    @staticmethod
    def key_fn(node):
        if isinstance(node.value, str) and node.value.startswith("id:"):
            return node.value.split()[0]
        return None

    def test_matches_by_key(self):
        t1 = Tree.from_obj(("D", None, [("R", "id:1 pillar east"), ("R", "id:2 beam")]))
        t2 = Tree.from_obj(("D", None, [("R", "id:2 beam steel"), ("R", "id:1 pillar east")]))
        m = match_by_keys(t1, t2, self.key_fn)
        assert m.partner1(2) == 3
        assert m.partner1(3) == 2

    def test_duplicate_keys_rejected(self):
        t1 = Tree.from_obj(("D", None, [("R", "id:1 a"), ("R", "id:1 b")]))
        t2 = Tree.from_obj(("D", None, [("R", "id:1 c")]))
        with pytest.raises(MatchingError):
            match_by_keys(t1, t2, self.key_fn)

    def test_label_agreement_required_by_default(self):
        t1 = Tree.from_obj(("D", None, [("R", "id:1 x")]))
        t2 = Tree.from_obj(("D", None, [("Q", "id:1 x")]))
        assert len(match_by_keys(t1, t2, self.key_fn)) == 0
        assert len(match_by_keys(t1, t2, self.key_fn, require_same_label=False)) == 1

    def test_hybrid_keys_then_values(self):
        t1 = Tree.from_obj(
            ("D", None, [("R", "id:1 pillar"), ("S", "keyless sentence here")])
        )
        t2 = Tree.from_obj(
            ("D", None, [("S", "keyless sentence here"), ("R", "id:1 pillar moved")])
        )
        m = match_with_keys_then_values(t1, t2, self.key_fn)
        assert m.partner1(2) == 3  # via key
        assert m.partner1(3) == 2  # via FastMatch
        assert m.partner1(1) == 1  # root via FastMatch
