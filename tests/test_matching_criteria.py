"""Tests for Matching Criteria 1-3 and the criteria context (Section 5.1)."""

import math
import random

import pytest

from repro.compare import CompareRegistry, default_compare
from repro.core import Tree
from repro.matching import (
    CriteriaContext,
    MatchConfig,
    Matching,
    MatchingStats,
    criterion3_holds,
    criterion3_violations,
    fast_match,
)
from repro.verify import check_matching_validity


@pytest.fixture
def doc_pair():
    t1 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "alpha beta gamma"), ("S", "delta epsilon zeta")]),
            ("P", None, [("S", "one two three")]),
        ])
    )
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "alpha beta gamma"), ("S", "delta epsilon eta")]),
            ("P", None, [("S", "completely different words")]),
        ])
    )
    return t1, t2


class TestMatchConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(f=1.5)
        with pytest.raises(ValueError):
            MatchConfig(t=0.4)
        with pytest.raises(ValueError):
            MatchConfig(t=1.1)
        MatchConfig(f=0.0, t=0.5)
        MatchConfig(f=1.0, t=1.0)

    def test_compare_nodes_routes_by_label(self, doc_pair):
        t1, t2 = doc_pair
        config = MatchConfig()
        a = t1.get(3)  # "alpha beta gamma"
        b = t2.get(3)  # "alpha beta gamma"
        assert config.registry.compare(a.value, b.value, a.label) == 0.0
        config.registry.register(a.label, lambda v, w: 0.25)
        assert config.registry.compare(a.value, b.value, a.label) == 0.25
        assert config.registry.compare(a.value, b.value, "other") == 0.0


class TestCriterion1:
    def test_identical_leaves_equal(self, doc_pair):
        t1, t2 = doc_pair
        ctx = CriteriaContext(t1, t2, MatchConfig(f=0.5))
        assert ctx.leaves_equal(t1.get(3), t2.get(3))

    def test_different_labels_never_equal(self):
        t1 = Tree.from_obj(("D", None, [("S", "x")]))
        t2 = Tree.from_obj(("D", None, [("T", "x")]))
        ctx = CriteriaContext(t1, t2)
        assert not ctx.leaves_equal(t1.get(2), t2.get(2))

    def test_f_threshold_boundary(self):
        t1 = Tree.from_obj(("D", None, [("S", "a b c")]))
        t2 = Tree.from_obj(("D", None, [("S", "a b d")]))  # distance 2/3
        loose = CriteriaContext(t1, t2, MatchConfig(f=0.7))
        strict = CriteriaContext(t1, t2, MatchConfig(f=0.5))
        assert loose.leaves_equal(t1.get(2), t2.get(2))
        assert not strict.leaves_equal(t1.get(2), t2.get(2))

    def test_compare_calls_counted(self, doc_pair):
        t1, t2 = doc_pair
        stats = MatchingStats()
        ctx = CriteriaContext(t1, t2, stats=stats)
        ctx.leaves_equal(t1.get(3), t2.get(3))
        ctx.leaves_equal(t1.get(3), t2.get(4))
        assert stats.leaf_compares == 2


def _random_leaf_value(rng: random.Random):
    """Mostly sentences over a 5-word vocabulary, so many share words."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(["", "   ", "\t"])
    if roll < 0.08:
        return None
    if roll < 0.11:
        return rng.randint(0, 3)
    words = [rng.choice("ab bc cd de ef".split()) for _ in range(rng.randint(1, 7))]
    text = words[0]
    for word in words[1:]:
        text += rng.choice([" ", " ", "\t", "  "]) + word
    return text


def _leaf_row(values):
    return Tree.from_obj(("D", None, [("S", value) for value in values]))


class TestCompiledCriterion1:
    """``leaves_equal`` decides exactly as ``default_compare(a, b) <= f``."""

    THRESHOLDS = (0.0, 0.25, 0.5, 0.6, 2 / 3, 0.75, 1.0)

    def test_agrees_with_default_compare(self):
        rng = random.Random(1996)
        t1 = _leaf_row([_random_leaf_value(rng) for _ in range(80)])
        t2 = _leaf_row([_random_leaf_value(rng) for _ in range(80)])
        leaves1, leaves2 = list(t1.leaves()), list(t2.leaves())
        ties = 0
        for f in self.THRESHOLDS:
            ctx = CriteriaContext(t1, t2, MatchConfig(f=f))
            for x in leaves1:
                for y in leaves2:
                    distance = default_compare(x.value, y.value)
                    ties += distance == f
                    assert ctx.leaves_equal(x, y) == (distance <= f), (x.value, y.value, f)
            assert ctx.stats.leaf_compares == len(leaves1) * len(leaves2)
        assert ties > 100

    @pytest.mark.parametrize("old, new", [
        ("a b c d e x", "a b c d e y z w v"),  # the word-set bound is exact
        ("a b c a b c", "c b a c b a"),  # only the scan finds |LCS| = 3
    ])
    def test_tie_at_f_matches_and_one_ulp_below_does_not(self, old, new):
        t1, t2 = _leaf_row([old]), _leaf_row([new])
        distance = default_compare(old, new)
        for f, expected in ((distance, True), (math.nextafter(distance, 0.0), False)):
            ctx = CriteriaContext(t1, t2, MatchConfig(f=f))
            assert ctx.leaves_equal(t1.get(2), t2.get(2)) is expected

    @staticmethod
    def _run(registry):
        t1 = _leaf_row(["ab bc cd", "de ef", "ab ab ab", "cd de ef ab"])
        t2 = _leaf_row(["de ef ab", "ab bc cd", "ef", "ab cd ab"])
        stats = MatchingStats()
        fast_match(t1, t2, MatchConfig(registry=registry), stats)
        assert stats.leaf_compares > 4
        return stats.leaf_compares

    def test_registered_comparator_sees_every_compare(self):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return default_compare(a, b)

        registry = CompareRegistry()
        registry.register("S", counting)
        assert self._run(registry) == len(calls)

    def test_wrapped_default_sees_every_compare(self):
        calls = []

        def wrapper(a, b):
            calls.append((a, b))
            return default_compare(a, b)

        assert self._run(CompareRegistry(default=wrapper)) == len(calls)

    def test_default_registry_never_reaches_word_lcs_distance(self, monkeypatch):
        def unreachable(a, b):
            raise AssertionError("word_lcs_distance called on the compiled path")

        monkeypatch.setattr("repro.compare.generic.word_lcs_distance", unreachable)
        self._run(CompareRegistry())


class TestCriterion2:
    def test_common_count(self, doc_pair):
        t1, t2 = doc_pair
        ctx = CriteriaContext(t1, t2)
        m = Matching([(3, 3), (4, 4)])  # both leaves of P1 matched into P1'
        assert ctx.common_count(t1.get(2), t2.get(2), m) == 2
        assert ctx.common_count(t1.get(2), t2.get(6), m) == 0

    def test_partner_checks_counted(self, doc_pair):
        t1, t2 = doc_pair
        stats = MatchingStats()
        ctx = CriteriaContext(t1, t2, stats=stats)
        m = Matching([(3, 3)])
        ctx.common_count(t1.get(2), t2.get(2), m)
        assert stats.partner_checks == 2  # one per leaf of x

    def test_internals_equal_threshold(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(3, 3), (4, 4)])
        ctx = CriteriaContext(t1, t2, MatchConfig(t=0.5))
        assert ctx.internals_equal(t1.get(2), t2.get(2), m)  # 2/2 > 0.5
        # With only one of two leaves matched the ratio is exactly 0.5,
        # which fails the strict > t test.
        m_half = Matching([(3, 3)])
        assert not ctx.internals_equal(t1.get(2), t2.get(2), m_half)

    def test_internal_label_mismatch(self, doc_pair):
        t1, t2 = doc_pair
        ctx = CriteriaContext(t1, t2)
        assert not ctx.internals_equal(t1.get(2), t2.root, Matching())

    def test_empty_internal_nodes(self):
        t1 = Tree.from_obj(("D", None, [("P", None, [])]))
        t2 = Tree.from_obj(("D", None, [("P", None, [])]))
        ctx_yes = CriteriaContext(t1, t2, MatchConfig(match_empty_internals=True))
        ctx_no = CriteriaContext(t1, t2, MatchConfig(match_empty_internals=False))
        assert ctx_yes.internals_equal(t1.get(2), t2.get(2), Matching())
        assert not ctx_no.internals_equal(t1.get(2), t2.get(2), Matching())

    def test_leaf_internal_mix_never_matches(self, doc_pair):
        t1, t2 = doc_pair
        ctx = CriteriaContext(t1, t2)
        assert not ctx.nodes_equal(t1.get(3), t2.get(2), Matching())


class TestCriterion3:
    def test_unique_sentences_hold(self, doc_pair):
        t1, t2 = doc_pair
        assert criterion3_holds(t1, t2)

    def test_duplicates_violate(self):
        t1 = Tree.from_obj(("D", None, [("S", "same words here")]))
        t2 = Tree.from_obj(
            ("D", None, [("S", "same words here"), ("S", "same words here")])
        )
        violations = criterion3_violations(t1, t2)
        assert len(violations) == 1
        leaf, close = violations[0]
        assert leaf.value == "same words here"
        assert len(close) == 2
        assert not criterion3_holds(t1, t2)

    def test_violation_is_direction_sensitive(self):
        t1 = Tree.from_obj(
            ("D", None, [("S", "same words here"), ("S", "same words here")])
        )
        t2 = Tree.from_obj(("D", None, [("S", "same words here")]))
        assert criterion3_violations(t1, t2) == []
        assert criterion3_violations(t2, t1) != []
        assert not criterion3_holds(t1, t2)


class TestMatchingSatisfiesCriteria:
    """Criteria 1 and 2 on every pair, as the verify oracle checks them."""

    @staticmethod
    def satisfies(m, t1, t2, config=None):
        config = config if config is not None else MatchConfig()
        return not check_matching_validity(t1, t2, m, config, check_criterion2=True)

    def test_good_matching_passes(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(1, 1), (2, 2), (3, 3), (4, 4)])
        # pair (4, 4) is at word distance 2/3, so f must be at least that
        assert self.satisfies(m, t1, t2, MatchConfig(f=0.7))

    def test_good_matching_fails_under_tight_f(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(1, 1), (2, 2), (3, 3), (4, 4)])
        assert not self.satisfies(m, t1, t2, MatchConfig(f=0.5))

    def test_distant_leaf_pair_fails(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(6, 6)])  # "one two three" vs "completely different words"
        assert not self.satisfies(m, t1, t2)

    def test_leaf_to_internal_pair_fails(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(3, 2)])
        assert not self.satisfies(m, t1, t2)

    def test_weak_internal_pair_fails(self, doc_pair):
        t1, t2 = doc_pair
        m = Matching([(2, 6)])  # P with no common leaves
        assert not self.satisfies(m, t1, t2)
