"""Tests for the parameterized matcher A(k) (§9 future work): FastMatch's ``k``."""

import pytest

from repro.core import Tree
from repro.editscript import generate_edit_script
from repro.matching import MatchConfig, MatchingStats, fast_match
from repro.workload import DocumentSpec, MutationEngine, MutationMix, generate_document


@pytest.fixture
def moved_pair():
    """A document pair where one sentence travels the full document."""
    t1 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "wanderer unique phrase"), ("S", "anchor aa bb"),
                          ("S", "anchor cc dd")]),
            ("P", None, [("S", "anchor ee ff"), ("S", "anchor gg hh")]),
            ("P", None, [("S", "anchor ii jj"), ("S", "anchor kk ll"),
                          ("S", "anchor mm nn")]),
        ])
    )
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "anchor aa bb"), ("S", "anchor cc dd")]),
            ("P", None, [("S", "anchor ee ff"), ("S", "anchor gg hh")]),
            ("P", None, [("S", "anchor ii jj"), ("S", "anchor kk ll"),
                          ("S", "anchor mm nn"), ("S", "wanderer unique phrase")]),
        ])
    )
    return t1, t2


class TestKExtremes:
    def test_k_zero_misses_long_moves(self, moved_pair):
        t1, t2 = moved_pair
        lcs_only = fast_match(t1, t2, k=0)
        # the wanderer (t1 node 3) changed relative order, so the LCS-only
        # pass cannot keep it and no fallback exists at k = 0
        assert not lcs_only.has1(3)

    def test_negative_k_rejected(self, moved_pair):
        t1, t2 = moved_pair
        with pytest.raises(ValueError):
            fast_match(t1, t2, k=-1)


class TestTradeoff:
    def test_larger_k_never_worse(self, moved_pair):
        """Script cost is non-increasing in k on this workload."""
        t1, t2 = moved_pair
        costs = []
        for k in (0, 1, 4, None):
            matching = fast_match(t1, t2, k=k)
            result = generate_edit_script(t1, t2, matching)
            assert result.verify(t1, t2)
            costs.append(result.cost())
        assert costs == sorted(costs, reverse=True)
        # unbounded k recovers the single-move solution
        assert costs[-1] < costs[0]

    def test_k_bounds_comparisons(self):
        """Fallback comparisons shrink as k shrinks."""
        base = generate_document(77, DocumentSpec(sections=5))
        mix = MutationMix(move_leaf=3.0, move_subtree=1.0)
        edited = MutationEngine(78, mix=mix).mutate(base, 15).tree
        compares = {}
        counters = {}
        for k in (0, 2, None):
            stats = MatchingStats()
            matching = fast_match(base, edited, MatchConfig(), stats=stats, k=k)
            result = generate_edit_script(base, edited, matching)
            assert result.verify(base, edited)
            compares[k] = stats.leaf_compares
            counters[k] = (stats.leaf_compares, stats.partner_checks)
        assert compares[0] <= compares[2] <= compares[None]
        assert counters == {0: (614, 530), 2: (618, 542), None: (745, 610)}

    def test_any_k_is_correct(self):
        """Whatever k, the downstream edit script verifies (only optimality
        varies) — the library's central safety property."""
        base = generate_document(79, DocumentSpec(sections=3))
        edited = MutationEngine(80).mutate(base, 12).tree
        for k in (0, 1, 3, 10, None):
            matching = fast_match(base, edited, k=k)
            result = generate_edit_script(base, edited, matching)
            assert result.verify(base, edited)
