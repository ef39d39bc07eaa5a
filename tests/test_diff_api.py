"""Tests for the top-level tree_diff API."""

import pytest

from repro import Matching, Tree, tree_diff
from repro.matching import MatchConfig


@pytest.fixture
def pair():
    t1 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "keep this sentence"), ("S", "and this one too")]),
            ("P", None, [("S", "another paragraph lives")]),
        ])
    )
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "another paragraph lives")]),
            ("P", None, [("S", "keep this sentence"), ("S", "and this one too")]),
        ])
    )
    return t1, t2


class TestTreeDiff:
    def test_default_fast_path(self, pair):
        t1, t2 = pair
        result = tree_diff(t1, t2)
        assert result.verify(t1, t2)
        # a paragraph swap should be detected as a single move
        assert result.script.summary()["move"] == 1
        assert result.script.summary()["insert"] == 0
        assert result.script.summary()["delete"] == 0

    def test_simple_algorithm_selected(self, pair):
        t1, t2 = pair
        result = tree_diff(t1, t2, algorithm="simple")
        assert result.verify(t1, t2)

    def test_unknown_algorithm_rejected(self, pair):
        t1, t2 = pair
        with pytest.raises(ValueError):
            tree_diff(t1, t2, algorithm="magic")

    def test_precomputed_matching_skips_matchers(self, pair):
        t1, t2 = pair
        # the true correspondence: P1 <-> P2', P2 <-> P1'
        matching = Matching([(1, 1), (2, 4), (3, 5), (4, 6), (5, 2), (6, 3)])
        result = tree_diff(t1, t2, matching=matching)
        assert result.matching is matching
        assert result.match_stats.leaf_compares == 0
        assert result.verify(t1, t2)

    def test_label_crossing_matching_rejected(self, pair):
        from repro.core.errors import MatchingError
        t1, t2 = pair
        bad = Matching([(2, 3)])  # P matched to S
        with pytest.raises(MatchingError):
            tree_diff(t1, t2, matching=bad)

    def test_unknown_node_in_matching_rejected(self, pair):
        from repro.core.errors import MatchingError
        t1, t2 = pair
        with pytest.raises(MatchingError):
            tree_diff(t1, t2, matching=Matching([(999, 1)]))

    def test_explicit_config(self, pair):
        t1, t2 = pair
        result = tree_diff(t1, t2, config=MatchConfig(f=0.5, t=0.6))
        assert result.verify(t1, t2)

    def test_postprocess_toggle(self, pair):
        t1, t2 = pair
        with_pp = tree_diff(t1, t2, postprocess=True)
        without_pp = tree_diff(t1, t2, postprocess=False)
        assert with_pp.verify(t1, t2) and without_pp.verify(t1, t2)
        assert without_pp.postprocess_repairs == 0

    def test_cost_accessor(self, pair):
        t1, t2 = pair
        result = tree_diff(t1, t2)
        assert result.cost() == pytest.approx(result.script.cost())

    def test_match_stats_populated(self, pair):
        t1, t2 = pair
        result = tree_diff(t1, t2)
        assert result.match_stats.leaf_compares > 0

    def test_identical_trees_empty_script(self, pair):
        t1, _ = pair
        result = tree_diff(t1, t1.copy())
        assert result.script.is_empty()
        assert result.cost() == 0.0
