"""Tests for matching-quality evaluation (repro.analysis.quality)."""

import pytest

from repro.analysis import MatchQuality, matching_quality, pair_sets
from repro.matching import Matching, MatchConfig, fast_match, match
from repro.workload import DocumentSpec, MutationEngine, generate_document


@pytest.fixture
def ground_truth_pair():
    base = generate_document(101, DocumentSpec(sections=3))
    mutated = MutationEngine(102).mutate(base, 8).tree
    return base, mutated


class TestMatchQualityArithmetic:
    def test_perfect(self):
        q = MatchQuality(true_pairs=10, proposed_pairs=10, correct_pairs=10)
        assert q.precision == 1.0 and q.recall == 1.0 and q.f1 == 1.0

    def test_half_recall(self):
        q = MatchQuality(true_pairs=10, proposed_pairs=5, correct_pairs=5)
        assert q.precision == 1.0
        assert q.recall == 0.5
        assert q.f1 == pytest.approx(2 / 3)

    def test_empty_matching_conventions(self):
        q = MatchQuality(true_pairs=0, proposed_pairs=0, correct_pairs=0)
        assert q.precision == 1.0 and q.recall == 1.0
        q2 = MatchQuality(true_pairs=5, proposed_pairs=0, correct_pairs=0)
        assert q2.precision == 1.0 and q2.recall == 0.0 and q2.f1 == 0.0


class TestGroundTruthScoring:
    def test_identity_matching_is_perfect(self, ground_truth_pair):
        base, mutated = ground_truth_pair
        survivors = set(base.node_ids()) & set(mutated.node_ids())
        matching = Matching([(i, i) for i in survivors])
        q = matching_quality(base, mutated, matching)
        assert q.precision == 1.0 and q.recall == 1.0

    def test_fastmatch_scores_high(self, ground_truth_pair):
        base, mutated = ground_truth_pair
        matching = fast_match(base, mutated, MatchConfig())
        q = matching_quality(base, mutated, matching)
        assert q.precision > 0.9
        assert q.recall > 0.9

    def test_match_and_fastmatch_comparable(self, ground_truth_pair):
        base, mutated = ground_truth_pair
        config = MatchConfig()
        q_fast = matching_quality(base, mutated, fast_match(base, mutated, config))
        q_slow = matching_quality(base, mutated, match(base, mutated, config))
        assert abs(q_fast.f1 - q_slow.f1) < 0.1

    def test_k_zero_recall_suffers_on_moves(self):
        """A(0) misses reordered nodes: lower recall, same precision."""
        from repro.workload import MutationMix
        base = generate_document(111, DocumentSpec(sections=4))
        mix = MutationMix(move_leaf=3.0, move_subtree=2.0, insert_leaf=0.2,
                          delete_leaf=0.2, update_leaf=0.2)
        mutated = MutationEngine(112, mix=mix).mutate(base, 15).tree
        q_zero = matching_quality(
            base, mutated, fast_match(base, mutated, k=0)
        )
        q_full = matching_quality(
            base, mutated, fast_match(base, mutated, k=None)
        )
        assert q_full.recall > q_zero.recall
        assert q_zero.precision >= 0.9

    def test_wrong_pairs_hurt_precision(self, ground_truth_pair):
        base, mutated = ground_truth_pair
        # pair every base S-leaf with a shifted mutated S-leaf: mostly wrong
        base_leaves = [n.id for n in base.leaves()]
        mutated_leaves = [n.id for n in mutated.leaves()]
        shifted = Matching(
            list(zip(base_leaves, mutated_leaves[1:] + mutated_leaves[:1]))
        )
        q = matching_quality(base, mutated, shifted)
        assert q.precision < 0.5

    def test_pair_sets(self, ground_truth_pair):
        base, mutated = ground_truth_pair
        matching = fast_match(base, mutated, MatchConfig())
        survivors, correct = pair_sets(base, mutated, matching)
        assert correct <= survivors
        q = matching_quality(base, mutated, matching)
        assert len(correct) == q.correct_pairs
        assert len(survivors) == q.true_pairs
