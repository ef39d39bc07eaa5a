"""Hypothesis property tests for the library's core invariants (DESIGN §6)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Matching, Tree, tree_diff, trees_isomorphic
from repro.analysis import result_distances
from repro.editscript import generate_edit_script
from repro.workload import DocumentSpec, MutationEngine, generate_document


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def document_trees(draw, max_leaves=14):
    """Small random D/P/S trees with short sentence values."""
    children = []
    n_paragraphs = draw(st.integers(0, 4))
    counter = 0
    for _ in range(n_paragraphs):
        paragraph = []
        children.append(("P", None, paragraph))
        n_sentences = draw(st.integers(0, 4))
        for _ in range(n_sentences):
            counter += 1
            if counter > max_leaves:
                break
            words = draw(st.lists(
                st.sampled_from(["aa", "bb", "cc", "dd", "ee"]),
                min_size=1, max_size=4,
            ))
            paragraph.append(("S", " ".join(words)))
    # a few bare sentences directly under the root
    for _ in range(draw(st.integers(0, 2))):
        children.append(("S", draw(st.sampled_from(["xx yy", "zz ww", "qq"]))))
    return Tree.from_obj(("D", None, children))


@st.composite
def tree_pairs_with_matching(draw):
    """Two random trees plus an arbitrary label/kind-respecting matching."""
    t1 = draw(document_trees())
    t2 = draw(document_trees())
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    matching = Matching()
    buckets1, buckets2 = {}, {}
    for node in t1.preorder():
        buckets1.setdefault((node.label, node.is_leaf), []).append(node)
    for node in t2.preorder():
        buckets2.setdefault((node.label, node.is_leaf), []).append(node)
    for key, nodes1 in buckets1.items():
        nodes2 = buckets2.get(key, [])
        a, b = nodes1[:], nodes2[:]
        rng.shuffle(a)
        rng.shuffle(b)
        for x, y in zip(a, b):
            if rng.random() < 0.7:
                matching.add(x.id, y.id)
    return t1, t2, matching


# ---------------------------------------------------------------------------
# Invariant 1-3: the generator transforms, conforms, and is tight
# ---------------------------------------------------------------------------
class TestGeneratorInvariants:
    @given(tree_pairs_with_matching())
    @settings(max_examples=150, deadline=None)
    def test_transforms_to_isomorphic_tree(self, data):
        t1, t2, matching = data
        result = generate_edit_script(t1, t2, matching)
        assert result.verify(t1, t2)

    @given(tree_pairs_with_matching())
    @settings(max_examples=100, deadline=None)
    def test_conforms_to_matching(self, data):
        t1, t2, matching = data
        result = generate_edit_script(t1, t2, matching)
        matched1 = {x for x, _ in matching.pairs()}
        matched2 = {y for _, y in matching.pairs()}
        deleted = {op.node_id for op in result.script.deletes}
        assert not (matched1 & deleted)
        # inserted nodes pair with previously unmatched T2 nodes
        for op in result.script.inserts:
            partner = result.matching.partner1(op.node_id)
            assert partner not in matched2

    @given(tree_pairs_with_matching())
    @settings(max_examples=100, deadline=None)
    def test_exact_insert_delete_move_counts(self, data):
        """Theorem C.2: the script meets the structural lower bound."""
        t1, t2, matching = data
        result = generate_edit_script(t1, t2, matching)
        unmatched_t2 = sum(1 for n in t2.preorder() if not matching.has2(n.id))
        unmatched_t1 = sum(1 for n in t1.preorder() if not matching.has1(n.id))
        assert len(result.script.inserts) == unmatched_t2
        assert len(result.script.deletes) == unmatched_t1

    @given(tree_pairs_with_matching())
    @settings(max_examples=100, deadline=None)
    def test_updates_only_change_values(self, data):
        t1, t2, matching = data
        result = generate_edit_script(t1, t2, matching)
        for op in result.script.updates:
            assert op.old_value != op.value


# ---------------------------------------------------------------------------
# End-to-end invariants on realistic mutated documents
# ---------------------------------------------------------------------------
class TestEndToEndInvariants:
    @given(st.integers(0, 500), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_diff_of_mutated_document_verifies(self, seed, edits):
        base = generate_document(
            seed % 7, DocumentSpec(sections=2, paragraphs_per_section=3,
                                   sentences_per_paragraph=3)
        )
        mutated = MutationEngine(seed).mutate(base, edits).tree
        result = tree_diff(base, mutated)
        assert result.verify(base, mutated)

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_self_diff_is_empty(self, seed):
        base = generate_document(
            seed % 5, DocumentSpec(sections=2, paragraphs_per_section=2)
        )
        result = tree_diff(base, base.copy())
        assert result.script.is_empty()

    @given(st.integers(0, 200), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_cost_bounded_by_rebuild(self, seed, edits):
        """Any conforming script costs at most delete-everything +
        insert-everything (the empty-matching script), under unit costs."""
        base = generate_document(
            seed % 5, DocumentSpec(sections=2, paragraphs_per_section=2)
        )
        mutated = MutationEngine(seed + 999).mutate(base, edits).tree
        result = tree_diff(base, mutated)
        # updates cost <= 2 by the compare contract; bound loosely
        rebuild_cost = len(base) + len(mutated)
        assert result.cost() <= rebuild_cost + 2 * len(result.script.updates)

    @given(st.integers(0, 200), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_weighted_distance_nonnegative_and_finite(self, seed, edits):
        base = generate_document(
            seed % 5, DocumentSpec(sections=2, paragraphs_per_section=2)
        )
        mutated = MutationEngine(seed + 5).mutate(base, edits).tree
        result = tree_diff(base, mutated)
        distances = result_distances(base, result.edit)
        assert distances.weighted >= 0
        assert distances.unweighted == len(result.script)


# ---------------------------------------------------------------------------
# Round-trip invariants
# ---------------------------------------------------------------------------
class TestRoundTrips:
    @given(document_trees())
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip(self, tree):
        from repro.core import tree_from_dict, tree_to_dict
        assert trees_isomorphic(tree_from_dict(tree_to_dict(tree)), tree)

    @given(document_trees())
    @settings(max_examples=60, deadline=None)
    def test_sexpr_round_trip(self, tree):
        from repro.core import tree_from_sexpr, tree_to_sexpr
        assert trees_isomorphic(tree_from_sexpr(tree_to_sexpr(tree)), tree)

    @given(document_trees())
    @settings(max_examples=60, deadline=None)
    def test_copy_is_isomorphic(self, tree):
        assert trees_isomorphic(tree, tree.copy())

    @given(document_trees())
    @settings(max_examples=50, deadline=None)
    def test_script_serialization_round_trip(self, t2):
        from repro.editscript import EditScript
        t1 = Tree.from_obj(("D", None, [("P", None, [("S", "seed origin")])]))
        result = tree_diff(t1, t2)
        rebuilt = EditScript.from_dicts(result.script.to_dicts())
        assert rebuilt == result.script
        replay = result.edit.replay(t1)
        assert trees_isomorphic(replay, t2)
