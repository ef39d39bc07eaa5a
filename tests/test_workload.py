"""Tests for workload generation: random trees, documents, mutations, corpora."""

import pytest

from repro.core import trees_isomorphic
from repro.workload import (
    DocumentGenerator,
    DocumentSpec,
    MutationEngine,
    MutationMix,
    RandomTreeSpec,
    generate_document,
    make_document_set,
    paper_document_sets,
    perfect_tree,
    random_flat_tree,
    random_tree,
)


def _height(tree):
    """Edges on the longest root-to-leaf path."""
    return max(len(list(leaf.ancestors())) for leaf in tree.leaves())


class TestRandomTrees:
    def test_deterministic_by_seed(self):
        t1 = random_tree(42)
        t2 = random_tree(42)
        assert trees_isomorphic(t1, t2)

    def test_different_seeds_differ(self):
        assert not trees_isomorphic(random_tree(1), random_tree(2))

    def test_respects_depth_bound(self):
        spec = RandomTreeSpec(max_depth=3)
        tree = random_tree(7, spec)
        assert _height(tree) <= 3

    def test_labels_from_spec(self):
        spec = RandomTreeSpec(leaf_labels=("X",), internal_labels=("Y",),
                              root_label="R")
        tree = random_tree(9, spec)
        labels = {node.label for node in tree.preorder()}
        assert labels <= {"X", "Y", "R"}

    def test_flat_tree_leaf_count(self):
        tree = random_flat_tree(3, leaves=25)
        assert sum(1 for _ in tree.leaves()) == 25
        assert _height(tree) == 1

    def test_perfect_tree_shape(self):
        tree = perfect_tree(fanout=3, depth=2)
        assert sum(1 for _ in tree.leaves()) == 9
        assert len(tree) == 1 + 3 + 9

    def test_perfect_tree_unique_leaves(self):
        tree = perfect_tree(fanout=2, depth=3)
        values = [leaf.value for leaf in tree.leaves()]
        assert len(values) == len(set(values))


class TestDocumentGenerator:
    def test_deterministic(self):
        assert trees_isomorphic(generate_document(5), generate_document(5))

    def test_document_shape(self):
        doc = generate_document(1, DocumentSpec(sections=4))
        assert doc.root.label == "D"
        assert all(c.label == "Sec" for c in doc.root.children)
        labels = {node.label for node in doc.preorder()}
        assert "P" in labels and "S" in labels

    def test_sentences_mostly_unique(self):
        doc = generate_document(2, DocumentSpec(sections=5))
        values = [leaf.value for leaf in doc.leaves()]
        assert len(set(values)) == len(values)

    def test_criterion3_mostly_holds_by_default(self):
        """Zipf-weighted vocabularies occasionally make two sentences
        'close'; as in real documents, violations exist but are rare."""
        from repro.matching import criterion3_violations
        doc1 = generate_document(3, DocumentSpec(sections=3))
        engine = MutationEngine(4)
        doc2 = engine.mutate(doc1, 5).tree
        violations = criterion3_violations(doc1, doc2)
        leaves = sum(1 for _ in doc1.leaves())
        assert len(violations) / leaves < 0.1

    def test_duplicate_injection(self):
        spec = DocumentSpec(sections=4, duplicate_sentence_rate=0.3)
        doc = DocumentGenerator(11).document(spec)
        values = [leaf.value for leaf in doc.leaves()]
        assert len(set(values)) < len(values)

    def test_lists_and_subsections(self):
        spec = DocumentSpec(
            sections=5, subsection_probability=0.4, list_probability=0.4
        )
        doc = DocumentGenerator(13).document(spec)
        labels = {node.label for node in doc.preorder()}
        assert "list" in labels and "item" in labels
        assert "SubSec" in labels


class TestMutationEngine:
    def test_mutation_changes_tree(self):
        base = generate_document(21)
        mutated = MutationEngine(5).mutate(base, 10)
        assert not trees_isomorphic(base, mutated.tree)
        assert len(mutated.record.applied) == 10

    def test_base_untouched(self):
        base = generate_document(22)
        before = base.to_obj()
        MutationEngine(6).mutate(base, 10)
        assert base.to_obj() == before

    def test_deterministic(self):
        base = generate_document(23)
        m1 = MutationEngine(7).mutate(base, 8)
        m2 = MutationEngine(7).mutate(base, 8)
        assert trees_isomorphic(m1.tree, m2.tree)
        assert m1.record.applied == m2.record.applied

    def test_record_counts(self):
        base = generate_document(24)
        mutated = MutationEngine(8).mutate(base, 12)
        record = mutated.record
        assert record.true_d >= 12  # subtree ops count per node
        assert record.true_e >= 0
        assert sum(record.count(k) for k in set(record.applied)) == 12

    def test_zero_operations(self):
        base = generate_document(25)
        mutated = MutationEngine(9).mutate(base, 0)
        assert trees_isomorphic(base, mutated.tree)
        assert mutated.record.true_d == 0

    def test_custom_mix_only_updates(self):
        mix = MutationMix(
            insert_leaf=0, delete_leaf=0, update_leaf=1, move_leaf=0,
            move_subtree=0, insert_subtree=0, delete_subtree=0,
        )
        base = generate_document(26)
        mutated = MutationEngine(10, mix=mix).mutate(base, 5)
        assert set(mutated.record.applied) == {"update_leaf"}
        # updates weigh zero
        assert mutated.record.true_e == 0.0

    def test_all_zero_mix_rejected(self):
        mix = MutationMix(0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            mix.normalized()

    def test_update_keeps_sentences_close(self):
        """Perturbed sentences must stay within compare < 1 so the matcher
        can still pair them (the cost-model consistency property)."""
        from repro.compare import word_lcs_distance
        engine = MutationEngine(11)
        original = "one two three four five six seven eight nine ten"
        for _ in range(20):
            perturbed = engine._perturb_sentence(original)
            assert word_lcs_distance(original, perturbed) < 1.0


class TestCorpus:
    def test_version_set_shape(self):
        ds = make_document_set("test", seed=3, edit_counts=(0, 2, 4))
        assert len(ds.versions) == 3
        assert ds.versions[0].edits_from_base == 0
        assert ds.versions[2].edits_from_base == 4

    def test_pairs_enumeration(self):
        ds = make_document_set("test", seed=3, edit_counts=(0, 2, 4))
        assert len(list(ds.pairs())) == 3
        assert len(list(ds.consecutive_pairs())) == 2

    def test_versions_share_content(self):
        ds = make_document_set("test", seed=4, edit_counts=(0, 3))
        base_values = {leaf.value for leaf in ds.versions[0].tree.leaves()}
        edited_values = {leaf.value for leaf in ds.versions[1].tree.leaves()}
        assert len(base_values & edited_values) > len(base_values) / 2

    def test_paper_sets_have_three_sets(self):
        sets = paper_document_sets(edit_counts=(0, 2))
        assert len(sets) == 3
        sizes = [len(ds.versions[0].tree) for ds in sets]
        assert sizes[0] < sizes[1] < sizes[2]
