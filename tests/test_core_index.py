"""TreeIndex invariants: the index must agree with naive recomputation."""

import pytest

from repro import Tree, tree_diff
from repro.core.index import TreeIndex, cached_index
from repro.workload import MutationEngine, generate_document
from repro.workload.documents import DocumentSpec
from repro.workload.random_trees import RandomTreeSpec, random_tree


def naive_leaf_count(node):
    return sum(1 for _ in node.leaves())


def naive_chains(tree):
    chains = {}
    for node in tree.preorder():
        chains.setdefault(node.label, []).append(node)
    return chains


def assert_index_consistent(index, tree):
    """Every indexed fact equals its naive recomputation."""
    preorder = list(tree.preorder())
    assert len(index) == len(preorder) == len(tree)

    # Preorder ranks, subtree sizes, leaf counts, spans, child ranks.
    leaves_seen = []
    for rank, node in enumerate(preorder):
        assert node.id in index
        assert index.rank(node.id) == rank
        assert index.subtree_size(node.id) == node.subtree_size()
        assert index.leaf_count(node.id) == naive_leaf_count(node)
        assert list(index.leaves_of(node.id)) == list(node.leaves())
        if node.parent is not None:
            assert index.child_rank(node.id) == node.child_index()
        if node.is_leaf:
            leaves_seen.append(node)

    # The flat leaf list is the document-order leaf sequence.
    assert list(index.leaves_of(tree.root.id)) == leaves_seen == list(tree.leaves())

    # Containment agrees with parent-chain ascent, both directions.
    for node in preorder:
        for other in preorder:
            naive = any(a is other for a in node.ancestors())
            assert index.is_under(node.id, other.id) == naive

    # Label chains and label lists.
    assert {k: v for k, v in index.chains().items()} == naive_chains(tree)
    assert index.leaf_labels() == tree.leaf_labels()
    assert index.internal_labels() == tree.internal_labels()


@pytest.fixture
def document():
    return generate_document(7, DocumentSpec(sections=3, paragraphs_per_section=3,
                                             sentences_per_paragraph=3))


class TestConstruction:
    def test_document_tree(self, document):
        assert_index_consistent(TreeIndex(document), document)

    def test_single_node_tree(self):
        tree = Tree.from_obj(("D", "only"))
        index = TreeIndex(tree)
        assert_index_consistent(index, tree)
        assert index.leaf_count(tree.root.id) == 1
        assert list(index.leaves_of(tree.root.id)) == [tree.root]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_trees(self, seed):
        tree = random_tree(seed, RandomTreeSpec(max_depth=5, max_children=4))
        assert_index_consistent(TreeIndex(tree), tree)

    def test_deep_chain(self):
        spec = ("P", None, [("S", "bottom")])
        for _ in range(60):
            spec = ("P", None, [spec])
        tree = Tree.from_obj(("D", None, [spec]))
        assert_index_consistent(TreeIndex(tree), tree)


class TestAfterReplay:
    """Rebuilding on a replayed tree agrees with naive recomputation."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_index_after_edit_script_apply(self, seed):
        old = generate_document(seed, DocumentSpec(sections=3,
                                                   paragraphs_per_section=3,
                                                   sentences_per_paragraph=3))
        new = MutationEngine(seed + 1).mutate(old, 12).tree
        result = tree_diff(old, new)
        replayed = result.edit.script.apply_to(old)
        assert_index_consistent(TreeIndex(replayed), replayed)

    def test_stale_index_detected_after_mutation(self, document):
        index, _ = cached_index(document)
        document.insert(999, "S", "a fresh sentence", document.root.id, 1)
        fresh, reused = cached_index(document)
        assert not reused
        assert fresh is not index
        assert_index_consistent(fresh, document)

    def test_stale_index_detected_after_same_size_move(self, document):
        index, _ = cached_index(document)
        sections = document.root.children
        document.move(sections[0].children[0].id, sections[1].id, 1)
        fresh, reused = cached_index(document)
        assert not reused
        assert fresh is not index
        assert_index_consistent(fresh, document)


class TestCachedIndex:
    def test_reuses_attached_index(self, document):
        index, _ = cached_index(document)
        again, reused = cached_index(document)
        assert reused and again is index

    def test_builds_when_absent(self, document):
        index, reused = cached_index(document)
        assert not reused
        assert_index_consistent(index, document)

    def test_rejects_foreign_attachment(self, document):
        # A copy shares the arena snapshot but not the index, whose lazy
        # node binding belongs to the tree it was built over.
        other = document.copy()
        cached_index(other)
        index, reused = cached_index(document)
        assert not reused
        assert index.tree is document
        assert_index_consistent(index, document)
