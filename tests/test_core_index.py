"""Arena structure tables: they must agree with naive recomputation."""

import pytest

from repro import Tree, tree_diff
from repro.workload import MutationEngine, generate_document
from repro.workload.documents import DocumentSpec
from repro.workload.random_trees import RandomTreeSpec, random_tree


def naive_leaf_count(node):
    return sum(1 for _ in node.leaves())


def naive_chains(tree, leaves):
    """Label -> nodes of one kind, document order, labels first-seen."""
    chains = {}
    for node in tree.preorder():
        if node.is_leaf == leaves:
            chains.setdefault(node.label, []).append(node)
    return chains


def assert_index_consistent(arena, tree):
    """Every table of *arena* equals its naive recomputation on *tree*."""
    preorder = list(tree.preorder())
    assert arena.n == len(preorder) == len(tree)
    assert tree.arena_nodes() == preorder

    # Preorder ranks, subtree sizes, leaf counts, spans.
    leaves_seen = []
    for rank, node in enumerate(preorder):
        assert arena.pos_of[node.id] == rank
        assert arena.subtree_size[rank] == node.subtree_size()
        assert arena.leaf_count[rank] == naive_leaf_count(node)
        start = arena.leaf_start[rank]
        span = arena.leaf_positions[start:start + arena.leaf_count[rank]]
        assert [preorder[pos] for pos in span] == list(node.leaves())
        if node.is_leaf:
            leaves_seen.append(node)

    # The flat leaf list is the document-order leaf sequence.
    assert [preorder[pos] for pos in arena.leaf_positions] == leaves_seen
    assert leaves_seen == list(tree.leaves())

    # Preorder intervals agree with parent-chain ascent, both directions.
    for rank, node in enumerate(preorder):
        for other_rank, other in enumerate(preorder):
            naive = any(a is other for a in node.ancestors())
            end = other_rank + arena.subtree_size[other_rank]
            assert (other_rank < rank < end) == naive

    # Label chains, with their labels in first-seen order.
    for table, leaves in ((arena.leaf_chains, True), (arena.internal_chains, False)):
        bound = {label: [preorder[pos] for pos in chain] for label, chain in table.items()}
        assert list(bound.items()) == list(naive_chains(tree, leaves).items())


@pytest.fixture
def document():
    return generate_document(7, DocumentSpec(sections=3, paragraphs_per_section=3,
                                             sentences_per_paragraph=3))


class TestConstruction:
    def test_document_tree(self, document):
        assert_index_consistent(document.to_arena(), document)

    def test_single_node_tree(self):
        tree = Tree.from_obj(("D", "only"))
        arena = tree.to_arena()
        assert_index_consistent(arena, tree)
        assert arena.leaf_count[0] == 1
        assert list(arena.leaf_positions) == [0]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_trees(self, seed):
        tree = random_tree(seed, RandomTreeSpec(max_depth=5, max_children=4))
        assert_index_consistent(tree.to_arena(), tree)

    def test_deep_chain(self):
        spec = ("P", None, [("S", "bottom")])
        for _ in range(60):
            spec = ("P", None, [spec])
        tree = Tree.from_obj(("D", None, [spec]))
        assert_index_consistent(tree.to_arena(), tree)


class TestAfterReplay:
    """Tables built on a replayed tree agree with naive recomputation."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_index_after_edit_script_apply(self, seed):
        old = generate_document(seed, DocumentSpec(sections=3,
                                                   paragraphs_per_section=3,
                                                   sentences_per_paragraph=3))
        new = MutationEngine(seed + 1).mutate(old, 12).tree
        result = tree_diff(old, new)
        replayed = result.edit.script.apply_to(old)
        assert_index_consistent(replayed.to_arena(), replayed)

    def test_stale_index_detected_after_mutation(self, document):
        arena = document.to_arena()
        arena.build_tables()
        document.insert(999, "S", "a fresh sentence", document.root.id, 1)
        fresh = document.to_arena()
        assert fresh is not arena
        assert not fresh.build_tables()
        assert_index_consistent(fresh, document)

    def test_stale_index_detected_after_same_size_move(self, document):
        arena = document.to_arena()
        arena.build_tables()
        sections = document.root.children
        document.move(sections[0].children[0].id, sections[1].id, 1)
        fresh = document.to_arena()
        assert fresh is not arena
        assert not fresh.build_tables()
        assert_index_consistent(fresh, document)


class TestCachedIndex:
    def test_reuses_attached_index(self, document):
        arena = document.to_arena()
        arena.build_tables()
        assert document.to_arena().build_tables()
        assert document.to_arena().leaf_chains is arena.leaf_chains

    def test_builds_when_absent(self, document):
        assert not document.to_arena().build_tables()
        assert_index_consistent(document.to_arena(), document)

    def test_copy_shares_the_tables(self, document):
        # A copy shares the snapshot, so the tables too; its node binding
        # is its own.
        document.to_arena().build_tables()
        other = document.copy()
        assert other.to_arena().build_tables()
        assert other.arena_nodes()[0] is other.root is not document.root
        assert_index_consistent(other.to_arena(), other)
        assert_index_consistent(document.to_arena(), document)
