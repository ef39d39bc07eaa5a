"""Tests for the struct-of-arrays arena core (repro.core.arena).

Covers the builder invariants, the lazy Tree view, script replay on an
arena-backed view (which must leave the arena untouched), and a
Hypothesis round-trip property pinning the Node-graph <-> arena
equivalence.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArenaBuilder,
    Tree,
    arenas_isomorphic,
    flatten_root,
    tree_from_dict,
    tree_to_dict,
    trees_isomorphic,
)
from repro.core.errors import DuplicateNodeError, EditScriptError, TreeError
from repro.editscript.script import EditScript
from repro.editscript.operations import Delete, Insert, Move, Update
from repro.workload import RandomTreeSpec, paper_document_sets, random_tree
from test_core_index import assert_index_consistent


def sample_tree() -> Tree:
    return Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "aa"), ("S", "bb")]),
            ("P", None, [("S", "cc")]),
            ("S", "dd"),
        ])
    )


# ---------------------------------------------------------------------------
# Builder and arena arrays
# ---------------------------------------------------------------------------
class TestArenaBuilder:
    def test_preorder_arrays(self):
        b = ArenaBuilder()
        d = b.add(-1, "d", "D", None)
        p = b.add(d, "p", "P", None)
        s1 = b.add(p, "s1", "S", "aa")
        s2 = b.add(p, "s2", "S", "bb")
        q = b.add(d, "q", "S", "cc")
        arena = b.finish()
        assert arena.n == 5
        assert list(arena.parent) == [-1, d, p, p, d]
        assert arena.first_child[d] == p
        assert arena.next_sibling[p] == q
        assert arena.next_sibling[s1] == s2
        assert list(arena.subtree_size) == [5, 3, 1, 1, 1]
        assert arena.next_sibling[q] == -1
        assert arena.first_child[p] == s1 and arena.next_sibling[s2] == -1
        assert arena.is_leaf(s1) and not arena.is_leaf(p)
        assert arena.label_of(q) == "S" and arena.value_of(q) == "cc"
        assert arena.node_ids[s2] == "s2"

    def test_duplicate_id_rejected(self):
        b = ArenaBuilder()
        b.add(-1, 1, "D", None)
        with pytest.raises(DuplicateNodeError):
            b.add(0, 1, "P", None)

    def test_root_must_come_first(self):
        b = ArenaBuilder()
        b.add(-1, 1, "D", None)
        with pytest.raises(TreeError):
            b.add(-1, 2, "D", None)

    def test_parent_position_bounds(self):
        b = ArenaBuilder()
        b.add(-1, 1, "D", None)
        with pytest.raises(TreeError):
            b.add(5, 2, "P", None)

    def test_empty_arena(self):
        arena = ArenaBuilder().finish()
        assert arena.n == 0 and len(arena) == 0
        assert list(arena.leaf_positions) == []

    def test_value_interning_keeps_bool_int_float_distinct(self):
        # 1 == True == 1.0 in Python; the pool must not merge them or
        # digests/serialization would silently change type.
        b = ArenaBuilder()
        b.add(-1, 0, "D", None)
        b.add(0, 1, "S", 1)
        b.add(0, 2, "S", True)
        b.add(0, 3, "S", 1.0)
        b.add(0, 4, "S", 1)
        arena = b.finish()
        assert arena.value_of(1) is not arena.value_of(2)
        assert type(arena.value_of(1)) is int
        assert type(arena.value_of(2)) is bool
        assert type(arena.value_of(3)) is float
        # equal same-type values share a pool slot
        assert arena.values[1] == arena.values[4]

    def test_unhashable_values_stored(self):
        b = ArenaBuilder()
        b.add(-1, 0, "D", None)
        b.add(0, 1, "S", ["a", "b"])
        arena = b.finish()
        assert arena.value_of(1) == ["a", "b"]

    def test_leaf_count_lazy_array(self):
        tree = sample_tree()
        arena = tree.to_arena()
        counts = arena.leaf_count
        assert counts[0] == 4  # root contains every leaf
        assert counts[arena.pos_of[tree.root.children[0].id]] == 2

    def test_is_under_is_self_inclusive(self):
        # q lies under p iff p <= q < p + subtree_size[p]; p is under itself
        tree = sample_tree()
        arena = tree.to_arena()
        for node in tree.preorder():
            pos = arena.pos_of[node.id]
            under = {arena.pos_of[d.id] for d in node.preorder()}
            assert under == set(range(pos, pos + arena.subtree_size[pos]))
            assert pos in under


# ---------------------------------------------------------------------------
# Links made at finish() against the Node graph's children lists
# ---------------------------------------------------------------------------
def node_graph_links(tree: Tree):
    """Per preorder position: (id, first-child id, next-sibling id, size),
    read off the Node graph's ``children`` lists alone."""
    order = list(tree.preorder())
    size = {}
    for node in reversed(order):
        size[node.id] = 1 + sum(size[child.id] for child in node.children)
    links = []
    for node in order:
        first = node.children[0].id if node.children else None
        siblings = node.parent.children if node.parent is not None else [node]
        rank = next(i for i, sib in enumerate(siblings) if sib is node)
        following = siblings[rank + 1].id if rank + 1 < len(siblings) else None
        links.append((node.id, first, following, size[node.id]))
    return links


def node_graph_dict(tree: Tree):
    """Dict-format dump built from Node objects (no arena involved)."""
    def dump(node):
        out = {"id": node.id, "label": node.label, "value": node.value}
        if node.children:
            out["children"] = [dump(child) for child in node.children]
        return out

    return None if tree.root is None else dump(tree.root)


def arena_links(arena):
    ids = arena.node_ids

    def id_at(pos):
        return None if pos < 0 else ids[pos]

    return [
        (ids[pos], id_at(arena.first_child[pos]), id_at(arena.next_sibling[pos]),
         arena.subtree_size[pos])
        for pos in range(arena.n)
    ]


def link_cases():
    cases = [
        pytest.param(Tree(), id="empty"),
        pytest.param(Tree.from_obj(("D",)), id="one-node"),
    ]
    for seed in range(12):
        tree = random_tree(seed, RandomTreeSpec(max_depth=4, max_children=5))
        cases.append(pytest.param(Tree.from_obj(tree.to_obj()), id=f"random-{seed}"))
    for document_set in paper_document_sets(edit_counts=(0,)):
        tree = document_set.versions[0].tree
        cases.append(pytest.param(Tree.from_obj(tree.to_obj()), id=document_set.name))
    return cases


class TestFinishLinks:
    @pytest.mark.parametrize("reference", link_cases())
    def test_links_match_node_graph(self, reference):
        arena = tree_from_dict(node_graph_dict(reference)).to_arena()
        assert arena_links(arena) == node_graph_links(reference)


# ---------------------------------------------------------------------------
# Round-trips and isomorphism
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_tree_arena_tree(self):
        tree = sample_tree()
        arena = tree.to_arena()
        back = Tree.from_arena(arena)
        assert trees_isomorphic(tree, back)
        assert [n.id for n in back.preorder()] == [n.id for n in tree.preorder()]
        assert [n.value for n in back.preorder()] == [
            n.value for n in tree.preorder()
        ]

    def test_flatten_root_order_alignment(self):
        tree = sample_tree()
        arena, order = flatten_root(tree.root)
        assert len(order) == arena.n
        for pos, node in enumerate(order):
            assert arena.node_ids[pos] == node.id
            assert arena.label_of(pos) == node.label

    def test_arenas_isomorphic_ignores_ids(self):
        t1 = sample_tree()
        t2 = sample_tree()
        for node in t2.preorder():
            node.id = f"x-{node.id}"
        t2._touch()
        t2._node_map = {n.id: n for n in t2.preorder()}
        assert arenas_isomorphic(t1.to_arena(), t2.to_arena())

    def test_arenas_isomorphic_detects_differences(self):
        base = sample_tree()
        changed_value = sample_tree()
        changed_value.update(changed_value.root.children[2].id, "ZZ")
        changed_shape = sample_tree()
        changed_shape.delete(changed_shape.root.children[2].id)
        assert not arenas_isomorphic(base.to_arena(), changed_value.to_arena())
        assert not arenas_isomorphic(base.to_arena(), changed_shape.to_arena())


# ---------------------------------------------------------------------------
# Lazy Tree views
# ---------------------------------------------------------------------------
class TestLazyView:
    def test_array_consumers_never_materialize(self):
        arena = sample_tree().to_arena()
        view = Tree.from_arena(arena)
        assert len(view) == 7
        assert arena.node_ids[0] in view
        assert list(view.node_ids()) == list(arena.node_ids)
        assert view.to_arena() is arena
        assert view.arena_snapshot() is arena
        arena.build_tables()
        tree_to_dict(view)
        assert view._node_map is None  # still no Node objects built

    def test_first_node_access_materializes(self):
        view = Tree.from_arena(sample_tree().to_arena())
        assert view._node_map is None
        root = view.root
        assert view._node_map is not None
        assert root.label == "D"
        assert [c._slot for c in root.children] == [0, 1, 2]

    def test_mutation_invalidates_snapshot(self):
        arena = sample_tree().to_arena()
        view = Tree.from_arena(arena)
        leaf = next(iter(view.leaves()))
        view.update(leaf.id, "new")
        assert view.arena_snapshot() is None
        fresh = view.to_arena()
        assert fresh is not arena
        assert fresh.value_of(fresh.pos_of[leaf.id]) == "new"
        # the original snapshot is untouched (immutability)
        assert arena.value_of(arena.pos_of[leaf.id]) != "new"

    def test_copy_shares_arena_zero_nodes(self):
        tree = sample_tree()
        snap = tree.to_arena()
        clone = tree.copy()
        assert clone._node_map is None
        assert clone.to_arena() is snap
        clone.update(clone.root.children[2].id, "changed")
        assert tree.root.children[2].value == "dd"  # source unaffected

    def test_fresh_ids_continue_past_arena_ids(self):
        view = Tree.from_arena(sample_tree().to_arena())
        node = view.create_node("S", "new", parent=view.root)
        assert isinstance(node.id, int)
        assert node.id > max(i for i in sample_tree().node_ids()
                             if isinstance(i, int))


# ---------------------------------------------------------------------------
# EditScript replay on an arena-backed Tree view
# ---------------------------------------------------------------------------
class TestApplyToArena:
    def test_parity_with_apply_to(self):
        tree = sample_tree()
        ids = {n.label + (n.value or ""): n.id for n in tree.preorder()}
        script = EditScript([
            Insert("n1", "S", "xx", ids["D"], 1),
            Update(ids["Scc"], "CC"),
            Move(ids["Sdd"], ids["D"], 1),
            Delete(ids["Saa"]),
        ])
        arena = tree.to_arena()
        via_tree = script.apply_to(tree)
        via_arena = script.apply_to(Tree.from_arena(arena), in_place=True)
        assert trees_isomorphic(via_tree, via_arena)
        assert [n.id for n in via_arena.preorder()] == [
            n.id for n in via_tree.preorder()
        ]
        # the replay edited the view's nodes, never the shared arena
        assert arenas_isomorphic(arena, sample_tree().to_arena())

    def test_failure_wraps_index_and_op(self):
        view = Tree.from_arena(sample_tree().to_arena())
        script = EditScript([Delete("does-not-exist")])
        with pytest.raises(EditScriptError, match=r"operation 0 \(DEL"):
            script.apply_to(view, in_place=True)


# ---------------------------------------------------------------------------
# Structure tables of arena-parsed trees agree with naive node walks
# ---------------------------------------------------------------------------
class TestIndexParity:
    def test_tables_agree(self):
        tree = tree_from_dict(tree_to_dict(sample_tree()))
        assert_index_consistent(tree.to_arena(), tree)

    def test_child_rank_raises_for_root(self):
        # FindPos reads sibling ranks from the nodes; the root has none.
        tree = tree_from_dict(tree_to_dict(sample_tree()))
        assert [c.child_index() for c in tree.root.children] == [1, 2, 3]
        with pytest.raises(ValueError):
            tree.root.child_index()


# ---------------------------------------------------------------------------
# Hypothesis: Node graph -> arena -> Node graph is the identity
# ---------------------------------------------------------------------------
@st.composite
def nested_specs(draw, depth=3):
    label = draw(st.sampled_from(["D", "P", "S", "W"]))
    value = draw(st.one_of(
        st.none(),
        st.text(alphabet="abc xyz", max_size=8),
        st.integers(-5, 5),
        st.booleans(),
    ))
    if depth == 0:
        return (label, value, [])
    children = draw(st.lists(nested_specs(depth=depth - 1), max_size=3))
    return (label, value, children)


@settings(max_examples=60, deadline=None)
@given(nested_specs())
def test_roundtrip_property(spec):
    tree = Tree.from_obj(spec)
    arena = tree.to_arena()
    back = Tree.from_arena(arena)

    originals = list(tree.preorder())
    restored = list(back.preorder())
    assert [n.id for n in restored] == [n.id for n in originals]
    assert [n.label for n in restored] == [n.label for n in originals]
    assert [(n.value, type(n.value)) for n in restored] == [
        (n.value, type(n.value)) for n in originals
    ]
    assert [len(n.children) for n in restored] == [
        len(n.children) for n in originals
    ]

    assert_index_consistent(back.to_arena(), back)


# ---------------------------------------------------------------------------
# __slots__ coverage on hot-path records
# ---------------------------------------------------------------------------
def test_core_types_have_no_dict():
    tree = sample_tree()
    arena = tree.to_arena()
    for obj in (tree.root, arena, ArenaBuilder()):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="dataclass slots need Python 3.10+"
)
def test_dataclass_records_have_no_dict():
    from repro.editscript.generator import GenerationStats
    from repro.matching.criteria import MatchingStats

    samples = [
        Insert(1, "S", "v", 0, 1),
        Delete(1),
        Update(1, "v"),
        Move(1, 2, 1),
        MatchingStats(),
        GenerationStats(),
    ]
    for obj in samples:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
