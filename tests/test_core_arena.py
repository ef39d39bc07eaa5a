"""Tests for the struct-of-arrays arena core (repro.core.arena).

Covers the builder invariants, the lazy Tree view, copy-on-write overlay
edits (including the error surface, which must match Tree's exactly), the
arena replay path of EditScript, and a Hypothesis round-trip property
pinning the Node-graph <-> arena equivalence.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArenaBuilder,
    ArenaOverlay,
    Tree,
    TreeArena,
    arenas_isomorphic,
    flatten_root,
    tree_from_dict,
    tree_to_dict,
    trees_isomorphic,
)
from repro.core.errors import (
    CyclicMoveError,
    DuplicateNodeError,
    EditScriptError,
    InvalidPositionError,
    NotALeafError,
    RootOperationError,
    TreeError,
    UnknownNodeError,
)
from repro.core.index import TreeIndex
from repro.editscript.script import EditScript
from repro.editscript.operations import Delete, Insert, Move, Update
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
        assert arena.children_of(d) == [p, q]
        assert arena.children_of(p) == [s1, s2]
        assert arena.is_leaf(s1) and not arena.is_leaf(p)
        assert arena.label_of(q) == "S" and arena.value_of(q) == "cc"
        assert arena.id_of(s2) == "s2"

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
        arena = TreeArena.empty()
        assert arena.n == 0 and len(arena) == 0
        assert list(arena.leaf_positions()) == []

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
        arena = sample_tree().to_arena()
        assert arena.is_under(0, 0)
        assert arena.is_under(2, 1)
        assert not arena.is_under(1, 2)


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
        assert arenas_isomorphic(t1.to_arena(), TreeArena.from_tree(t2))

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
        TreeIndex(view)
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
# Copy-on-write overlay
# ---------------------------------------------------------------------------
class TestArenaOverlay:
    def overlay(self):
        tree = sample_tree()
        return tree, tree.to_arena()

    def test_edit_parity_with_tree(self):
        tree, arena = self.overlay()
        ids = {n.label + (n.value or ""): n.id for n in tree.preorder()}
        ops = [
            ("insert", ("new1", "S", "ee", ids["D"], 2)),
            ("update", (ids["Saa"], "AA")),
            ("move", (ids["Scc"], ids["D"], 1)),
            ("delete", (ids["Sbb"],)),
        ]
        mirror = tree.copy()
        overlay = ArenaOverlay(arena)
        for name, args in ops:
            getattr(mirror, name)(*args)
            getattr(overlay, name)(*args)
        flattened = overlay.flatten()
        assert arenas_isomorphic(flattened, mirror.to_arena())
        # base arena untouched throughout
        assert arenas_isomorphic(arena, sample_tree().to_arena())

    def test_error_surface_matches_tree(self):
        _, arena = self.overlay()
        overlay = ArenaOverlay(arena)
        root_id = arena.node_ids[0]
        p_id = arena.node_ids[1]
        leaf_id = arena.node_ids[2]
        with pytest.raises(DuplicateNodeError):
            overlay.insert(root_id, "S", None, p_id, 1)
        with pytest.raises(UnknownNodeError):
            overlay.update("missing", "x")
        with pytest.raises(NotALeafError):
            overlay.delete(p_id)
        lone_tree = Tree.from_obj(("D", None, []))
        lone = ArenaOverlay(lone_tree.to_arena())
        with pytest.raises(RootOperationError):
            lone.delete(lone_tree.root.id)
        with pytest.raises(RootOperationError):
            overlay.move(root_id, p_id, 1)
        with pytest.raises(CyclicMoveError):
            overlay.move(p_id, leaf_id, 1)
        with pytest.raises(InvalidPositionError):
            overlay.insert("n", "S", None, p_id, 99)

    def test_deleted_node_becomes_unknown(self):
        _, arena = self.overlay()
        overlay = ArenaOverlay(arena)
        leaf_id = arena.node_ids[2]
        overlay.delete(leaf_id)
        with pytest.raises(UnknownNodeError):
            overlay.update(leaf_id, "x")
        # ...and its id becomes reusable, as on Tree
        overlay.insert(leaf_id, "S", "re", arena.node_ids[1], 1)
        assert overlay.flatten().n == arena.n

    def test_wrap_and_strip_root(self):
        _, arena = self.overlay()
        overlay = ArenaOverlay(arena)
        overlay.wrap_root("dummy", "__ROOT__")
        wrapped = overlay.flatten()
        assert wrapped.n == arena.n + 1
        assert wrapped.label_of(0) == "__ROOT__"
        overlay.strip_root()
        assert arenas_isomorphic(overlay.flatten(), arena)

    def test_strip_requires_single_child(self):
        _, arena = self.overlay()
        overlay = ArenaOverlay(arena)
        with pytest.raises(TreeError):
            overlay.strip_root()  # real root has three children

    def test_move_position_checked_after_detach(self):
        # Tree.move checks bounds against the post-detach sibling list;
        # the overlay must accept the same boundary position.
        tree, arena = self.overlay()
        p1 = tree.root.children[0]
        last = len(tree.root.children)
        mirror = tree.copy()
        mirror.move(p1.id, tree.root.id, last)
        overlay = ArenaOverlay(arena)
        overlay.move(p1.id, tree.root.id, last)
        assert arenas_isomorphic(overlay.flatten(), mirror.to_arena())


# ---------------------------------------------------------------------------
# EditScript arena replay
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
        via_tree = script.apply_to(tree)
        via_arena = script.apply_to_arena(tree.to_arena())
        assert trees_isomorphic(via_tree, Tree.from_arena(via_arena))

    def test_failure_wraps_index_and_op(self):
        tree = sample_tree()
        script = EditScript([Delete("does-not-exist")])
        with pytest.raises(EditScriptError, match=r"operation 0 \(DEL"):
            script.apply_to_arena(tree.to_arena())


# ---------------------------------------------------------------------------
# TreeIndex over arena-parsed trees agrees with naive node walks
# ---------------------------------------------------------------------------
class TestIndexParity:
    def test_tables_agree(self):
        tree = tree_from_dict(tree_to_dict(sample_tree()))
        index = TreeIndex(tree)
        assert_index_consistent(index, tree)

    def test_child_rank_raises_for_root(self):
        tree = sample_tree()
        fast = TreeIndex(tree)
        with pytest.raises(KeyError):
            fast.child_rank(tree.root.id)


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

    assert_index_consistent(TreeIndex(back), back)


# ---------------------------------------------------------------------------
# __slots__ coverage on hot-path records
# ---------------------------------------------------------------------------
def test_core_types_have_no_dict():
    tree = sample_tree()
    arena = tree.to_arena()
    for obj in (tree.root, arena, ArenaOverlay(arena), ArenaBuilder()):
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
