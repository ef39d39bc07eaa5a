"""Tests for edit operations, scripts, the apply engine, and the cost model."""

import pytest

from repro.core import (
    DuplicateNodeError,
    EditScriptError,
    Tree,
    TreeError,
    trees_isomorphic,
)
from repro.editscript import (
    DUMMY_ROOT_LABEL,
    Delete,
    EditScript,
    Insert,
    Move,
    Update,
    operation_cost,
    script_cost,
)


@pytest.fixture
def base_tree():
    return Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "a"), ("S", "b")]),
            ("P", None, [("S", "c")]),
        ])
    )


class TestOperations:
    def test_insert_apply(self, base_tree):
        Insert(100, "S", "x", 2, 1).apply(base_tree)
        assert [c.value for c in base_tree.get(2).children] == ["x", "a", "b"]

    def test_delete_apply(self, base_tree):
        Delete(3).apply(base_tree)
        assert 3 not in base_tree

    def test_update_apply(self, base_tree):
        Update(3, "new", old_value="a").apply(base_tree)
        assert base_tree.get(3).value == "new"

    def test_move_apply(self, base_tree):
        Move(3, 5, 1).apply(base_tree)
        assert [c.value for c in base_tree.get(5).children] == ["a", "c"]

    def test_paper_notation_strings(self):
        assert str(Insert(11, "Sec", "foo", 1, 4)) == "INS((11, Sec, 'foo'), 1, 4)"
        assert str(Move(5, 11, 1)) == "MOV(5, 11, 1)"
        assert str(Delete(2)) == "DEL(2)"
        assert str(Update(9, "baz")) == "UPD(9, 'baz')"

    def test_long_values_truncated_in_str(self):
        text = str(Update(1, "x" * 100))
        assert len(text) < 80 and "..." in text

    def test_operations_are_hashable_records(self):
        assert Insert(1, "S", "v", 2, 1) == Insert(1, "S", "v", 2, 1)
        assert len({Delete(1), Delete(1), Delete(2)}) == 2


class TestExample31:
    """The paper's Example 3.1: a four-operation script applied in order."""

    def test_example_script(self):
        t1 = Tree.from_obj(
            ("D", None, [
                ("Sec", "a1", [("S", "one")]),
                ("Sec", "a2", [("S", "a"), ("S", "b")]),
                ("Sec", "a3", [("S", "old")]),
            ])
        )
        # node ids (preorder): 1=D, 2=Sec a1, 3=S one, 4=Sec a2, 5=S a,
        # 6=S b, 7=Sec a3, 8=S old
        script = EditScript([
            Insert(11, "Sec", "foo", 1, 4),
            Move(4, 11, 1),
            Delete(3),
            Update(8, "baz"),
        ])
        result = script.apply_to(t1)
        expected = Tree.from_obj(
            ("D", None, [
                ("Sec", "a1", []),
                ("Sec", "a3", [("S", "baz")]),
                ("Sec", "foo", [("Sec", "a2", [("S", "a"), ("S", "b")])]),
            ])
        )
        assert trees_isomorphic(result, expected)
        # original untouched (apply_to copies by default)
        assert 3 in t1


class TestEditScriptContainer:
    def test_kind_accessors_and_summary(self):
        script = EditScript([
            Insert(10, "S", "x", 1, 1),
            Delete(3),
            Update(4, "v"),
            Move(5, 1, 1),
            Delete(6),
        ])
        assert len(script.inserts) == 1
        assert len(script.deletes) == 2
        assert len(script.updates) == 1
        assert len(script.moves) == 1
        assert script.summary() == {
            "insert": 1, "delete": 2, "update": 1, "move": 1, "total": 5,
        }

    def test_iteration_and_indexing(self):
        ops = [Delete(1), Delete(2)]
        script = EditScript(ops)
        assert list(script) == ops
        assert script[0] == ops[0]
        assert len(script) == 2

    def test_equality(self):
        assert EditScript([Delete(1)]) == EditScript([Delete(1)])
        assert EditScript([Delete(1)]) != EditScript([Delete(2)])

    def test_is_empty_and_str(self):
        assert EditScript().is_empty()
        assert str(EditScript()) == "<empty edit script>"
        assert "DEL(1)" in str(EditScript([Delete(1)]))

    def test_append_extend(self):
        script = EditScript()
        script.append(Delete(1))
        script.extend([Delete(2), Delete(3)])
        assert len(script) == 3


class TestApplyEngine:
    def test_apply_in_place(self, base_tree):
        script = EditScript([Delete(3)])
        out = script.apply_to(base_tree, in_place=True)
        assert out is base_tree
        assert 3 not in base_tree

    def test_apply_copies_by_default(self, base_tree):
        script = EditScript([Delete(3)])
        out = script.apply_to(base_tree)
        assert out is not base_tree
        assert 3 in base_tree and 3 not in out

    def test_failing_operation_reports_index(self, base_tree):
        script = EditScript([Delete(3), Delete(999)])
        with pytest.raises(EditScriptError) as excinfo:
            script.apply_to(base_tree)
        assert "operation 1" in str(excinfo.value)

    def test_order_dependency(self, base_tree):
        """Insert before move: the paper notes ordering is crucial."""
        good = EditScript([Insert(50, "P", None, 1, 3), Move(3, 50, 1)])
        good.apply_to(base_tree)
        bad = EditScript([Move(3, 50, 1), Insert(50, "P", None, 1, 3)])
        with pytest.raises(EditScriptError):
            bad.apply_to(base_tree)


class TestDummyRootReplay:
    """``apply_to(..., dummy_id=...)``: wrap, replay, strip."""

    def test_wrapped_replay_changes_the_root(self, base_tree):
        # the generator's shape for a root label change D -> E
        script = EditScript([
            Insert(10, "E", None, 99, 2),
            Move(2, 10, 1),
            Move(5, 10, 2),
            Delete(1),
        ])
        out = script.apply_to(base_tree, dummy_id=99)
        expected = Tree.from_obj(
            ("E", None, [
                ("P", None, [("S", "a"), ("S", "b")]),
                ("P", None, [("S", "c")]),
            ])
        )
        assert trees_isomorphic(out, expected)
        assert out.root.parent is None and 99 not in out
        assert len(out) == len(list(out.preorder())) == 6
        assert 1 in base_tree and 99 not in base_tree  # input untouched

    def test_wrap_puts_the_dummy_on_top(self, base_tree):
        wrapped = base_tree.wrap_root(99)
        assert wrapped.root.label == DUMMY_ROOT_LABEL
        assert [c.id for c in wrapped.root.children] == [1]

    def test_dummy_id_already_in_the_tree_is_refused(self, base_tree):
        with pytest.raises(DuplicateNodeError):
            EditScript().apply_to(base_tree, dummy_id=3)
        assert len(base_tree) == len(list(base_tree.preorder())) == 6

    def test_empty_tree_cannot_be_wrapped(self):
        with pytest.raises(TreeError):
            Tree().wrap_root(99)

    def test_strip_requires_single_child(self, base_tree):
        script = EditScript([Insert(10, "E", None, 99, 2)])
        with pytest.raises(EditScriptError):
            script.apply_to(base_tree, dummy_id=99)


class TestSerialization:
    def test_round_trip(self):
        script = EditScript([
            Insert(10, "S", "x", 1, 2),
            Delete(3),
            Update(4, "new", old_value="old"),
            Move(5, 1, 1),
        ])
        rebuilt = EditScript.from_dicts(script.to_dicts())
        assert rebuilt == script

    def test_unknown_kind_raises(self):
        with pytest.raises(EditScriptError):
            EditScript.from_dicts([{"op": "teleport"}])


class TestCostModel:
    def test_unit_costs(self):
        assert operation_cost(Insert(1, "S", "x", 2, 1)) == 1.0
        assert operation_cost(Delete(1)) == 1.0
        assert operation_cost(Move(1, 2, 1)) == 1.0

    def test_update_cost_uses_compare(self):
        op = Update(1, "a b d", old_value="a b c")
        assert operation_cost(op) == pytest.approx(2 / 3)

    def test_script_cost_sums(self):
        script = EditScript([
            Insert(10, "S", "x", 1, 1),
            Delete(3),
            Update(4, "a b", old_value="a b"),
        ])
        assert script.cost() == pytest.approx(2.0)
        assert script_cost(script) == script.cost()

    def test_unknown_operation_rejected(self):
        with pytest.raises(TypeError):
            operation_cost(object())

    def test_default_cost_via_script(self):
        script = EditScript([Delete(1), Delete(2)])
        assert script.cost() == 2.0
