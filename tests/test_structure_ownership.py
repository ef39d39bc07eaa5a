"""Only ``core/tree.py`` and ``core/node.py`` write node data and structure.

Every write must be followed by ``Tree._touch()``, or the tree's arena
snapshot (and the digests and cached diffs read from it) would describe a
tree that no longer exists. The two owning modules keep that rule; this
scan keeps every other module of the package from writing the private
label, value and structure fields of an object other than ``self``.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
OWNERS = {PACKAGE / "core" / "tree.py", PACKAGE / "core" / "node.py"}
STRUCTURE = {
    "_label", "_value", "_children", "_parent", "_slot", "_nodes", "_node_map", "_root",
}
MUTATORS = {"append", "insert", "extend", "pop", "remove", "clear", "update", "setdefault"}


def _foreign_field(node):
    """The field name when *node* reads a structure field off a non-``self`` object."""
    if not isinstance(node, ast.Attribute) or node.attr not in STRUCTURE:
        return None
    if isinstance(node.value, ast.Name) and node.value.id == "self":
        return None
    return node.attr


def structure_writes(source):
    """``(line, field)`` of each write to another object's structure fields."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # obj._slot = ..., obj._nodes[k] = ..., del obj._nodes[k]
            field = _foreign_field(node if isinstance(node, ast.Attribute) else node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # obj._nodes.pop(k) and the like
            field = node.func.attr in MUTATORS and _foreign_field(node.func.value)
        else:
            continue
        if field:
            yield node.lineno, field


def test_the_scan_sees_each_kind_of_write():
    source = (
        "tree._nodes[k] = node\n"
        "node._slot = 0\n"
        "del tree._node_map[k]\n"
        "tree._nodes.pop(k)\n"
        "self._root = node\n"
        "size = len(tree._nodes)\n"
        "node._label, node._value = pair\n"
    )
    assert list(structure_writes(source)) == [
        (1, "_nodes"), (2, "_slot"), (3, "_node_map"), (4, "_nodes"),
        (7, "_label"), (7, "_value"),
    ]


def test_only_the_tree_and_node_modules_write_structure():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} writes {field}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path not in OWNERS
        for line, field in structure_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
