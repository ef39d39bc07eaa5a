"""The set of self-recursive functions under ``src/repro`` may only shrink.

Recursion depth is bounded by the interpreter's recursion limit, so a
function that calls itself once per tree level fails on deep inputs.
This scan finds every function that calls itself by name, either bare
(``walk(...)``) or as a method (``self.walk(...)``), and compares the set
with an explicit allow-list. A new recursive function fails the test;
rewriting one with an explicit stack means deleting its line here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``module path:qualified name`` of each function allowed to recurse.
ALLOWED = {
    "baselines/flat_diff.py:flatten_tree.walk",
    "core/isomorphism.py:canonical_form.encode",
    "core/tree.py:Tree.from_obj.build",
    "core/tree.py:Tree.pretty.render",
    "core/tree.py:Tree.to_obj.dump",
    "deltatree/builder.py:build_delta_tree.build_deleted_subtree",
    "deltatree/builder.py:build_delta_tree.build_mirror",
    "deltatree/render_html.py:_render_node",
    "deltatree/render_text.py:render_text.render",
    "ladiff/latex_writer.py:_write_node",
    "ladiff/xml_parser.py:_write_element",
    "ladiff/xml_parser.py:parse_xml.build",
    "obs/export.py:render_span_tree.walk",
    "simtest/events.py:_clean",
    "verify/fuzz.py:_without_subtree.convert",
    "workload/documents.py:DocumentGenerator._fill_section",
    "workload/random_trees.py:perfect_tree.grow",
    "workload/random_trees.py:random_tree.grow",
}


def _calls_itself(function: ast.AST, name: str) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == name:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == name
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
        ):
            return True
    return False


def self_recursive_functions():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while stack:
            scope, prefix = stack.pop()
            for child in ast.iter_child_nodes(scope):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _calls_itself(child, child.name):
                        found.add(f"{module}:{prefix}{child.name}")
                    stack.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return found


def test_self_recursive_functions_match_allow_list():
    # Extra on the left: new recursion, use an explicit stack. Extra on the
    # right: no longer recursive, delete the line from ALLOWED.
    assert self_recursive_functions() == ALLOWED

