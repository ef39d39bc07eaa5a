"""The set of self-recursive functions under ``src/repro`` may only shrink.

Recursion depth is bounded by the interpreter's recursion limit, so a
function that calls itself once per tree level fails on deep inputs.
This scan finds every function that calls itself by name, either bare
(``walk(...)``) or as a method (``self.walk(...)``), and compares the set
with an explicit allow-list. A new recursive function fails the test;
rewriting one with an explicit stack means deleting its line here.

Mutual recursion (``a`` calls ``b`` calls ``a``) hides from that scan, so
a second scan builds each module's own call graph from the same two call
forms and asserts it has no cycle through two or more functions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``module path:qualified name`` of each function allowed to recurse.
ALLOWED = {
    "simtest/events.py:_clean",
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



def _module_functions(tree):
    """``(qualified name, enclosing class, node)`` for each function."""
    out = []
    stack = [(tree, "", None)]
    while stack:
        scope, prefix, klass = stack.pop()
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, klass, child))
                stack.append((child, f"{prefix}{child.name}.", klass))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", prefix + child.name))
            else:
                stack.append((child, prefix, klass))
    return out


def _own_calls(function):
    """Calls in *function*'s body, not in the functions nested in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node.func
        stack.extend(ast.iter_child_nodes(node))


def _call_graph(tree):
    """Caller -> callees among the module's own functions.

    A bare ``name(...)`` call resolves lexically: to the innermost
    enclosing function scope, or the module, that defines ``name``.
    ``self.name(...)`` resolves to the method ``name`` of the caller's class.
    """
    functions = _module_functions(tree)
    methods = {qualname for qualname, klass, node in functions
               if klass is not None and qualname == f"{klass}.{node.name}"}
    plain = {qualname for qualname, _, _ in functions} - methods
    graph = {}
    for qualname, klass, function in functions:
        callees = graph.setdefault(qualname, set())
        scopes = qualname.split(".")
        for callee in _own_calls(function):
            if isinstance(callee, ast.Name):
                for depth in range(len(scopes), -1, -1):
                    target = ".".join(scopes[:depth] + [callee.id])
                    if target in plain:
                        callees.add(target)
                        break
            elif (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and f"{klass}.{callee.attr}" in methods
            ):
                callees.add(f"{klass}.{callee.attr}")
    return graph


def _reachable(graph, start):
    seen = set()
    stack = list(graph[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def mutually_recursive_groups():
    """Each cycle through two or more functions of one module, as a set."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        graph = _call_graph(ast.parse(path.read_text(encoding="utf-8")))
        reach = {name: _reachable(graph, name) for name in graph}
        for name, targets in reach.items():
            group = {name} | {other for other in targets if name in reach[other]}
            if len(group) > 1:
                found.add(frozenset(f"{module}:{member}" for member in group))
    return found


def test_no_module_local_call_cycles():
    # A cycle here is recursion split over several functions: rewrite it
    # with an explicit stack, as the single-function case asks.
    assert mutually_recursive_groups() == set()
