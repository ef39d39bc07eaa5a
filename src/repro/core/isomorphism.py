"""Tree isomorphism (the paper's notion of edit-script correctness).

Section 3.1: "two trees are isomorphic if they are identical except for node
identifiers." An edit script *transforms* ``T1`` into ``T2`` when applying it
to ``T1`` yields a tree isomorphic to ``T2``. The checker here is the oracle
used throughout the test suite and benchmark harness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .arena import arenas_isomorphic
from .node import Node
from .tree import Tree


def trees_isomorphic(t1: Tree, t2: Tree) -> bool:
    """True when the two trees are identical up to node identifiers."""
    # Arena fast path: when both trees carry fresh snapshots (the parse,
    # copy and checkout paths), compare arrays without materializing nodes.
    arena1 = t1.arena_snapshot()
    if arena1 is not None:
        arena2 = t2.arena_snapshot()
        if arena2 is not None:
            return arenas_isomorphic(arena1, arena2)
    if t1.root is None or t2.root is None:
        return t1.root is None and t2.root is None
    return _nodes_isomorphic(t1.root, t2.root)


def _nodes_isomorphic(a: Node, b: Node) -> bool:
    stack: List[Tuple[Node, Node]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.label != y.label or x.value != y.value:
            return False
        if len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def isomorphism_mapping(t1: Tree, t2: Tree) -> Optional[Dict[Any, Any]]:
    """Return the id->id mapping realizing the isomorphism, or ``None``.

    For ordered trees the isomorphism, when it exists, is unique: the i-th
    node of ``t1`` in preorder corresponds to the i-th node of ``t2``.
    """
    if not trees_isomorphic(t1, t2):
        return None
    return {
        x.id: y.id for x, y in zip(t1.preorder(), t2.preorder())
    }


def first_difference(t1: Tree, t2: Tree) -> Optional[str]:
    """Describe the first structural difference found, or ``None`` if equal.

    Used for diagnostics in tests: a failing isomorphism assertion can print
    *where* the trees diverge.
    """
    if (t1.root is None) != (t2.root is None):
        return "one tree is empty and the other is not"
    if t1.root is None:
        return None
    stack: List[Tuple[Node, Node, str]] = [(t1.root, t2.root, "/")]
    while stack:
        x, y, path = stack.pop()
        here = f"{path}{x.label}"
        if x.label != y.label:
            return f"{here}: label {x.label!r} vs {y.label!r}"
        if x.value != y.value:
            return f"{here}: value {x.value!r} vs {y.value!r}"
        if len(x.children) != len(y.children):
            return (
                f"{here}: child count {len(x.children)} vs {len(y.children)}"
            )
        for i, (cx, cy) in enumerate(zip(x.children, y.children), start=1):
            stack.append((cx, cy, f"{here}[{i}]/"))
    return None


def canonical_form(tree: Tree) -> Tuple:
    """Return a hashable canonical form (ignores node identifiers).

    The form is flat: one ``(label, value, parent position)`` triple per
    node in preorder, read from the tree's arena. Preorder plus parent
    positions fixes the shape, so two trees have equal canonical forms iff
    they are isomorphic, and comparing two forms never recurses. The form
    can key caches and deduplicate workload corpora; an empty tree's form
    is ``()``.
    """
    arena = tree.to_arena()
    return tuple(
        (arena.label_of(pos), arena.value_of(pos), arena.parent[pos])
        for pos in range(arena.n)
    )
