"""Serialization of trees to and from plain data and s-expressions.

Two interchange formats are supported:

* **dict format** — JSON-friendly nested dictionaries carrying identifiers,
  suitable for persisting snapshots ("database dumps" in the paper's legacy
  scenario) and reloading them losslessly.
* **s-expression format** — a compact human-writable text form used in tests
  and example fixtures: ``(D (P (S "a") (S "b")))``.

Both parsers build a :class:`~repro.core.arena.TreeArena` directly — no
intermediate :class:`Node` graph — and return a lazy :class:`Tree` view
over it. A parsed tree that is only indexed, digested, or re-serialized
never allocates node objects at all. The dumpers read the tree's arena
(flattening it first if it was edited) and walk it by position, without
recursion, so trees of any depth serialize.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Dict, List, Optional

from .arena import ArenaBuilder, TreeArena
from .errors import ParseError
from .tree import Tree


# ---------------------------------------------------------------------------
# dict format
# ---------------------------------------------------------------------------
def tree_to_dict(tree: Tree) -> Optional[Dict[str, Any]]:
    """Serialize a tree to nested dicts, preserving node identifiers."""
    return arena_to_dict(tree.to_arena())


def tree_from_dict(data: Optional[Dict[str, Any]]) -> Tree:
    """Inverse of :func:`tree_to_dict`."""
    return Tree.from_arena(arena_from_dict(data))


def arena_to_dict(arena: TreeArena) -> Optional[Dict[str, Any]]:
    """Serialize an arena to nested dicts, preserving node identifiers."""
    if arena.n == 0:
        return None
    # Preorder puts every node after its parent and its left siblings, so
    # appending to the parent's list in position order keeps child order.
    first_child, parent = arena.first_child, arena.parent
    dumped: List[Dict[str, Any]] = []
    for pos in range(arena.n):
        out: Dict[str, Any] = {
            "id": arena.node_ids[pos],
            "label": arena.label_of(pos),
        }
        value = arena.value_of(pos)
        if value is not None:
            out["value"] = value
        if first_child[pos] >= 0:
            out["children"] = []
        if pos:
            dumped[parent[pos]]["children"].append(out)
        dumped.append(out)
    return dumped[0]


def arena_from_dict(data: Optional[Dict[str, Any]]) -> TreeArena:
    """Parse the dict format straight into an arena (no node objects).

    Explicit identifiers are preserved; missing ones are assigned from a
    counter starting at 1, skipping identifiers already taken.
    """
    builder = ArenaBuilder()
    if data is None:
        return builder.finish()
    add, taken = builder.add, builder.pos_of
    counter = itertools.count(1)
    stack: List[Any] = [(data, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        spec, parent_pos = pop()
        node_id = spec.get("id")
        if node_id is None:
            node_id = next(counter)
            while node_id in taken:
                node_id = next(counter)
        pos = add(parent_pos, node_id, spec["label"], spec.get("value"))
        children = spec.get("children")
        if children:
            for child in reversed(children):
                push((child, pos))
    return builder.finish()


# ---------------------------------------------------------------------------
# s-expression format
# ---------------------------------------------------------------------------
_TOKEN = re.compile(
    r"""
    \s*(?:
        (?P<open>\() |
        (?P<close>\)) |
        (?P<string>"(?:[^"\\]|\\.)*") |
        (?P<atom>[^\s()"]+)
    )
    """,
    re.VERBOSE,
)


def tree_to_sexpr(tree: Tree) -> str:
    """Render a tree as an s-expression (identifiers are dropped)."""
    return arena_to_sexpr(tree.to_arena())


def arena_to_sexpr(arena: TreeArena) -> str:
    """Render an arena as an s-expression (identifiers are dropped)."""
    if arena.n == 0:
        return "()"
    # One preorder pass; a subtree's list closes once the walk reaches
    # the first position past it (pos + subtree size).
    subtree_size = arena.subtree_size
    parts: List[str] = []
    open_ends: List[int] = []
    for pos in range(arena.n):
        while open_ends and open_ends[-1] <= pos:
            open_ends.pop()
            parts.append(")")
        parts.append(" (" if pos else "(")
        parts.append(arena.label_of(pos))
        value = arena.value_of(pos)
        if value is not None:
            parts.append(" " + _quote(str(value)))
        open_ends.append(pos + subtree_size[pos])
    parts.append(")" * len(open_ends))
    return "".join(parts)


def tree_from_sexpr(text: str) -> Tree:
    """Parse an s-expression such as ``(D (P (S "a") (S "b")))``.

    The first atom of each list is the node's label; an optional quoted
    string is the value; remaining lists are children.
    """
    return Tree.from_arena(arena_from_sexpr(text))


def arena_from_sexpr(text: str) -> TreeArena:
    """Parse the s-expression format straight into an arena.

    One pass over the tokens with an explicit stack of open lists, so the
    nesting depth is bounded by memory, not by the recursion limit. Node
    identifiers are assigned 1..n in preorder, as on the object path.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty s-expression")
    if tokens[0] != "(":
        raise ParseError(f"expected '(' at token 0, got {tokens[0]!r}")
    builder = ArenaBuilder()
    n = len(tokens)
    if n > 1 and tokens[1] == ")":  # "()": the empty tree
        if n > 2:
            raise ParseError("trailing garbage after s-expression")
        return builder.finish()
    add = builder.add
    open_lists: List[int] = []  # arena positions of the lists not yet closed
    pos = 0
    while pos < n:
        token = tokens[pos]
        if token == ")":
            open_lists.pop()
            pos += 1
            if not open_lists:
                if pos != n:
                    raise ParseError("trailing garbage after s-expression")
                return builder.finish()
            continue
        if token != "(":
            raise ParseError(f"expected a (label ...) list, got {token!r}")
        if pos + 1 == n:
            break
        label = tokens[pos + 1]
        if label == ")":
            raise ParseError("expected a (label ...) list, got []")
        if label == "(" or label[0] == '"':
            raise ParseError(f"node label must be a bare atom, got {label!r}")
        pos += 2
        value = None
        if pos < n and tokens[pos][0] == '"':
            value = _unquote(tokens[pos])
            pos += 1
        parent = open_lists[-1] if open_lists else -1
        open_lists.append(add(parent, len(builder.node_ids) + 1, label, value))
    raise ParseError("unbalanced parentheses")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"bad token near {remainder[:20]!r}")
        pos = match.end()
        for kind in ("open", "close", "string", "atom"):
            token = match.group(kind)
            if token is not None:
                tokens.append(token)
                break
    return tokens


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(token: str) -> str:
    body = token[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")
