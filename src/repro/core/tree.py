"""Ordered labeled-value trees (the paper's data model, Section 3.1).

A :class:`Tree` owns a set of :class:`~repro.core.node.Node` objects indexed
by identifier and exposes exactly the four primitive mutations of the paper's
edit model (Section 3.2):

* :meth:`Tree.insert` — ``INS((x, l, v), y, k)``: new *leaf* as k-th child.
* :meth:`Tree.delete` — ``DEL(x)``: remove a *leaf*.
* :meth:`Tree.update` — ``UPD(x, val)``: replace a node's value.
* :meth:`Tree.move`   — ``MOV(x, y, k)``: re-parent a whole subtree.

Positions are 1-based, matching the paper. Structural invariants (leaf-only
insert/delete, no cyclic moves, position bounds) are enforced eagerly so a
buggy edit script fails loudly instead of corrupting the tree.

Storage model
-------------
Since the arena refactor a tree is a *view* over an immutable
:class:`~repro.core.arena.TreeArena` snapshot. Trees built from an arena
(:meth:`Tree.from_arena` — the parse, copy and store-checkout paths) keep
only the arena until some caller actually needs :class:`Node` objects; pure
array consumers (the arena's structure tables, digests, serialization
dumps) never force the node graph into existence. The first node-touching
access materializes all nodes in one preorder pass. Mutations work on the
node graph and invalidate the snapshot; :meth:`Tree.to_arena` re-flattens
on demand and caches the result until the next mutation.

The snapshot is also the one validity rule for data derived from the tree:
leaf counts, leaf spans, label chains and the tree's digest all live on
the arena, and :meth:`Tree._touch` drops them with it; the next
:meth:`Tree.to_arena` builds a new snapshot and the node binding of
:meth:`Tree.arena_nodes` together. A node's label and value are
read-only outside this module; the builders, :meth:`Tree.update` and
:func:`map_tree` write them, each followed by ``_touch``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .arena import ArenaBuilder, TreeArena, flatten_root
from .errors import (
    CyclicMoveError,
    DuplicateNodeError,
    InvalidPositionError,
    NotALeafError,
    RootOperationError,
    TreeError,
    UnknownNodeError,
)
from .node import Node

#: Nested-structure shorthand accepted by :meth:`Tree.from_obj`:
#: ``(label,)``, ``(label, value)`` or ``(label, value, [children...])``.
NestedSpec = Tuple[Any, ...]


class Tree:
    """An ordered tree of labeled, valued nodes with unique identifiers."""

    def __init__(self) -> None:
        self._root: Optional[Node] = None
        self._node_map: Optional[Dict[Any, Node]] = {}
        self._id_counter: Optional[Iterator[int]] = itertools.count(1)
        #: Cached immutable snapshot; valid only while ``_arena_fresh``.
        self._arena: Optional[TreeArena] = None
        self._arena_fresh = False
        #: ``_order[p]`` is the Node at preorder position ``p`` of the
        #: snapshot; reset by every flatten and materialize, so it matches
        #: any fresh snapshot (see ``arena_nodes``).
        self._order: Optional[List[Node]] = None
        #: Detaches where the sibling-slot hint missed and a full scan ran.
        self.detach_fallback_scans = 0

    # ------------------------------------------------------------------
    # Arena view plumbing
    # ------------------------------------------------------------------
    @classmethod
    def from_arena(cls, arena: TreeArena) -> "Tree":
        """Wrap an arena snapshot without building any :class:`Node`.

        The node graph is materialized lazily on first access; callers that
        only read arrays (indexes, digests, serialization) never pay for it.
        """
        tree = cls()
        tree._node_map = None
        tree._arena = arena
        tree._arena_fresh = True
        tree._id_counter = None  # lazily seeded past the arena's numeric ids
        return tree

    def to_arena(self) -> TreeArena:
        """Return a fresh struct-of-arrays snapshot (cached until mutation)."""
        if self._arena_fresh:
            assert self._arena is not None
            return self._arena
        arena, self._order = flatten_root(self._root)
        self._arena = arena
        self._arena_fresh = True
        return arena

    def arena_snapshot(self) -> Optional[TreeArena]:
        """The cached fresh arena, or ``None`` — never flattens or builds."""
        return self._arena if self._arena_fresh else None

    def arena_nodes(self) -> List[Node]:
        """The tree's nodes at the preorder positions of :meth:`to_arena`.

        ``arena_nodes()[p]`` is the node whose id is ``to_arena().node_ids[p]``.
        The list is shared and valid until the next mutation; treat it as
        read-only.
        """
        self.to_arena()
        if self._order is None:  # an arena view whose nodes are not built yet
            self._materialize()
        assert self._order is not None
        return self._order

    def _touch(self) -> None:
        """Invalidate the arena snapshot, and all derived from it, after a mutation."""
        self._arena = None
        self._arena_fresh = False

    def _materialize(self) -> None:
        if self._node_map is not None:
            return
        assert self._arena is not None
        self._root, self._node_map, self._order = _nodes_from_arena(self._arena)

    @property
    def root(self) -> Optional[Node]:
        if self._node_map is None:
            self._materialize()
        return self._root

    @root.setter
    def root(self, node: Optional[Node]) -> None:
        if self._node_map is None:
            self._materialize()
        self._root = node
        self._touch()

    @property
    def _nodes(self) -> Dict[Any, Node]:
        if self._node_map is None:
            self._materialize()
        assert self._node_map is not None
        return self._node_map

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_obj(cls, spec: NestedSpec) -> "Tree":
        """Build a tree from nested ``(label, value, children)`` tuples.

        Example::

            Tree.from_obj(
                ("D", None, [
                    ("P", None, [("S", "a"), ("S", "b")]),
                ])
            )

        Node identifiers are assigned automatically in preorder, 1..n.
        """
        builder = ArenaBuilder()
        stack: List[Tuple[NestedSpec, int]] = [(spec, -1)]
        while stack:
            node_spec, parent_pos = stack.pop()
            label, value, children = _unpack_spec(node_spec)
            pos = builder.add(parent_pos, len(builder.node_ids) + 1, label, value)
            stack.extend((child, pos) for child in reversed(tuple(children)))
        return cls.from_arena(builder.finish())

    def create_node(
        self,
        label: str,
        value: Any = None,
        parent: Optional[Node] = None,
        position: Optional[int] = None,
        node_id: Any = None,
    ) -> Node:
        """Create a node and attach it to the tree.

        Unlike :meth:`insert` (the paper's ``INS``), this builder may attach
        a node anywhere, including as the root, and is intended for initial
        tree construction rather than for edit scripts.

        Parameters
        ----------
        label, value:
            The new node's label and value.
        parent:
            Parent node; ``None`` makes the node the root (only legal when
            the tree is empty).
        position:
            1-based position among the parent's children; appended at the
            end when omitted.
        node_id:
            Explicit identifier; generated when omitted.
        """
        if node_id is None:
            node_id = self._fresh_id()
        elif node_id in self._nodes:
            raise DuplicateNodeError(node_id)

        node = Node(node_id, label, value)
        if parent is None:
            if self.root is not None:
                raise TreeError(
                    "tree already has a root; pass a parent for the new node"
                )
            self._root = node
        else:
            parent = self._resolve(parent)
            if position is None:
                position = len(parent.children) + 1
            self._attach(node, parent, position)
        self._nodes[node_id] = node
        self._touch()
        return node

    def _fresh_id(self) -> int:
        if self._id_counter is None:
            # Arena-backed trees seed lazily: continue past the largest
            # numeric id present (same rule the deep copy always used).
            numeric = [i for i in self.node_ids() if isinstance(i, int)]
            self._id_counter = itertools.count(max(numeric) + 1 if numeric else 1)
        while True:
            node_id = next(self._id_counter)
            if node_id not in self:
                return node_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, node_id: Any) -> bool:
        if self._node_map is None:
            assert self._arena is not None
            return node_id in self._arena.pos_of
        return node_id in self._node_map

    def __len__(self) -> int:
        if self._node_map is None:
            assert self._arena is not None
            return self._arena.n
        return len(self._node_map)

    def get(self, node_id: Any) -> Node:
        """Return the node with identifier *node_id* or raise."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def node_ids(self) -> Iterator[Any]:
        """Yield all node identifiers (unordered)."""
        if self._node_map is None:
            assert self._arena is not None
            return iter(self._arena.node_ids)
        return iter(self._node_map)

    def _resolve(self, node_or_id: Any) -> Node:
        if isinstance(node_or_id, Node):
            if self._nodes.get(node_or_id.id) is not node_or_id:
                raise UnknownNodeError(node_or_id.id)
            return node_or_id
        return self.get(node_or_id)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator[Node]:
        """Preorder traversal of the whole tree (empty tree yields nothing)."""
        if self.root is None:
            return iter(())
        return self.root.preorder()

    def postorder(self) -> Iterator[Node]:
        """Postorder traversal of the whole tree."""
        if self.root is None:
            return iter(())
        return self.root.postorder()

    def bfs(self) -> Iterator[Node]:
        """Breadth-first (level-order) traversal, as used by EditScript."""
        if self.root is None:
            return
        queue: List[Node] = [self.root]
        index = 0
        while index < len(queue):
            node = queue[index]
            index += 1
            yield node
            queue.extend(node.children)

    def leaves(self) -> Iterator[Node]:
        """All leaves of the tree in document (left-to-right) order."""
        if self.root is None:
            return iter(())
        return self.root.leaves()

    # ------------------------------------------------------------------
    # The four edit-model mutations (Section 3.2)
    # ------------------------------------------------------------------
    def insert(
        self,
        node_id: Any,
        label: str,
        value: Any,
        parent_id: Any,
        position: int,
    ) -> Node:
        """Apply ``INS((node_id, label, value), parent_id, position)``.

        Inserts a new *leaf* node as the ``position``-th child of the parent
        (1-based; ``len(children)+1`` appends).
        """
        if node_id in self._nodes:
            raise DuplicateNodeError(node_id)
        parent = self.get(parent_id)
        node = Node(node_id, label, value)
        self._attach(node, parent, position)
        self._nodes[node_id] = node
        self._touch()
        return node

    def delete(self, node_id: Any) -> Node:
        """Apply ``DEL(node_id)``: remove a leaf node.

        Deleting an interior node is illegal in the paper's model — its
        descendants must be moved or deleted first — and raises
        :class:`NotALeafError`.
        """
        node = self.get(node_id)
        if node.children:
            raise NotALeafError(node_id)
        if node.parent is None:
            raise RootOperationError("delete", node_id)
        self._detach(node)
        del self._nodes[node_id]
        self._touch()
        return node

    def update(self, node_id: Any, value: Any) -> Node:
        """Apply ``UPD(node_id, value)``: replace the node's value."""
        node = self.get(node_id)
        node._value = value
        self._touch()
        return node

    def move(self, node_id: Any, parent_id: Any, position: int) -> Node:
        """Apply ``MOV(node_id, parent_id, position)``.

        The whole subtree rooted at *node_id* becomes the ``position``-th
        child of *parent_id*. Position bounds are checked against the
        parent's child list *after* detaching the node, so moving a node to
        the end of its own parent uses ``len(children)`` (not ``+1``) when it
        is already a child there — callers can simply pass the target rank
        among the post-detach siblings, which is what the paper's FindPos
        computes.
        """
        node = self.get(node_id)
        target = self.get(parent_id)
        if node.parent is None:
            raise RootOperationError("move", node_id)
        if node is target or node.is_ancestor_of(target):
            raise CyclicMoveError(node_id, parent_id)
        self._detach(node)
        self._attach(node, target, position)
        self._touch()
        return node

    def _attach(self, node: Node, parent: Node, position: int) -> None:
        limit = len(parent.children) + 1
        if not 1 <= position <= limit:
            raise InvalidPositionError(position, limit)
        parent.children.insert(position - 1, node)
        node.parent = parent
        node._slot = position - 1

    def _detach(self, node: Node) -> None:
        """Unlink *node* from its parent by known index, not a full scan.

        ``list.remove(node)`` compares from position 0, so detaching the
        last of *m* siblings costs O(m) — quadratic over a delete phase.
        Every attach records the node's slot; removals of earlier siblings
        shift it by at most a few places between consecutive detaches in
        the common edit-script patterns, so a tiny probe window around the
        hint (plus both ends, for bulk front/back sweeps) finds the node in
        O(1). A full scan remains as fallback and is counted so tests can
        assert the hint actually hits.
        """
        parent = node.parent
        siblings = parent.children
        count = len(siblings)
        slot = node._slot
        if 0 <= slot < count and siblings[slot] is node:
            index = slot
        else:
            index = -1
            for probe in (slot - 1, slot + 1, slot - 2, slot + 2, 0, count - 1):
                if 0 <= probe < count and siblings[probe] is node:
                    index = probe
                    break
            if index < 0:
                index = siblings.index(node)
                self.detach_fallback_scans += 1
        del siblings[index]
        node.parent = None

    # ------------------------------------------------------------------
    # Copying and snapshots
    # ------------------------------------------------------------------
    def copy(self) -> "Tree":
        """Return an independent copy preserving node identifiers.

        Flattens to the (cached) arena snapshot and wraps it in a new lazy
        view — the copy shares the immutable arrays, with their structure
        tables and digest, and allocates no nodes until one side actually
        needs them.
        """
        return Tree.from_arena(self.to_arena())

    def to_obj(self) -> Optional[NestedSpec]:
        """Inverse of :meth:`from_obj` (identifiers are not preserved)."""
        arena = self.to_arena()
        if arena.n == 0:
            return None
        specs = [
            (arena.label_of(pos), arena.value_of(pos), []) for pos in range(arena.n)
        ]
        for pos in range(1, arena.n):
            specs[arena.parent[pos]][2].append(specs[pos])
        return specs[0]

    # ------------------------------------------------------------------
    # Pretty-printing
    # ------------------------------------------------------------------
    def pretty(self, show_ids: bool = True, max_value_len: int = 40) -> str:
        """Return an indented one-node-per-line rendering of the tree."""
        arena = self.to_arena()
        if arena.n == 0:
            return "<empty tree>"
        depth = [0] * arena.n
        lines: List[str] = []
        for pos in range(arena.n):
            parent = arena.parent[pos]
            if parent >= 0:
                depth[pos] = depth[parent] + 1
            parts = [arena.label_of(pos)]
            if show_ids:
                parts.append(f"#{arena.node_ids[pos]}")
            value = arena.value_of(pos)
            if value is not None:
                text = str(value)
                if len(text) > max_value_len:
                    text = text[: max_value_len - 3] + "..."
                parts.append(f"({text})")
            lines.append("  " * depth[pos] + " ".join(parts))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(nodes={len(self)})"


def _nodes_from_arena(arena: TreeArena) -> Tuple[Optional[Node], Dict[Any, Node], List[Node]]:
    """Build a node graph from an arena in one preorder pass.

    Returns ``(root, node_map, order)`` where ``order[p]`` is the node at
    preorder position ``p``. Parents precede children in preorder, so each
    node's parent object already exists when the node is created.
    """
    node_ids = arena.node_ids
    labels = arena.labels
    values = arena.values
    parents = arena.parent
    label_pool = arena.label_pool
    value_pool = arena.value_pool
    order: List[Node] = []
    node_map: Dict[Any, Node] = {}
    for pos in range(arena.n):
        node = Node(node_ids[pos], label_pool[labels[pos]], value_pool[values[pos]])
        parent_pos = parents[pos]
        if parent_pos >= 0:
            parent_node = order[parent_pos]
            node.parent = parent_node
            node._slot = len(parent_node.children)
            parent_node.children.append(node)
        order.append(node)
        node_map[node.id] = node
    return (order[0] if order else None), node_map, order


def _unpack_spec(spec: NestedSpec) -> Tuple[str, Any, Iterable[NestedSpec]]:
    """Normalize the ``(label[, value[, children]])`` shorthand."""
    if isinstance(spec, str):
        return spec, None, ()
    if not isinstance(spec, (tuple, list)) or not spec:
        raise TreeError(f"bad tree spec: {spec!r}")
    label = spec[0]
    value = spec[1] if len(spec) >= 2 else None
    children = spec[2] if len(spec) >= 3 else ()
    # Allow ("P", [children]) — a value that is a list means children.
    if isinstance(value, (list, tuple)) and len(spec) == 2:
        children, value = value, None
    return label, value, children


def map_tree(tree: Tree, fn: Callable[[Node], Tuple[str, Any]]) -> Tree:
    """Return a new tree where each node's (label, value) is ``fn(node)``.

    Structure and identifiers are preserved; useful for normalization passes
    (e.g. lower-casing sentence values before matching).
    """
    clone = tree.copy()
    for node in clone.preorder():
        node._label, node._value = fn(node)
    # Drop the snapshot the copy shared with the source tree.
    clone._touch()
    return clone
