"""Struct-of-arrays tree storage: the arena core.

The paper's algorithms (FastMatch, edit-script generation, the Criterion-2
leaf comparisons) are linear-ish passes over node sequences, but a
pointer-based :class:`~repro.core.node.Node` graph pays one Python object
plus a children list per node — at service scale the dominant cost is
allocation and pointer-chasing, not algorithmic work.

:class:`TreeArena` flattens a whole tree into six parallel arrays indexed by
**preorder position**:

=================  ====================================================
``node_ids[p]``     the node's identifier (arbitrary Python object)
``labels[p]``       index into ``label_pool`` (interned label)
``values[p]``       index into ``value_pool`` (interned value)
``parent[p]``       preorder position of the parent, ``-1`` for the root
``first_child[p]``  position of the first child, ``-1`` for leaves
``next_sibling[p]`` position of the next sibling, ``-1`` for last children
``subtree_size[p]`` number of nodes in the subtree rooted at ``p``
=================  ====================================================

Parsers feed an :class:`ArenaBuilder`, which records only each node's id,
label, value and parent; :meth:`ArenaBuilder.finish` links ``first_child``
and ``next_sibling`` and sums ``subtree_size`` in one reverse-preorder pass.

Preorder indexing gives the two identities every consumer leans on:

* the subtree rooted at ``p`` is exactly the contiguous slice
  ``[p, p + subtree_size[p])`` — ancestor tests are two comparisons;
* a node ``q`` lies under ``p`` iff ``p <= q < p + subtree_size[p]``.

An arena is **immutable** once built. Edits go through the
:class:`~repro.core.tree.Tree` view: its four mutations (INS/DEL/UPD/MOV)
work on the node graph, and :meth:`Tree.to_arena` re-flattens the edited
tree into a fresh arena.

The arena is also the one home of the structure derived from those arrays.
The paper's matchers need ``|x|`` and the leaves under ``x`` (Criterion 2)
and the label chains ``chain_T(l)`` (FastMatch, §5.3). One lazy preorder
pass builds them (:attr:`TreeArena.leaf_count`,
:attr:`~TreeArena.leaf_positions`, :attr:`~TreeArena.leaf_start`,
:attr:`~TreeArena.leaf_chains`, :attr:`~TreeArena.internal_chains`), and
the serving layer's tree digest is memoized next to them. All of it is
valid exactly as long as the snapshot is: a tree's mutation drops its
snapshot, and the next :meth:`Tree.to_arena` builds a new one.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

from .errors import DuplicateNodeError, TreeError


class Interner:
    """Deduplicating append-only pool of labels or values.

    Values are deduplicated by ``(type, value)`` so ``1``, ``1.0`` and
    ``True`` (equal and hash-equal in Python) keep distinct pool slots —
    digests and serialization distinguish them, so the pool must too.
    Unhashable values (lists, dicts) are stored without deduplication.
    """

    __slots__ = ("pool", "_ids")

    def __init__(self) -> None:
        self.pool: List[Any] = []
        self._ids: Dict[Any, int] = {}

    def intern(self, value: Any) -> int:
        """Return the pool index for *value*, adding it if new."""
        try:
            idx = self._ids.get((value.__class__, value))
        except TypeError:  # unhashable: append without dedup
            self.pool.append(value)
            return len(self.pool) - 1
        if idx is None:
            idx = len(self.pool)
            self._ids[(value.__class__, value)] = idx
            self.pool.append(value)
        return idx

    def __len__(self) -> int:
        return len(self.pool)


class ArenaBuilder:
    """Incremental preorder construction of a :class:`TreeArena`.

    Nodes must be added in preorder: the root first (``parent_pos=-1``),
    then each node after its parent and after its earlier siblings'
    subtrees. :meth:`add` returns the new node's preorder position, which
    callers pass back as ``parent_pos`` for its children.
    """

    __slots__ = (
        "node_ids", "labels", "values", "parent", "pos_of",
        "_label_pool", "_value_pool",
    )

    def __init__(self) -> None:
        self.node_ids: List[Any] = []
        self.labels = array("i")
        self.values = array("i")
        self.parent = array("i")
        self.pos_of: Dict[Any, int] = {}
        self._label_pool = Interner()
        self._value_pool = Interner()

    def add(self, parent_pos: int, node_id: Any, label: str, value: Any) -> int:
        """Append one node; return its preorder position."""
        if node_id in self.pos_of:
            raise DuplicateNodeError(node_id)
        pos = len(self.node_ids)
        if parent_pos < 0:
            if pos != 0:
                raise TreeError("arena root must be the first node added")
            parent_pos = -1
        elif not 0 <= parent_pos < pos:
            raise TreeError(
                f"parent position {parent_pos} out of preorder range"
            )
        self.node_ids.append(node_id)
        self.pos_of[node_id] = pos
        self.labels.append(self._label_pool.intern(label))
        self.values.append(self._value_pool.intern(value))
        self.parent.append(parent_pos)
        return pos

    def finish(self) -> "TreeArena":
        """Seal the builder into an immutable arena.

        The reverse pass meets each parent's children last to first, so
        prepending each to its parent's chain leaves document order.
        """
        n = len(self.node_ids)
        parent = self.parent
        first_child = array("i", [-1]) * n
        next_sibling = array("i", [-1]) * n
        subtree_size = array("i", [1]) * n
        for pos in range(n - 1, 0, -1):
            p = parent[pos]
            next_sibling[pos] = first_child[p]
            first_child[p] = pos
            subtree_size[p] += subtree_size[pos]
        return TreeArena(
            node_ids=self.node_ids,
            labels=self.labels,
            values=self.values,
            parent=parent,
            first_child=first_child,
            next_sibling=next_sibling,
            subtree_size=subtree_size,
            label_pool=self._label_pool.pool,
            value_pool=self._value_pool.pool,
            pos_of=self.pos_of,
        )


class TreeArena:
    """Immutable struct-of-arrays snapshot of one ordered tree.

    Instances come from :class:`ArenaBuilder` or :func:`flatten_root`;
    consumers (the matchers, digests, serialization) read the arrays
    directly. The derived tables below are built on first read, by one
    pass, and memoized here with the subtree digests: they describe this
    snapshot, and a mutated tree gets a new one.
    """

    __slots__ = (
        "n", "node_ids", "labels", "values", "parent", "first_child",
        "next_sibling", "subtree_size", "label_pool", "value_pool",
        "pos_of", "_tables", "digests",
    )

    def __init__(
        self,
        node_ids: List[Any],
        labels: "array",
        values: "array",
        parent: "array",
        first_child: "array",
        next_sibling: "array",
        subtree_size: "array",
        label_pool: List[str],
        value_pool: List[Any],
        pos_of: Dict[Any, int],
    ) -> None:
        self.n = len(node_ids)
        self.node_ids = node_ids
        self.labels = labels
        self.values = values
        self.parent = parent
        self.first_child = first_child
        self.next_sibling = next_sibling
        self.subtree_size = subtree_size
        self.label_pool = label_pool
        self.value_pool = value_pool
        self.pos_of = pos_of
        self._tables: Optional[Tuple[Any, ...]] = None
        #: Subtree digests of this snapshot, memoized by
        #: :func:`repro.service.digest.cached_digests` (``None`` until then).
        self.digests: Any = None

    # ------------------------------------------------------------------
    # Per-position accessors
    # ------------------------------------------------------------------
    def label_of(self, pos: int) -> str:
        return self.label_pool[self.labels[pos]]

    def value_of(self, pos: int) -> Any:
        return self.value_pool[self.values[pos]]

    def is_leaf(self, pos: int) -> bool:
        return self.first_child[pos] < 0

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def build_tables(self) -> bool:
        """Build the derived tables now; True when they already existed.

        One preorder pass records the document-order leaf positions, where
        each position's leaves start among them, and the label chains; one
        more pass turns the leaf starts into leaf counts (a subtree's leaves
        are contiguous in document order).
        """
        if self._tables is not None:
            return True
        n = self.n
        first_child = self.first_child
        labels = self.labels
        label_pool = self.label_pool
        leaf_positions = array("i")
        leaf_start = array("i", [0]) * n
        leaf_chains: Dict[str, List[int]] = {}
        internal_chains: Dict[str, List[int]] = {}
        for pos in range(n):
            leaf_start[pos] = len(leaf_positions)
            if first_child[pos] < 0:
                leaf_positions.append(pos)
                chains = leaf_chains
            else:
                chains = internal_chains
            label = label_pool[labels[pos]]
            chain = chains.get(label)
            if chain is None:
                chains[label] = [pos]
            else:
                chain.append(pos)
        leaves = len(leaf_positions)
        subtree_size = self.subtree_size
        leaf_count = array("i", [0]) * n
        for pos in range(n):
            end = pos + subtree_size[pos]
            leaf_count[pos] = (leaf_start[end] if end < n else leaves) - leaf_start[pos]
        self._tables = (leaf_count, leaf_positions, leaf_start, leaf_chains, internal_chains)
        return False

    def _derived(self) -> Tuple[Any, ...]:
        if self._tables is None:
            self.build_tables()
        assert self._tables is not None
        return self._tables

    @property
    def leaf_count(self) -> "array":
        """``leaf_count[p]``: leaves in ``p``'s subtree (the paper's ``|x|``)."""
        return self._derived()[0]

    @property
    def leaf_positions(self) -> "array":
        """Preorder positions of all leaves, in document order."""
        return self._derived()[1]

    @property
    def leaf_start(self) -> "array":
        """``leaf_start[p]``: where ``p``'s leaves begin in :attr:`leaf_positions`.

        The leaves of ``p`` are ``leaf_positions[leaf_start[p]:][:leaf_count[p]]``.
        """
        return self._derived()[2]

    @property
    def leaf_chains(self) -> Dict[str, List[int]]:
        """``chain_T(l)`` of leaves: label -> leaf positions, document order.

        Labels are keyed in first-seen order. Shared; treat as read-only.
        """
        return self._derived()[3]

    @property
    def internal_chains(self) -> Dict[str, List[int]]:
        """``chain_T(l)`` of interior nodes, as :attr:`leaf_chains`."""
        return self._derived()[4]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeArena(n={self.n}, labels={len(self.label_pool)}, "
            f"values={len(self.value_pool)})"
        )


def flatten_root(root: Any) -> Tuple[TreeArena, List[Any]]:
    """Flatten a node graph into an arena.

    Returns ``(arena, order)`` where ``order`` is the preorder list of the
    source nodes, aligned with arena positions — the :class:`Tree` view
    keeps it to map positions back to nodes without a second traversal.
    """
    builder = ArenaBuilder()
    order: List[Any] = []
    if root is None:
        return builder.finish(), order
    stack: List[Tuple[Any, int]] = [(root, -1)]
    while stack:
        node, parent_pos = stack.pop()
        pos = builder.add(parent_pos, node.id, node.label, node.value)
        order.append(node)
        children = node.children
        for child in reversed(children):
            stack.append((child, pos))
    return builder.finish(), order


def arenas_isomorphic(a: TreeArena, b: TreeArena) -> bool:
    """Structural equality of two arenas (ids ignored), array-at-a-time.

    Two arenas flattened from isomorphic trees have identical ``parent``
    arrays (preorder position is a structural invariant), so shape checks
    are single array comparisons; only labels and values need per-position
    pool lookups.
    """
    if a.n != b.n:
        return False
    if a.n == 0:
        return True
    if a.parent != b.parent or a.first_child != b.first_child:
        return False
    a_labels, b_labels = a.labels, b.labels
    a_label_pool, b_label_pool = a.label_pool, b.label_pool
    label_memo: Dict[int, int] = {}
    a_values, b_values = a.values, b.values
    a_value_pool, b_value_pool = a.value_pool, b.value_pool
    for pos in range(a.n):
        la, lb = a_labels[pos], b_labels[pos]
        known = label_memo.get(la)
        if known is None:
            if a_label_pool[la] != b_label_pool[lb]:
                return False
            label_memo[la] = lb
        elif known != lb and a_label_pool[la] != b_label_pool[lb]:
            return False
        va = a_value_pool[a_values[pos]]
        vb = b_value_pool[b_values[pos]]
        if va is not vb and va != vb:
            return False
    return True
