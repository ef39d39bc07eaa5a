"""Per-tree structural indexes shared across pipeline stages.

The matching criteria (Section 5.2), FastMatch's label chains (Section 5.3),
and EditScript's FindPos (Figure 9) all consume the same handful of facts
about a tree — leaf counts, contained-leaf sets, label chains, sibling
ranks — and the original wiring recomputed them ad hoc on every comparison
(``node.leaves()`` walks for Criterion 2, parent-chain ascents for
containment, ``children.index`` scans for FindPos).

:class:`TreeIndex` reads them off the tree's struct-of-arrays
:class:`~repro.core.arena.TreeArena` snapshot:

* preorder position doubles as preorder rank, and ``subtree_size`` turns
  "is *n* under *a*?" into one interval comparison;
* ``leaf_count[x]`` — ``|x|``, the Criterion-2 denominator — comes straight
  from the arena's lazy leaf-count array;
* a flat document-order leaf-position array with per-node span starts gives
  contained-leaf iteration without re-walking the subtree;
* ``chain_T(l)`` label chains and first-seen leaf/internal label lists —
  exactly what FastMatch's step 1 builds per run;
* 1-based child ranks — FindPos locates a node among its siblings in O(1);
* subtree Merkle digests, computed lazily by reusing
  :mod:`repro.service.digest`.

Node-facing accessors (:meth:`leaves_of`, :meth:`chains`, ...) bind arena
positions to :class:`Node` objects lazily, so building an index over a
freshly parsed (arena-only) tree allocates no nodes; purely positional
consumers never force them.

An index is a snapshot: it describes the tree *as it was at construction*.
It is the only way the matching and edit-script layers learn tree
structure, so code that mutates a tree rebuilds the index (cheap, one
pass); :meth:`TreeIndex.describes` tells whether a tree has been mutated
since its index was built.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .node import Node
from .tree import Tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.digest import DigestIndex


class TreeIndex:
    """Immutable structural facts about one tree, read from its arena."""

    __slots__ = (
        "tree",
        "arena",
        "_leaf_positions",
        "_leaf_start",
        "_child_ranks",
        "_chain_pos",
        "_leaf_label_list",
        "_internal_label_list",
        "_order",
        "_node_chains",
        "_digests",
    )

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        arena = tree.to_arena()
        self.arena = arena
        n = arena.n
        first_child = arena.first_child
        next_sibling = arena.next_sibling
        labels = arena.labels
        label_pool = arena.label_pool

        leaf_positions = array("i")
        leaf_start = array("i", [0]) * n if n else array("i")
        child_ranks = array("i", [0]) * n if n else array("i")
        chain_pos: Dict[str, List[int]] = {}
        seen_leaf_labels: Dict[str, None] = {}
        seen_internal_labels: Dict[str, None] = {}
        for pos in range(n):
            leaf_start[pos] = len(leaf_positions)
            label = label_pool[labels[pos]]
            chain = chain_pos.get(label)
            if chain is None:
                chain_pos[label] = [pos]
            else:
                chain.append(pos)
            child = first_child[pos]
            if child < 0:
                leaf_positions.append(pos)
                seen_leaf_labels.setdefault(label, None)
            else:
                seen_internal_labels.setdefault(label, None)
                rank = 0
                while child >= 0:
                    rank += 1
                    child_ranks[child] = rank
                    child = next_sibling[child]

        self._leaf_positions = leaf_positions
        self._leaf_start = leaf_start
        self._child_ranks = child_ranks
        self._chain_pos = chain_pos
        self._leaf_label_list = list(seen_leaf_labels)
        self._internal_label_list = list(seen_internal_labels)
        self._order: Optional[List[Node]] = None
        self._node_chains: Optional[Dict[str, List[Node]]] = None
        self._digests: Optional["DigestIndex"] = None

    # ------------------------------------------------------------------
    # Lazy node binding
    # ------------------------------------------------------------------
    def _nodes_in_order(self) -> List[Node]:
        """Node objects aligned with arena positions (bound on first use)."""
        order = self._order
        if order is None:
            order = self.tree._order_for(self.arena)
            self._order = order
        return order

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.arena.n

    def __contains__(self, node_id: Any) -> bool:
        return node_id in self.arena.pos_of

    def describes(self, tree: Tree) -> bool:
        """True when this index was built over *tree* and it is unmutated.

        Every :class:`Tree` mutation drops the cached arena snapshot, so an
        index still describes its tree exactly while the two share it.
        """
        return self.tree is tree and tree.arena_snapshot() is self.arena

    # ------------------------------------------------------------------
    # Structural facts (pure array arithmetic)
    # ------------------------------------------------------------------
    def rank(self, node_id: Any) -> int:
        """0-based preorder rank of the node (its arena position)."""
        return self.arena.pos_of[node_id]

    def subtree_size(self, node_id: Any) -> int:
        """Number of nodes (including itself) in the node's subtree."""
        arena = self.arena
        return arena.subtree_size[arena.pos_of[node_id]]

    def leaf_count(self, node_id: Any) -> int:
        """``|x|``: number of leaves contained in the node's subtree."""
        arena = self.arena
        return arena.leaf_count[arena.pos_of[node_id]]

    def is_under(self, node_id: Any, ancestor_id: Any) -> bool:
        """True when *ancestor_id* is a proper ancestor of *node_id*.

        One interval comparison instead of a parent-chain ascent: a node
        lies strictly inside an ancestor's preorder interval.
        """
        arena = self.arena
        pos_of = arena.pos_of
        a = pos_of[ancestor_id]
        n = pos_of[node_id]
        return a < n < a + arena.subtree_size[a]

    def leaves_of(self, node_id: Any) -> Sequence[Node]:
        """The leaves contained in the node's subtree, document order."""
        arena = self.arena
        pos = arena.pos_of[node_id]
        start = self._leaf_start[pos]
        stop = start + arena.leaf_count[pos]
        order = self._nodes_in_order()
        return [order[p] for p in self._leaf_positions[start:stop]]

    def leaf_span(self, node_id: Any) -> Tuple[int, int]:
        """``[start, stop)`` of the node's leaves in the flat leaf array."""
        arena = self.arena
        pos = arena.pos_of[node_id]
        start = self._leaf_start[pos]
        return start, start + arena.leaf_count[pos]

    def leaf_position_array(self) -> "array":
        """Arena positions of all leaves, document order (read-only)."""
        return self._leaf_positions

    def child_rank(self, node_id: Any) -> int:
        """1-based position among siblings (the paper's child index)."""
        rank = self._child_ranks[self.arena.pos_of[node_id]]
        if rank == 0:  # the root has no sibling position
            raise KeyError(node_id)
        return rank

    # ------------------------------------------------------------------
    # Label chains (FastMatch step 1)
    # ------------------------------------------------------------------
    def chains(self) -> Dict[str, List[Node]]:
        """All label chains (shared structure; treat as read-only)."""
        node_chains = self._node_chains
        if node_chains is None:
            order = self._nodes_in_order()
            node_chains = {
                label: [order[pos] for pos in positions]
                for label, positions in self._chain_pos.items()
            }
            self._node_chains = node_chains
        return node_chains

    def leaf_chain(self, label: str) -> List[Node]:
        """Leaf nodes with the label, left-to-right (may be empty)."""
        positions = self._chain_pos.get(label)
        if not positions:
            return []
        first_child = self.arena.first_child
        order = self._nodes_in_order()
        return [order[pos] for pos in positions if first_child[pos] < 0]

    def internal_chain(self, label: str) -> List[Node]:
        """Interior nodes with the label, left-to-right (may be empty)."""
        positions = self._chain_pos.get(label)
        if not positions:
            return []
        first_child = self.arena.first_child
        order = self._nodes_in_order()
        return [order[pos] for pos in positions if first_child[pos] >= 0]

    def leaf_labels(self) -> List[str]:
        """Labels on at least one leaf, in first-seen document order."""
        return list(self._leaf_label_list)

    def internal_labels(self) -> List[str]:
        """Labels on at least one interior node, first-seen order."""
        return list(self._internal_label_list)

    # ------------------------------------------------------------------
    # Subtree digests (lazy; reuses the service layer's Merkle pass)
    # ------------------------------------------------------------------
    @property
    def digests(self) -> "DigestIndex":
        """Per-subtree Merkle digests (see :mod:`repro.service.digest`).

        Computed on first access and memoized; reuses an index already
        attached to the tree by the serving layer when present.
        """
        if self._digests is None:
            from ..service.digest import cached_digests

            self._digests = cached_digests(self.tree)
        return self._digests

    def subtrees_equal(
        self, node_id: Any, other: "TreeIndex", other_id: Any
    ) -> bool:
        """O(1) isomorphism fast path between two indexed subtrees."""
        return self.digests.get(node_id) == other.digests.get(other_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeIndex(nodes={self.arena.n}, "
            f"leaves={len(self._leaf_positions)})"
        )


def build_index(tree: Tree) -> TreeIndex:
    """Construct a fresh :class:`TreeIndex` over *tree*."""
    return TreeIndex(tree)


def attach_index(tree: Tree) -> TreeIndex:
    """Build an index and attach it as ``tree.index`` for later reuse.

    Like :func:`repro.service.digest.attach_digests`, the attachment is a
    plain attribute. A later mutation makes it stale; :func:`cached_index`
    then ignores it and builds a fresh index.
    """
    index = TreeIndex(tree)
    tree.index = index  # type: ignore[attr-defined]
    return index


def cached_index(tree: Tree) -> Tuple[TreeIndex, bool]:
    """Return ``(index, reused)`` — a still-valid attached index, or fresh.

    A stale attachment (tree mutated since, or attribute copied across
    trees) is never reused: see :meth:`TreeIndex.describes`.
    """
    index = getattr(tree, "index", None)
    if isinstance(index, TreeIndex) and index.describes(tree):
        return index, True
    return TreeIndex(tree), False
