"""Tree node representation.

The paper's data model (Section 3.1) is an *ordered tree* whose nodes each
carry a *label*, a *value*, and a unique *identifier*. Interior nodes usually
have a null value; leaves carry data (e.g. the text of a sentence).

:class:`Node` instances are always owned by a :class:`repro.core.tree.Tree`;
user code creates them through the tree's mutation API rather than directly.
A node's label and value are read-only properties: only
:mod:`repro.core.tree` rewrites them, and it drops the tree's arena snapshot
with every write, so no snapshot can outlive the data it describes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional


class Node:
    """A single node of an ordered labeled-value tree.

    Attributes
    ----------
    id:
        Identifier unique within the owning tree. Identifiers are opaque to
        the algorithms; the paper stresses that identifiers are *not* stable
        across versions, which is why matching is value-based.
    label:
        The node's label (e.g. ``"D"``, ``"P"``, ``"S"`` for document,
        paragraph, sentence). Labels come from a fixed but arbitrary set.
        Read-only: change it with :func:`~repro.core.tree.map_tree`.
    value:
        The node's value; ``None`` for typical interior nodes. Read-only:
        change it with :meth:`Tree.update <repro.core.tree.Tree.update>`.
    parent:
        The parent :class:`Node`, or ``None`` for the root.
    children:
        Ordered list of child nodes. Treated as read-only by callers; all
        mutation goes through the owning tree.
    """

    __slots__ = ("id", "_label", "_value", "parent", "children", "_slot")

    def __init__(self, node_id: Any, label: str, value: Any = None) -> None:
        self.id = node_id
        self._label = label
        self._value = value
        self.parent: Optional[Node] = None
        self.children: List[Node] = []
        #: 0-based hint of this node's position in ``parent.children``,
        #: maintained by the owning tree's attach/detach paths. May go
        #: stale when earlier siblings are removed; consumers validate it
        #: (``parent.children[_slot] is node``) before trusting it.
        self._slot = -1

    @property
    def label(self) -> str:
        return self._label

    @property
    def value(self) -> Any:
        return self._value

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.children

    def child_index(self) -> int:
        """Return this node's 1-based position among its siblings.

        The paper indexes children starting from 1 (``INS((x,l,v), y, k)``
        makes ``x`` the *k*-th child of ``y``), so the library follows suit.
        """
        if self.parent is None:
            raise ValueError(f"root node {self.id!r} has no sibling position")
        siblings = self.parent.children
        slot = self._slot
        if 0 <= slot < len(siblings) and siblings[slot] is self:
            return slot + 1
        slot = siblings.index(self)
        self._slot = slot  # repair the hint for the next lookup
        return slot + 1

    def ancestors(self) -> Iterator["Node"]:
        """Yield the proper ancestors of this node, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "Node") -> bool:
        """True when *other* lies strictly inside this node's subtree."""
        return any(ancestor is self for ancestor in other.ancestors())

    # ------------------------------------------------------------------
    # Subtree traversals (node-local; the Tree class re-exports these)
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator["Node"]:
        """Yield this subtree's nodes in preorder (node before children)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["Node"]:
        """Yield this subtree's nodes in postorder (children before node)."""
        # Iterative two-stack postorder keeps very deep trees from blowing
        # the recursion limit.
        stack = [self]
        output: List[Node] = []
        while stack:
            node = stack.pop()
            output.append(node)
            stack.extend(node.children)
        return reversed(output)

    def leaves(self) -> Iterator["Node"]:
        """Yield this subtree's leaves in left-to-right order."""
        for node in self.preorder():
            if node.is_leaf:
                yield node

    def leaf_count(self) -> int:
        """Return ``|x|``: the number of leaves in this subtree.

        This is the quantity the paper uses both in Matching Criterion 2 and
        in the weighted edit distance (a move of subtree ``x`` weighs
        ``|x|``).
        """
        return sum(1 for _ in self.leaves())

    def subtree_size(self) -> int:
        """Total number of nodes in this subtree, including this node."""
        return sum(1 for _ in self.preorder())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        value = "" if self.value is None else f", value={self.value!r}"
        return f"Node(id={self.id!r}, label={self.label!r}{value})"
