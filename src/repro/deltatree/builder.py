"""Construction of delta trees from diff results (paper Section 6).

A delta tree "overlays" an edit script onto the data: it mirrors the new
tree ``T2`` with ``IDN``/``UPD``/``INS``/``MOV`` annotations, and re-inserts
tombstones for deleted subtrees (``DEL``) and move sources (``MRK``) at
their old positions, so a single preorder walk can render the complete
marked-up document (the way LaDiff produces its output). That walk is
:func:`repro.deltatree.units.document_units`, shared by every Table 2
writer. Both passes here are loops (the mirror follows ``T2``'s preorder,
tombstone subtrees keep an explicit stack), so document depth is not
bounded by the recursion limit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..core.node import Node
from ..core.tree import Tree
from ..editscript.generator import EditScriptResult
from .annotations import Annotation, Del, Idn, Ins, Mov, Mrk, Upd


class DeltaNode:
    """One node of a delta tree: label, value, and one annotation."""

    __slots__ = ("label", "value", "annotation", "children", "t1_id", "t2_id")

    def __init__(
        self,
        label: str,
        value: Any,
        annotation: Annotation,
        t1_id: Any = None,
        t2_id: Any = None,
    ) -> None:
        self.label = label
        self.value = value
        self.annotation = annotation
        self.children: List[DeltaNode] = []
        self.t1_id = t1_id  # id in the old tree (None for inserts)
        self.t2_id = t2_id  # id in the new tree (None for DEL/MRK)

    @property
    def tag(self) -> str:
        return self.annotation.tag()

    def preorder(self) -> Iterator["DeltaNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaNode({self.label!r}, {self.tag})"


class DeltaTree:
    """An annotated overlay of the new tree, plus tombstones."""

    def __init__(self, root: DeltaNode) -> None:
        self.root = root

    def preorder(self) -> Iterator[DeltaNode]:
        return self.root.preorder()

    def nodes_with_tag(self, tag: str) -> List[DeltaNode]:
        return [node for node in self.preorder() if node.tag == tag]

    def counts(self) -> Dict[str, int]:
        """Annotation tag -> number of delta nodes carrying it."""
        out: Dict[str, int] = {}
        for node in self.preorder():
            out[node.tag] = out.get(node.tag, 0) + 1
        return out

    def markers(self) -> Dict[str, DeltaNode]:
        """Marker key -> MRK node."""
        return {
            node.annotation.marker: node
            for node in self.preorder()
            if isinstance(node.annotation, Mrk)
        }

    def moves(self) -> Dict[str, DeltaNode]:
        """Marker key -> MOV node (destination of the move)."""
        return {
            node.annotation.marker: node
            for node in self.preorder()
            if isinstance(node.annotation, Mov)
        }


def build_delta_tree(
    t1: Tree,
    t2: Tree,
    result: EditScriptResult,
) -> DeltaTree:
    """Build the delta tree for ``t1 -> t2`` from an edit-script result.

    The result's total matching identifies inserted T2 nodes (partnered
    with generator-created identifiers), updated values, and moved nodes;
    unmatched T1 nodes become ``DEL`` tombstones and every moved node gets
    an ``MRK`` tombstone at its old position.
    """
    mprime = result.matching
    script = result.script
    t1_ids = set(t1.node_ids())

    inserted_t2: Set[Any] = set()
    for op in script.inserts:
        partner = mprime.partner1(op.node_id)
        if partner is not None:
            inserted_t2.add(partner)
    updated_old_value: Dict[Any, Any] = {}
    for op in script.updates:
        # First update wins: it carries the original (pre-diff) value.
        updated_old_value.setdefault(op.node_id, op.old_value)
    moved_work_ids: List[Any] = []
    seen_moves: Set[Any] = set()
    for op in script.moves:
        if op.node_id in t1_ids and op.node_id not in seen_moves:
            seen_moves.add(op.node_id)
            moved_work_ids.append(op.node_id)

    # ------------------------------------------------------------------
    # Pass 1: mirror T2 with annotations.
    # ------------------------------------------------------------------
    marker_keys: Dict[Any, str] = {
        work_id: f"M{i}" for i, work_id in enumerate(moved_work_ids, start=1)
    }
    delta_of_t2: Dict[Any, DeltaNode] = {}

    for x in t2.preorder():
        work_id = mprime.partner2(x.id)
        t1_id = work_id if work_id in t1_ids else None
        if x.id in inserted_t2:
            annotation: Annotation = Ins()
        elif work_id in seen_moves:
            annotation = Mov(
                marker=marker_keys[work_id],
                updated=work_id in updated_old_value,
                old_value=updated_old_value.get(work_id),
            )
        elif work_id in updated_old_value:
            annotation = Upd(old_value=updated_old_value[work_id])
        else:
            annotation = Idn()
        node = DeltaNode(x.label, x.value, annotation, t1_id=t1_id, t2_id=x.id)
        delta_of_t2[x.id] = node
        if x.parent is not None:
            delta_of_t2[x.parent.id].children.append(node)
    root = delta_of_t2[t2.root.id]

    # ------------------------------------------------------------------
    # Pass 2: tombstones (DEL subtrees and MRK move sources) at their old
    # positions, anchored to the nearest matched left sibling.
    # ------------------------------------------------------------------
    deleted_t1: Set[Any] = {
        node.id for node in t1.preorder() if not mprime.has1(node.id)
    }
    #: T1 id -> its DEL delta node (registered for every deleted node so
    #: markers under deleted parents can find their target).
    delta_for_deleted: Dict[Any, DeltaNode] = {}

    def build_deleted_subtree(top: Node) -> DeltaNode:
        # Matched descendants of a deleted node were moved away; they
        # appear in the mirror (with their own MRK markers) rather than
        # inside the DEL subtree.
        stack: List[Tuple[Node, Optional[DeltaNode]]] = [(top, None)]
        while stack:
            node, parent = stack.pop()
            delta = DeltaNode(node.label, node.value, Del(), t1_id=node.id)
            delta_for_deleted[node.id] = delta
            if parent is not None:
                parent.children.append(delta)
            stack.extend(
                (child, delta) for child in reversed(node.children)
                if child.id in deleted_t1
            )
        return delta_for_deleted[top.id]

    def move_marker(node: Node) -> DeltaNode:
        """MRK tombstone at the old position of the moved *node*."""
        mark = Mrk(marker=marker_keys[node.id])
        return DeltaNode(node.label, node.value, mark, t1_id=node.id)

    def target_delta_for(node: Node) -> Optional[DeltaNode]:
        """Delta node under which *node*'s tombstone children belong."""
        if node.id in delta_for_deleted:
            return delta_for_deleted[node.id]
        partner = mprime.partner1(node.id)
        if partner is not None:
            return delta_of_t2.get(partner)
        return None

    def place_tombstones(parent: Node, target: DeltaNode) -> None:
        parent_deleted = parent.id in deleted_t1
        anchor_index = -1  # index in target.children after which to insert
        for child in parent.children:
            if child.id in deleted_t1:
                if parent_deleted:
                    # Already embedded by build_deleted_subtree; just track
                    # its position as the running anchor.
                    embedded = delta_for_deleted[child.id]
                    anchor_index = target.children.index(embedded)
                    continue
                tombstone = build_deleted_subtree(child)
            elif child.id in seen_moves:
                tombstone = move_marker(child)
            else:
                # Stationary matched child: advance the anchor when its
                # mirror node lives under this target.
                partner = mprime.partner1(child.id)
                delta_child = delta_of_t2.get(partner)
                if delta_child is not None and delta_child in target.children:
                    anchor_index = target.children.index(delta_child)
                continue
            anchor_index += 1
            target.children.insert(anchor_index, tombstone)

    # A deleted T1 root has no old parent to anchor under; by convention its
    # tombstone becomes the last child of the delta root.
    if t1.root is not None and t1.root.id in deleted_t1:
        root.children.append(build_deleted_subtree(t1.root))

    # Likewise a moved T1 root (possible when the roots were unmatched and
    # the generator dummy-wrapped both trees): its MRK tombstone has no old
    # parent to anchor under, so it too lands at the end of the root.
    if t1.root is not None and t1.root.id in seen_moves:
        root.children.append(move_marker(t1.root))

    # T1 preorder guarantees a parent's tombstone (if any) is created before
    # its children need it as a target.
    for node in t1.preorder():
        if not any(
            child.id in deleted_t1 or child.id in seen_moves
            for child in node.children
        ):
            continue
        target = target_delta_for(node)
        if target is None:
            # The old parent has no trace in the delta tree (it was itself
            # swallowed by an unrepresentable path); fall back to the root
            # so no change is silently dropped.
            target = root
        place_tombstones(node, target)

    return DeltaTree(root)
