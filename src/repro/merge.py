"""Three-way merge of hierarchical data (completing the §1 CAD scenario).

The paper's configuration-management motivation: two departments edit the
same design autonomously, and "periodic consistent configurations of the
entire design must be produced ... by computing the deltas with respect to
the last configuration and highlighting any conflicts that have arisen."

:func:`three_way_merge` does exactly that. Given a common *base* and two
derived versions, it computes both deltas (value-based matching — no shared
ids assumed between versions), applies the left delta wholesale, then
replays the right delta on top, translating node references through the
matchings and detecting conflicts:

* **update/update** — both sides changed the same node's value differently;
* **delete/update** and **update/delete** — one side edited what the other
  removed;
* **delete/orphan** — the right side inserts or moves under a node the
  left side deleted;
* **move/move** — both sides moved the same node to different parents.

Like ``diff3``, the merge is heuristic where the paper's model is silent:
non-conflicting sibling positions are clamped into range rather than
recomputed exactly, so the merged order of independently inserted siblings
is deterministic but unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .core.errors import ReproError
from .core.tree import Tree
from .editscript.operations import Delete, EditOperation, Insert, Move, Update
from .matching.criteria import MatchConfig
from .pipeline import DiffConfig, DiffPipeline


class MergeError(ReproError):
    """Raised when merge inputs are unusable (e.g. empty trees)."""


@dataclass(frozen=True)
class Conflict:
    """One detected conflict; the left side's outcome was kept."""

    kind: str  # update-update / delete-update / update-delete / ...
    description: str
    base_node_id: Any = None


@dataclass
class MergeResult:
    """The merged tree plus what happened along the way."""

    tree: Tree
    conflicts: List[Conflict] = field(default_factory=list)
    applied_right_ops: int = 0
    skipped_right_ops: int = 0

    @property
    def clean(self) -> bool:
        return not self.conflicts


def three_way_merge(
    base: Tree,
    left: Tree,
    right: Tree,
    config: Optional[MatchConfig] = None,
) -> MergeResult:
    """Merge two versions derived from *base*; left wins conflicts.

    Returns the merged tree (left's changes plus right's non-conflicting
    changes) and the list of conflicts for human resolution — the paper's
    "highlighting any conflicts that have arisen".
    """
    if base.root is None or left.root is None or right.root is None:
        raise MergeError("three_way_merge requires three non-empty trees")

    # Both legs run on one pipeline; the second reuses the first's index
    # of the shared base (an index_cache_hit in its trace).
    pipeline = DiffPipeline(DiffConfig(match=config))
    diff_left = pipeline.run(base, left)
    diff_right = pipeline.run(base, right)

    # The merge working tree starts as the left version, but with *base*
    # node identifiers (the generator's transformed tree keeps them), so
    # right-delta references translate directly.
    merged = diff_left.edit.replay(base)
    conflicts: List[Conflict] = []

    left_updates = {op.node_id: op for op in diff_left.script.updates}
    left_deletes = {op.node_id for op in diff_left.script.deletes}
    left_moves = {op.node_id: op for op in diff_left.script.moves}

    #: right-delta ids -> ids in the merged tree (base ids map to
    #: themselves; right-side inserts get fresh merged ids).
    id_map: Dict[Any, Any] = {}

    def resolve(node_id: Any) -> Optional[Any]:
        mapped = id_map.get(node_id, node_id)
        return mapped if mapped in merged else None

    applied = skipped = 0
    for op in diff_right.script:
        outcome = _replay_right_op(
            op, merged, id_map, resolve,
            left_updates, left_deletes, left_moves, conflicts,
        )
        if outcome:
            applied += 1
        else:
            skipped += 1

    return MergeResult(
        tree=merged,
        conflicts=conflicts,
        applied_right_ops=applied,
        skipped_right_ops=skipped,
    )


def _replay_right_op(
    op: EditOperation,
    merged: Tree,
    id_map: Dict[Any, Any],
    resolve,
    left_updates: Dict[Any, Update],
    left_deletes,
    left_moves: Dict[Any, Move],
    conflicts: List[Conflict],
) -> bool:
    """Apply one right-delta operation to the merged tree; False = skipped."""
    if isinstance(op, Update):
        target = resolve(op.node_id)
        if target is None:
            conflicts.append(Conflict(
                kind="delete-update",
                description=(
                    f"right updates node {op.node_id!r} to {op.value!r}, "
                    f"but left deleted it"
                ),
                base_node_id=op.node_id,
            ))
            return False
        left_update = left_updates.get(op.node_id)
        if left_update is not None and left_update.value != op.value:
            conflicts.append(Conflict(
                kind="update-update",
                description=(
                    f"node {op.node_id!r}: left set {left_update.value!r}, "
                    f"right set {op.value!r} (kept left)"
                ),
                base_node_id=op.node_id,
            ))
            return False
        merged.update(target, op.value)
        return True

    if isinstance(op, Delete):
        target = resolve(op.node_id)
        if target is None:
            return True  # both sides deleted it: nothing to do, no conflict
        if op.node_id in left_updates:
            conflicts.append(Conflict(
                kind="update-delete",
                description=(
                    f"right deletes node {op.node_id!r} that left updated "
                    f"(kept left's version)"
                ),
                base_node_id=op.node_id,
            ))
            return False
        node = merged.get(target)
        if node.children:
            conflicts.append(Conflict(
                kind="delete-occupied",
                description=(
                    f"right deletes node {op.node_id!r}, but it still has "
                    f"children in the merge (left added or kept content)"
                ),
                base_node_id=op.node_id,
            ))
            return False
        if node.parent is None:
            return False  # never delete the merged root
        merged.delete(target)
        return True

    if isinstance(op, Insert):
        parent = resolve(op.parent_id)
        if parent is None:
            conflicts.append(Conflict(
                kind="delete-orphan",
                description=(
                    f"right inserts {op.value!r} under node {op.parent_id!r}, "
                    f"which left deleted"
                ),
                base_node_id=op.parent_id,
            ))
            return False
        position = _clamp(op.position, len(merged.get(parent).children) + 1)
        new_id = merged.fresh_id()
        merged.insert(new_id, op.label, op.value, parent, position)
        id_map[op.node_id] = new_id
        return True

    if isinstance(op, Move):
        target = resolve(op.node_id)
        parent = resolve(op.parent_id)
        if target is None:
            conflicts.append(Conflict(
                kind="delete-move",
                description=(
                    f"right moves node {op.node_id!r}, but left deleted it"
                ),
                base_node_id=op.node_id,
            ))
            return False
        if parent is None:
            conflicts.append(Conflict(
                kind="delete-orphan",
                description=(
                    f"right moves node {op.node_id!r} under {op.parent_id!r}, "
                    f"which left deleted"
                ),
                base_node_id=op.parent_id,
            ))
            return False
        left_move = left_moves.get(op.node_id)
        if left_move is not None and left_move.parent_id != op.parent_id:
            conflicts.append(Conflict(
                kind="move-move",
                description=(
                    f"node {op.node_id!r} moved to different parents: "
                    f"left under {left_move.parent_id!r}, right under "
                    f"{op.parent_id!r} (kept left)"
                ),
                base_node_id=op.node_id,
            ))
            return False
        node = merged.get(target)
        parent_node = merged.get(parent)
        if node.parent is None:
            conflicts.append(Conflict(
                kind="move-root",
                description=(
                    f"right moves node {op.node_id!r}, which is the merged "
                    f"root (left replaced the hierarchy above it)"
                ),
                base_node_id=op.node_id,
            ))
            return False
        if node is parent_node or node.is_ancestor_of(parent_node):
            conflicts.append(Conflict(
                kind="move-cycle",
                description=(
                    f"right's move of {op.node_id!r} under {op.parent_id!r} "
                    f"would create a cycle after left's changes"
                ),
                base_node_id=op.node_id,
            ))
            return False
        limit = len(parent_node.children) + (0 if node.parent is parent_node else 1)
        merged.move(target, parent, _clamp(op.position, max(limit, 1)))
        return True

    raise TypeError(f"unknown operation {op!r}")  # pragma: no cover


def _clamp(position: int, limit: int) -> int:
    return max(1, min(position, limit))
