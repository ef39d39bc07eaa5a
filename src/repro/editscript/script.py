"""Edit scripts: ordered operation sequences and the replay engine.

An :class:`EditScript` is the paper's delta representation — "a sequence of
edit operations that transforms one tree into another." The class stores the
operations in application order, knows its own cost, can replay itself on a
tree (the engine used to verify that generated scripts really produce a tree
isomorphic to the target), and round-trips through plain dictionaries for
persistence.

:meth:`EditScript.apply_to` is the only replay engine. When the input roots
are unmatched the generator wraps both trees under dummy roots
(:meth:`Tree.wrap_root <repro.core.tree.Tree.wrap_root>`), so a script
generated that way replays on ``T1`` wrapped under the same dummy id, which
:meth:`~repro.core.tree.Tree.unwrap_root` takes off again afterwards.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import EditScriptError
from ..core.tree import Tree
from .cost import script_cost
from .operations import Delete, EditOperation, Insert, Move, Update


class EditScript:
    """A sequence of edit operations with bookkeeping."""

    def __init__(self, operations: Optional[Iterable[EditOperation]] = None) -> None:
        self._operations: List[EditOperation] = list(operations or ())

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def append(self, op: EditOperation) -> None:
        """Append an operation (generators call this as they emit)."""
        self._operations.append(op)

    def extend(self, ops: Iterable[EditOperation]) -> None:
        for op in ops:
            self.append(op)

    def __iter__(self) -> Iterator[EditOperation]:
        return iter(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __getitem__(self, index):
        return self._operations[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EditScript):
            return NotImplemented
        return self._operations == other._operations

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def inserts(self) -> List[Insert]:
        return [op for op in self._operations if isinstance(op, Insert)]

    @property
    def deletes(self) -> List[Delete]:
        return [op for op in self._operations if isinstance(op, Delete)]

    @property
    def updates(self) -> List[Update]:
        return [op for op in self._operations if isinstance(op, Update)]

    @property
    def moves(self) -> List[Move]:
        return [op for op in self._operations if isinstance(op, Move)]

    def summary(self) -> Dict[str, int]:
        """Operation counts keyed by kind."""
        return {
            "insert": len(self.inserts),
            "delete": len(self.deletes),
            "update": len(self.updates),
            "move": len(self.moves),
            "total": len(self._operations),
        }

    def cost(self) -> float:
        """Total script cost under the §3.2 unit costs."""
        return script_cost(self._operations)

    def is_empty(self) -> bool:
        return not self._operations

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def apply_to(
        self, tree: Tree, in_place: bool = False, dummy_id: Any = None
    ) -> Tree:
        """Apply every operation in order and return the resulting tree.

        By default the input tree is copied first; pass ``in_place=True`` to
        mutate it directly. Pass the dummy-root id the script was generated
        under (``EditScriptResult.dummy_t1_id``) as *dummy_id* to replay a
        wrapped script: the tree is wrapped under that id first and the
        dummy is stripped at the end, so the result is comparable to the
        unwrapped ``T2``. Any structural violation (bad position, deleting
        a non-leaf, unknown node) raises :class:`EditScriptError` with the
        offending operation's index.
        """
        target = tree if in_place else tree.copy()
        for _ in self.steps(target, dummy_id):
            pass
        if dummy_id is not None:
            target.unwrap_root()
        return target

    def steps(
        self, tree: Tree, dummy_id: Any = None
    ) -> Iterator[Tuple[EditOperation, Tree]]:
        """Replay on *tree* in place, yielding each operation first.

        Each ``(op, tree)`` pair shows the working tree just before *op*
        applies, so a caller can price an operation by the tree it acts on
        (a move by its subtree at that moment). The tree is wrapped under
        *dummy_id* when one is given and is left wrapped; pass a copy to
        keep the input intact. Failures raise as in :meth:`apply_to`.
        """
        if dummy_id is not None:
            tree.wrap_root(dummy_id)
        for index, op in enumerate(self._operations):
            yield op, tree
            try:
                op.apply(tree)
            except Exception as exc:
                raise EditScriptError(
                    f"operation {index} ({op}) failed: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialize to JSON-friendly dictionaries."""
        out: List[Dict[str, Any]] = []
        for op in self._operations:
            if isinstance(op, Insert):
                out.append(
                    {
                        "op": "insert",
                        "node_id": op.node_id,
                        "label": op.label,
                        "value": op.value,
                        "parent_id": op.parent_id,
                        "position": op.position,
                    }
                )
            elif isinstance(op, Delete):
                out.append({"op": "delete", "node_id": op.node_id})
            elif isinstance(op, Update):
                out.append(
                    {
                        "op": "update",
                        "node_id": op.node_id,
                        "value": op.value,
                        "old_value": op.old_value,
                    }
                )
            elif isinstance(op, Move):
                out.append(
                    {
                        "op": "move",
                        "node_id": op.node_id,
                        "parent_id": op.parent_id,
                        "position": op.position,
                    }
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown operation: {op!r}")
        return out

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, Any]]) -> "EditScript":
        """Inverse of :meth:`to_dicts`."""
        script = cls()
        for record in records:
            kind = record.get("op")
            if kind == "insert":
                script.append(
                    Insert(
                        record["node_id"],
                        record["label"],
                        record.get("value"),
                        record["parent_id"],
                        record["position"],
                    )
                )
            elif kind == "delete":
                script.append(Delete(record["node_id"]))
            elif kind == "update":
                script.append(
                    Update(
                        record["node_id"],
                        record.get("value"),
                        record.get("old_value"),
                    )
                )
            elif kind == "move":
                script.append(
                    Move(record["node_id"], record["parent_id"], record["position"])
                )
            else:
                raise EditScriptError(f"unknown operation kind: {kind!r}")
        return script

    def __str__(self) -> str:
        if not self._operations:
            return "<empty edit script>"
        return ", ".join(str(op) for op in self._operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EditScript({self.summary()})"
