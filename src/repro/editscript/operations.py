"""The four edit operations of the paper's model (Section 3.2).

Each operation is an immutable record that knows how to apply itself to a
:class:`~repro.core.tree.Tree` and how to render itself in the paper's
notation (``INS((x, l, v), y, k)`` etc.). Operations are produced by the
generator (:mod:`repro.editscript.generator`) and consumed by the apply
engine (:mod:`repro.editscript.script`), delta-tree builder, and renderers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from .._compat import DATACLASS_SLOTS
from ..core.tree import Tree


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Insert:
    """``INS((node_id, label, value), parent_id, position)``.

    Inserts a new leaf *node_id* with the given label and value as the
    ``position``-th child of *parent_id* (1-based).
    """

    node_id: Any
    label: str
    value: Any
    parent_id: Any
    position: int

    def apply(self, tree: Tree) -> None:
        tree.insert(self.node_id, self.label, self.value, self.parent_id, self.position)

    def __str__(self) -> str:
        return (
            f"INS(({self.node_id}, {self.label}, {_fmt(self.value)}), "
            f"{self.parent_id}, {self.position})"
        )


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Delete:
    """``DEL(node_id)``: remove a leaf node."""

    node_id: Any

    def apply(self, tree: Tree) -> None:
        tree.delete(self.node_id)

    def __str__(self) -> str:
        return f"DEL({self.node_id})"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Update:
    """``UPD(node_id, value)``: replace the node's value.

    ``old_value`` is not part of the paper's operation but is recorded so
    scripts are invertible and update costs can be re-derived later.
    """

    node_id: Any
    value: Any
    old_value: Any = None

    def apply(self, tree: Tree) -> None:
        tree.update(self.node_id, self.value)

    def __str__(self) -> str:
        return f"UPD({self.node_id}, {_fmt(self.value)})"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Move:
    """``MOV(node_id, parent_id, position)``: re-parent a whole subtree."""

    node_id: Any
    parent_id: Any
    position: int

    def apply(self, tree: Tree) -> None:
        tree.move(self.node_id, self.parent_id, self.position)

    def __str__(self) -> str:
        return f"MOV({self.node_id}, {self.parent_id}, {self.position})"


EditOperation = Union[Insert, Delete, Update, Move]


def _fmt(value: Any) -> str:
    if isinstance(value, str):
        text = value if len(value) <= 32 else value[:29] + "..."
        return repr(text)
    return repr(value)
