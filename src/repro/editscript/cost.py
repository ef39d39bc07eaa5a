"""Edit-script costs (Section 3.2).

The paper adopts unit costs for insert, delete, and subtree move
(``c_D(x) = c_I(x) = c_M(x) = 1``) and prices an update at
``compare(v, v')`` in ``[0, 2]``. The consistency requirement — an update
cheaper than 1 should beat a delete/insert pair — is what makes matched pairs
with similar values preferable to unmatched ones.
"""

from __future__ import annotations

from typing import Iterable

from ..compare.generic import default_compare
from .operations import Delete, EditOperation, Insert, Move, Update


def operation_cost(op: EditOperation) -> float:
    """Cost of a single operation.

    An :class:`Update` is priced from its recorded ``old_value``; generators
    populate it, so scripts can be re-priced without the source tree.
    """
    if isinstance(op, (Insert, Delete, Move)):
        return 1.0
    if isinstance(op, Update):
        return default_compare(op.old_value, op.value)
    raise TypeError(f"unknown edit operation: {op!r}")


def script_cost(operations: Iterable[EditOperation]) -> float:
    """Total cost of a sequence of operations."""
    return sum(operation_cost(op) for op in operations)
