"""Edit-distance metrics: unweighted ``d`` and weighted ``e`` (Section 5.3).

Given an edit script ``E = e_1 ... e_n``:

* the **unweighted edit distance** ``d`` is simply ``n`` — "the number of
  edit operations in an optimal edit script" (Section 8);
* the **weighted edit distance** is ``e = sum(w_i)`` with ``w_i = 1`` for
  inserts and deletes, ``w_i = |x|`` (leaf count of the moved subtree) for
  moves, and ``w_i = 0`` for updates.

Because a move's weight depends on the subtree size *at the moment of the
move*, ``e`` is computed by replaying the script against the old tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import EditScriptError
from ..core.tree import Tree
from ..editscript.generator import EditScriptResult
from ..editscript.operations import Delete, Insert, Move, Update
from ..editscript.script import EditScript


@dataclass(frozen=True)
class EditDistances:
    """The (d, e) pair for one script, plus per-kind contributions."""

    unweighted: int  # d
    weighted: float  # e
    insert_weight: float
    delete_weight: float
    move_weight: float

    @property
    def ratio(self) -> float:
        """``e / d`` (0 when the script is empty)."""
        if self.unweighted == 0:
            return 0.0
        return self.weighted / self.unweighted


def script_distances(
    t1: Tree,
    script: EditScript,
    wrapped_dummy_id: Optional[object] = None,
) -> EditDistances:
    """Compute (d, e) by replaying *script* on a copy of *t1*.

    ``wrapped_dummy_id`` must be supplied when the script was generated with
    dummy-root wrapping (see :func:`result_distances` for the convenient
    path that handles this automatically).
    """
    insert_weight = delete_weight = move_weight = 0.0
    for op, work in script.steps(t1.copy(), wrapped_dummy_id):
        if isinstance(op, Insert):
            insert_weight += 1.0
        elif isinstance(op, Delete):
            delete_weight += 1.0
        elif isinstance(op, Move):
            move_weight += float(work.get(op.node_id).leaf_count())
        elif isinstance(op, Update):
            pass  # updates weigh 0
        else:  # pragma: no cover - defensive
            raise EditScriptError(f"unknown operation {op!r}")
    weighted = insert_weight + delete_weight + move_weight
    return EditDistances(
        unweighted=len(script),
        weighted=weighted,
        insert_weight=insert_weight,
        delete_weight=delete_weight,
        move_weight=move_weight,
    )


def result_distances(t1: Tree, result: EditScriptResult) -> EditDistances:
    """(d, e) for a generator result, handling dummy-root wrapping."""
    return script_distances(t1, result.script, wrapped_dummy_id=result.dummy_t1_id)
