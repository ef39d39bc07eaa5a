"""Delta-tree correctness checking (paper §6).

The paper defines a *correct* delta tree as one whose annotations can be
read off (in some order) as an edit script that transforms ``T1`` to
``T2``. This module provides the executable version of that definition,
verifying against both endpoints:

* the **mirror** (every non-tombstone node, in order) is isomorphic to
  ``T2``;
* annotation bookkeeping is internally consistent (MOV/MRK keys pair up
  bijectively, UPD/MOV old values differ from the new ones, DEL subtrees
  contain only DEL nodes);
* the **old-tree reading** of the delta — IDN/UPD/DEL/MRK nodes with
  tombstones restored and updates reverted — reproduces ``T1``'s content
  *as a multiset of (label, value) leaves* (positions of tombstones are
  heuristic; see the builder).

``check_delta_tree`` returns a list of problem strings (empty = correct);
``assert_delta_tree`` raises on the first problem.
"""

from __future__ import annotations

from typing import Counter as CounterType, List, Optional, Tuple
from collections import Counter

from ..core.node import Node
from ..core.tree import Tree
from .annotations import Del, Ins, Mov, Mrk, Upd
from .builder import DeltaNode, DeltaTree


def check_delta_tree(
    delta: DeltaTree,
    t1: Optional[Tree] = None,
    t2: Optional[Tree] = None,
) -> List[str]:
    """Validate *delta*; optionally against its source trees."""
    problems: List[str] = []
    _check_internal_consistency(delta, problems)
    if t2 is not None:
        _check_mirror_matches_t2(delta, t2, problems)
    if t1 is not None:
        _check_old_reading_matches_t1(delta, t1, problems)
    return problems


def assert_delta_tree(
    delta: DeltaTree,
    t1: Optional[Tree] = None,
    t2: Optional[Tree] = None,
) -> None:
    """Raise ``AssertionError`` with the first problem found, if any."""
    problems = check_delta_tree(delta, t1, t2)
    if problems:
        raise AssertionError("; ".join(problems))


# ---------------------------------------------------------------------------
def _check_internal_consistency(delta: DeltaTree, problems: List[str]) -> None:
    movs = delta.moves()
    mrks = delta.markers()
    if set(movs) != set(mrks):
        missing = set(movs) ^ set(mrks)
        problems.append(f"unpaired move markers: {sorted(missing)}")
    for node in delta.preorder():
        annotation = node.annotation
        if isinstance(annotation, Upd) and annotation.old_value == node.value:
            problems.append(
                f"UPD on {node.label} changes nothing ({node.value!r})"
            )
        if isinstance(annotation, Del):
            for child in node.children:
                if not isinstance(child.annotation, (Del, Mrk)):
                    problems.append(
                        f"DEL subtree at {node.label} contains live child "
                        f"{child.label} [{child.tag}]"
                    )
        if isinstance(annotation, Ins) and node.t1_id is not None:
            problems.append(
                f"INS node {node.label} claims an old-tree identity"
            )
        if isinstance(annotation, (Del, Mrk)) and node.t2_id is not None:
            problems.append(
                f"tombstone {node.label} [{node.tag}] claims a new-tree identity"
            )


def _check_mirror_matches_t2(
    delta: DeltaTree, t2: Tree, problems: List[str]
) -> None:
    """Compare the delta's live mirror against ``t2`` in preorder.

    An explicit stack keeps deep chains off the interpreter stack; the
    walk stops at the first mismatch.
    """
    if t2.root is None:
        problems.append("t2 is empty but delta has a root")
        return
    stack: List[Tuple[DeltaNode, Node, str]] = [
        (delta.root, t2.root, delta.root.label)
    ]
    while stack:
        delta_node, t2_node, path = stack.pop()
        if delta_node.label != t2_node.label:
            problems.append(
                f"mirror label mismatch at {path}: "
                f"{delta_node.label!r} vs {t2_node.label!r}"
            )
            return
        if delta_node.value != t2_node.value:
            problems.append(
                f"mirror value mismatch at {path}: "
                f"{delta_node.value!r} vs {t2_node.value!r}"
            )
            return
        live = [
            child
            for child in delta_node.children
            if not isinstance(child.annotation, (Del, Mrk))
        ]
        if len(live) != len(t2_node.children):
            problems.append(
                f"mirror child count mismatch at {path}: "
                f"{len(live)} vs {len(t2_node.children)}"
            )
            return
        stack.extend(
            (a, b, f"{path}/{a.label}")
            for a, b in zip(reversed(live), reversed(t2_node.children))
        )


def _check_old_reading_matches_t1(
    delta: DeltaTree, t1: Tree, problems: List[str]
) -> None:
    """The delta must account for every old leaf exactly once.

    Old leaves surface as: IDN leaves (unchanged), UPD leaves (old value),
    DEL leaves (tombstones), MRK leaves (move sources), and MOV+update
    leaves whose pre-move value is recorded on the annotation. Leaf
    *positions* of tombstones are presentation-level, so the check compares
    multisets of (label, value).
    """
    expected: CounterType = Counter(
        (leaf.label, leaf.value) for leaf in t1.leaves()
    )
    actual: CounterType = Counter()
    for node in delta.preorder():
        if node.t1_id is None or node.t1_id not in t1:
            continue
        if not t1.get(node.t1_id).is_leaf:
            continue  # old-tree internals carry no leaf content
        annotation = node.annotation
        if isinstance(annotation, Upd):
            actual[(node.label, annotation.old_value)] += 1
        elif isinstance(annotation, Mov):
            # the paired MRK (same t1 node) carries the old value; counting
            # here too would double it
            continue
        else:  # Idn, Del, Mrk all show the old value directly
            actual[(node.label, node.value)] += 1
    if expected != actual:
        missing = expected - actual
        extra = actual - expected
        if missing:
            problems.append(f"old leaves unaccounted for: {_preview(missing)}")
        if extra:
            problems.append(f"phantom old leaves: {_preview(extra)}")


def _preview(counter: CounterType, limit: int = 3) -> str:
    items = list(counter.items())[:limit]
    return ", ".join(f"{key!r} x{count}" for key, count in items)
