"""Upper bound on mismatched internal nodes (paper Table 1).

Section 8: FastMatch is optimal only under Matching Criterion 3; when the
criterion fails, nodes may be *mismatched*. Exhaustively deciding which
nodes actually mismatch is expensive, so the paper instead measures "a
necessary (but not sufficient) condition for propagation": "in order to be
mismatched, a node must have more than a certain number of children that
violate Matching Criterion 3, where the exact number depends on the match
threshold t."

The condition implemented here: let ``x`` be an internal node with ``|x|``
leaf descendants, of which ``v`` are *ambiguous* (they violate Criterion 3,
i.e. have two or more close counterparts). For ``x`` to miss or mis-take a
partner, the misdirected common mass must exceed the ``t``-margin, which
requires::

    v > (1 - t) * |x|

Higher ``t`` lowers the bar, so the flagged percentage grows with ``t`` —
the monotone shape of Table 1 (at ``t = 1`` any node with a single ambiguous
leaf is flagged; at ``t = 1/2`` more than half its leaves must be).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..core.tree import Tree
from ..matching.criteria import MatchConfig, criterion3_violations


@dataclass
class MismatchEstimate:
    """Flagged-node statistics for one threshold ``t``."""

    t: float
    flagged: int
    total: int

    @property
    def percent(self) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.flagged / self.total


def ambiguous_leaves(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
) -> Set:
    """Ids of T1 leaves violating Criterion 3 (>= 2 close counterparts)."""
    return {x.id for x, _ in criterion3_violations(t1, t2, config)}


def mismatch_upper_bound(
    t1: Tree,
    t2: Tree,
    thresholds: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    label: str = "P",
    config: Optional[MatchConfig] = None,
) -> List[MismatchEstimate]:
    """Table 1: % of *label* nodes flagged by the necessary condition.

    For each threshold ``t``, a node is flagged when its count of ambiguous
    leaf descendants ``v`` satisfies ``v > (1 - t) * |x|``. Because the
    condition is weak, the true mismatch rate is "expected to be much lower
    than suggested by these numbers" — it is an upper bound.
    """
    ambiguous = ambiguous_leaves(t1, t2, config)
    nodes: List[Tuple[int, int]] = []  # (leaf count, ambiguous count)
    for node in t1.preorder():
        if node.label != label or node.is_leaf:
            continue
        leaf_total = 0
        leaf_ambiguous = 0
        for leaf in node.leaves():
            leaf_total += 1
            if leaf.id in ambiguous:
                leaf_ambiguous += 1
        nodes.append((leaf_total, leaf_ambiguous))
    estimates: List[MismatchEstimate] = []
    for t in thresholds:
        flagged = sum(
            1
            for leaf_total, leaf_ambiguous in nodes
            if leaf_total > 0 and leaf_ambiguous > (1.0 - t) * leaf_total
        )
        estimates.append(MismatchEstimate(t=t, flagged=flagged, total=len(nodes)))
    return estimates
