"""The parameterized matcher A(k) (paper §9 future work).

"Further studying the tradeoff between optimality and efficiency to produce
a parameterized algorithm A(k) where the parameter k specifies the desired
level of optimality."

This module realizes that plan. ``A(k)`` runs FastMatch's LCS sweep per
label chain (cheap, order-respecting), but bounds the quadratic fallback for
leftovers: an unmatched node is only compared against unmatched candidates
within a window of ``k`` chain positions around its own rank. The knob
interpolates between the extremes:

* ``k = 0`` — LCS only: linear-ish, misses anything that changed relative
  order (moves surface as delete + insert);
* small ``k`` — local moves are found, long-distance moves are not;
  fallback cost is ``O(n k)``;
* ``k = None`` (unbounded) — identical to Algorithm FastMatch.

Whatever k, the resulting matching is *correct* input for Algorithm
EditScript — only the script's optimality (cost) degrades, mirroring the
paper's efficiency/optimality trade.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.node import Node
from ..core.tree import Tree
from ..lcs.myers import myers_lcs
from .chains import ordered_label_union
from .criteria import CriteriaContext, MatchConfig, MatchingStats, apply_root_policy
from .matching import Matching
from .schema import LabelSchema


def parameterized_match(
    t1: Tree,
    t2: Tree,
    k: Optional[int] = None,
    config: Optional[MatchConfig] = None,
    schema: Optional[LabelSchema] = None,
    stats: Optional[MatchingStats] = None,
) -> Matching:
    """Run A(k): FastMatch with a fallback window of *k* chain positions.

    ``k=None`` gives exactly FastMatch; ``k=0`` disables the fallback.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0 or None, got {k}")
    context = CriteriaContext(t1, t2, config, stats)
    matching = Matching()
    if schema is None:
        schema = LabelSchema.infer([t1, t2])

    index1, index2 = context.index1, context.index2
    leaf_labels = ordered_label_union(index1.leaf_labels(), index2.leaf_labels())
    internal_labels = schema.sort_labels(
        ordered_label_union(index1.internal_labels(), index2.internal_labels())
    )

    for label in leaf_labels:
        _match_label(
            label,
            index1.leaf_chain(label),
            index2.leaf_chain(label),
            matching, context, k, leaf=True,
        )
    for label in internal_labels:
        _match_label(
            label,
            index1.internal_chain(label),
            index2.internal_chain(label),
            matching, context, k, leaf=False,
        )
    apply_root_policy(t1, t2, matching, context.config)
    return matching


def _match_label(
    label: str,
    s1: List[Node],
    s2: List[Node],
    matching: Matching,
    context: CriteriaContext,
    k: Optional[int],
    leaf: bool,
) -> None:
    if not s1 or not s2:
        return
    if leaf:
        equal = lambda x, y: context.leaves_equal(x, y)  # noqa: E731
    else:
        equal = lambda x, y: context.internals_equal(x, y, matching)  # noqa: E731

    context.stats.lcs_calls += 1
    for x, y in myers_lcs(s1, s2, equal):
        matching.add(x.id, y.id)

    if k == 0:
        return

    # Bounded fallback: each leftover in s1 scans candidates whose chain
    # rank lies within +-k of its own (all leftovers when k is None).
    rank2 = {id(node): index for index, node in enumerate(s2)}
    leftovers2 = [y for y in s2 if not matching.has2(y.id)]
    if not leftovers2:
        return
    for index1, x in enumerate(s1):
        if matching.has1(x.id):
            continue
        for y in leftovers2:
            if matching.has2(y.id):
                continue
            if k is not None and abs(rank2[id(y)] - index1) > k:
                continue
            if equal(x, y):
                matching.add(x.id, y.id)
                break


