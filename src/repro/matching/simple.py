"""Algorithm *Match* (paper Section 5.2, Figure 10).

The straightforward quadratic matcher: every node of ``T1`` is compared, in
bottom-up order, against every still-unmatched node of ``T2`` with the same
label, using the Criterion 1 predicate for leaves and the Criterion 2
predicate for internal nodes. Leaves are matched before any internal node so
that ``common(x, y)`` is fully populated when internal nodes are examined
(Example 5.1 matches all sentences, then paragraphs, then the document).

Running time is ``O(n^2 c + mn)`` (Appendix B): ``n`` leaves compared
pairwise at cost ``c`` each, plus subtree intersections for the ``m``
internal nodes.
"""

from __future__ import annotations

from typing import Optional

from ..core.node import Node
from ..core.tree import Tree
from .criteria import CriteriaContext, MatchConfig, MatchingStats, apply_root_policy
from .matching import Matching


def match(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
    stats: Optional[MatchingStats] = None,
    context: Optional[CriteriaContext] = None,
) -> Matching:
    """Run Algorithm Match and return the resulting (maximal) matching.

    A prebuilt *context* (the pipeline's) shares its tree indexes; the
    T2 index's label chains are the candidate buckets.
    """
    if context is None:
        context = CriteriaContext(t1, t2, config, stats)
    matching = Matching()

    # T2 candidates bucketed by label, in document order.
    candidates = context.index2.chains()
    matched2: set = set()

    def try_match(x: Node) -> None:
        for y in candidates.get(x.label, ()):
            if y.id in matched2:
                continue
            if x.is_leaf != y.is_leaf:
                continue
            if context.nodes_equal(x, y, matching):
                matching.add(x.id, y.id)
                matched2.add(y.id)
                return

    # Pass 1: all leaves of T1 in document order.
    for x in t1.leaves():
        try_match(x)
    # Pass 2: internal nodes bottom-up. Sorting by subtree height guarantees
    # every descendant is considered before its ancestors, independent of
    # any label schema. Heights come from one pass over the T1 arena, high
    # positions first, so every child is final before its parent reads it.
    parent = context.index1.arena.parent
    heights = [0] * len(parent)
    for pos in range(len(parent) - 1, 0, -1):
        above = heights[pos] + 1
        if heights[parent[pos]] < above:
            heights[parent[pos]] = above
    nodes = list(t1.preorder())
    internals = [pos for pos, height in enumerate(heights) if height]
    internals.sort(key=heights.__getitem__)
    for pos in internals:
        try_match(nodes[pos])
    apply_root_policy(t1, t2, matching, context.config)
    return matching
