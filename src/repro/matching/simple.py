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

from typing import List, Optional, Tuple

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
    # any label schema.
    internals = [node for node in t1.preorder() if not node.is_leaf]
    internals.sort(key=_height)
    for x in internals:
        try_match(x)
    apply_root_policy(t1, t2, matching, context.config)
    return matching


def _height(node: Node) -> int:
    """Height of *node*'s subtree (leaves have height 0)."""
    best = 0
    stack: List[Tuple[Node, int]] = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if current.is_leaf:
            best = max(best, depth)
        else:
            stack.extend((child, depth + 1) for child in current.children)
    return best
