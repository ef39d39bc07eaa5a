"""Top-down repair pass for Criterion-3 violations (paper Section 8).

When Matching Criterion 3 fails (near-duplicate leaves), FastMatch may pair
a node with a "copy" far from its true counterpart. The paper's remedy:
proceeding top-down, for every matched pair ``(x, y)`` and every child ``c``
of ``x`` whose partner lives under some *other* parent, "we check if we can
match c to a child c'' of y such that compare(c, c'') <= f. If so, we change
the current matching to make c match c''."

Implementation notes:

* A candidate ``c''`` is stealable when it is unmatched **or** itself
  cross-matched (its partner's parent is not ``x``); re-anchoring then
  replaces at least one spurious move and never steals a straight match.
* A *fill* phase pairs remaining unmatched children of ``x`` with close
  unmatched children of ``y`` — this completes the swap when two duplicates
  were cross-matched (the steal leaves the other copy of each pair
  unmatched on both sides).
* The pass runs top-down and iterates to a small fixpoint (two rounds
  suffice: one steal round plus one fill round), since a steal at a node
  visited late can expose fill opportunities at a node visited earlier.
"""

from __future__ import annotations

from typing import Optional

from ..core.node import Node
from ..core.tree import Tree
from .criteria import CriteriaContext, MatchConfig, MatchingStats
from .matching import Matching

_MAX_ROUNDS = 2


def postprocess_matching(
    t1: Tree,
    t2: Tree,
    matching: Matching,
    config: Optional[MatchConfig] = None,
    stats: Optional[MatchingStats] = None,
    context: Optional[CriteriaContext] = None,
) -> int:
    """Repair *matching* in place; return the number of changed pairs.

    Passing the matcher's *context* (as the pipeline does) reuses its tree
    indexes instead of rebuilding them for the repair pass.
    """
    if context is None:
        context = CriteriaContext(t1, t2, config, stats)
    total = 0
    for _ in range(_MAX_ROUNDS):
        changed = _one_round(t1, t2, matching, context)
        total += changed
        if not changed:
            break
    return total


def _one_round(
    t1: Tree, t2: Tree, matching: Matching, context: CriteriaContext
) -> int:
    repairs = 0
    for x in t1.bfs():  # top-down
        y_id = matching.partner1(x.id)
        if y_id is None:
            continue
        y = t2.get(y_id)
        repairs += _reanchor_children(x, y, t1, t2, matching, context)
        repairs += _fill_unmatched_children(x, y, t1, matching, context)
    return repairs


def _reanchor_children(
    x: Node,
    y: Node,
    t1: Tree,
    t2: Tree,
    matching: Matching,
    context: CriteriaContext,
) -> int:
    """Re-match cross-matched children of x to close children of y."""
    repairs = 0
    for c in x.children:
        partner_id = matching.partner1(c.id)
        if partner_id is None:
            continue
        partner = t2.get(partner_id)
        if partner.parent is y:
            continue  # straight match, leave it alone
        candidate = _find_candidate(c, x, y, t1, matching, context)
        if candidate is None:
            continue
        matching.remove(c.id, partner_id)
        stolen_from = matching.partner2(candidate.id)
        if stolen_from is not None:
            matching.remove(stolen_from, candidate.id)
        matching.add(c.id, candidate.id)
        repairs += 1
    return repairs


def _find_candidate(
    c: Node,
    x: Node,
    y: Node,
    t1: Tree,
    matching: Matching,
    context: CriteriaContext,
) -> Optional[Node]:
    """A close child of y that is unmatched or itself cross-matched."""
    for candidate in y.children:
        back_id = matching.partner2(candidate.id)
        if back_id is not None:
            # Only unmatched or cross-matched candidates may be (re)used; a
            # straight match — one whose partner already sits under x — is
            # off-limits.
            back = t1.get(back_id)
            if back.parent is x:
                continue
        if _close_enough(c, candidate, matching, context):
            return candidate
    return None


def _fill_unmatched_children(
    x: Node,
    y: Node,
    t1: Tree,
    matching: Matching,
    context: CriteriaContext,
) -> int:
    """Pair unmatched children of x with close children of y.

    Candidates may be unmatched or cross-matched (same steal rule as the
    re-anchor phase): when a far duplicate currently holds the spot of a
    straight pair, straightening it trades a spurious move for nothing and
    can only shorten the script.
    """
    repairs = 0
    for c in x.children:
        if matching.has1(c.id):
            continue
        candidate = _find_candidate(c, x, y, t1, matching, context)
        if candidate is None:
            continue
        stolen_from = matching.partner2(candidate.id)
        if stolen_from is not None:
            matching.remove(stolen_from, candidate.id)
        matching.add(c.id, candidate.id)
        repairs += 1
    return repairs


def _close_enough(
    c: Node, candidate: Node, matching: Matching, context: CriteriaContext
) -> bool:
    if c.is_leaf and candidate.is_leaf:
        return context.leaves_equal(c, candidate)
    if not c.is_leaf and not candidate.is_leaf:
        return context.internals_equal(c, candidate, matching)
    return False
