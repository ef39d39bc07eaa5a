"""Algorithm *FastMatch* (paper Section 5.3, Figure 11).

FastMatch exploits the fact that two versions of a document are usually
nearly alike: for each label, the node chains of the two trees are first
aligned with one LCS pass (matching everything that appears in the same
order), and only the leftovers fall back to the quadratic pairing of
Algorithm Match. Leaf labels are processed first, then internal labels in
bottom-up (inferred label) order so Criterion 2 sees fully matched descendants.

Running time is ``O((ne + e^2) c + 2lne)`` (Appendix B), where ``e`` is the
weighted edit distance — far below Match's ``O(n^2 c + mn)`` when the trees
are similar (``e << n``).

The optional ``k`` realizes the parameterized matcher A(k) that the paper
leaves as future work (§9): "a parameterized algorithm A(k) where the
parameter k specifies the desired level of optimality". It bounds the
quadratic leftover pass to candidates within ``k`` chain positions of the
node's own rank:

* ``k = 0`` — LCS only: moves that changed relative order surface as
  delete + insert;
* small ``k`` — local moves are found, long-distance ones are not; the
  leftover pass costs ``O(n k)``;
* ``k = None`` (the default) — Algorithm FastMatch, unbounded.

Whatever ``k``, the matching is correct input for Algorithm EditScript;
only the script's optimality (cost) degrades.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Sequence

from ..core.tree import Tree
from ..lcs.myers import myers_lcs_indices
from .criteria import CriteriaContext, MatchConfig, MatchingStats, apply_root_policy
from .matching import Matching
from .schema import infer_label_ranks


def fast_match(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
    stats: Optional[MatchingStats] = None,
    context: Optional[CriteriaContext] = None,
    k: Optional[int] = None,
) -> Matching:
    """Run Algorithm FastMatch and return the resulting matching.

    Parameters
    ----------
    config:
        Thresholds ``f`` and ``t`` plus the compare registry.
    stats:
        Optional counter sink for the §8 instrumentation (``r1``/``r2``).
    context:
        A prebuilt :class:`CriteriaContext` (the pipeline shares one
        across the match and postprocess stages). Label chains and label
        lists come from the context's arena snapshots.
    k:
        Window of the leftover pass in chain positions (A(k), §9): ``0``
        stops after the LCS pass, ``None`` leaves the pass unbounded.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0 or None, got {k}")
    if context is None:
        context = CriteriaContext(t1, t2, config, stats)
    matching = Matching()

    # chain_T(l) comes from each arena's tables, keyed by label in
    # first-seen order, leaf and internal chains apart. Labels run in
    # first-seen order of T1, then T2.
    arena1, arena2 = context.arena1, context.arena2
    stats = context.stats
    leaf_labels = dict.fromkeys([*arena1.leaf_chains, *arena2.leaf_chains])
    # Internal labels bottom-up; the stable sort keeps first-seen order
    # within a rank (labels of one merged cycle).
    ranks = infer_label_ranks((t1, t2))
    internal_labels = sorted(
        dict.fromkeys([*arena1.internal_chains, *arena2.internal_chains]),
        key=ranks.__getitem__,
    )
    # Leaves are compared on their arena values: Criterion 1 needs nothing
    # else, and every leaf of a chain has the chain's label.
    for label in leaf_labels:
        chain1 = arena1.leaf_chains.get(label, ())
        chain2 = arena2.leaf_chains.get(label, ())
        _match_label(
            [arena1.value_of(pos) for pos in chain1],
            [arena2.value_of(pos) for pos in chain2],
            [arena1.node_ids[pos] for pos in chain1],
            [arena2.node_ids[pos] for pos in chain2],
            partial(context.leaf_values_equal, label),
            matching,
            stats,
            k,
        )
    # Internal nodes are bound to their Node objects, once per chain.
    nodes1, nodes2 = t1.arena_nodes(), t2.arena_nodes()
    for label in internal_labels:
        s1 = [nodes1[pos] for pos in arena1.internal_chains.get(label, ())]
        s2 = [nodes2[pos] for pos in arena2.internal_chains.get(label, ())]
        _match_label(
            s1,
            s2,
            [x.id for x in s1],
            [y.id for y in s2],
            partial(context.internals_equal, matching=matching),
            matching,
            stats,
            k,
        )
    apply_root_policy(t1, t2, matching, context.config)
    return matching


def _match_label(
    s1: Sequence[Any],
    s2: Sequence[Any],
    ids1: List[Any],
    ids2: List[Any],
    equal: Callable[[Any, Any], bool],
    matching: Matching,
    stats: MatchingStats,
    k: Optional[int],
) -> None:
    """Steps 2a-2e of Figure 11 for one label chain.

    ``s1``/``s2`` are what *equal* compares (leaf values or internal
    nodes); ``ids1``/``ids2`` are the node ids at the same chain ranks.
    """
    if not s1 or not s2:
        return

    # 2c. One LCS pass matches everything that kept its relative order.
    stats.lcs_calls += 1
    for i, j in myers_lcs_indices(s1, s2, equal):
        matching.add(ids1[i], ids2[j])

    if k == 0:
        return

    # 2e. Pair remaining unmatched nodes as in Algorithm Match; under A(k)
    # only candidates whose chain rank lies within k of x's are tried.
    leftovers2 = [j for j, y_id in enumerate(ids2) if not matching.has2(y_id)]
    if not leftovers2:
        return
    for i, x in enumerate(s1):
        if matching.has1(ids1[i]):
            continue
        for j in leftovers2:
            if matching.has2(ids2[j]):
                continue
            if k is not None and abs(j - i) > k:
                continue
            if equal(x, s2[j]):
                matching.add(ids1[i], ids2[j])
                break
