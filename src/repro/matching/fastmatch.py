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

from typing import List, Optional

from ..core.node import Node
from ..core.tree import Tree
from ..lcs.myers import myers_lcs
from .chains import ordered_label_union
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
        A prebuilt :class:`CriteriaContext` (the pipeline shares one, with
        its tree indexes, across the match and postprocess stages). Label
        chains and label lists come from the context's indexes.
    k:
        Window of the leftover pass in chain positions (A(k), §9): ``0``
        stops after the LCS pass, ``None`` leaves the pass unbounded.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0 or None, got {k}")
    if context is None:
        context = CriteriaContext(t1, t2, config, stats)
    matching = Matching()

    # chain_T(l) and the label lists were computed by the index pass from
    # arena arrays; the leaf/internal split happens positionally (one
    # first_child test per chain entry).
    index1, index2 = context.index1, context.index2
    leaf_labels = ordered_label_union(index1.leaf_labels(), index2.leaf_labels())
    # Internal labels bottom-up; the stable sort keeps first-seen order
    # within a rank (labels of one merged cycle).
    ranks = infer_label_ranks((t1, t2))
    internal_labels = sorted(
        ordered_label_union(index1.internal_labels(), index2.internal_labels()),
        key=ranks.__getitem__,
    )
    for label in leaf_labels:
        _match_label(
            label,
            index1.leaf_chain(label),
            index2.leaf_chain(label),
            matching,
            context,
            k,
            leaf=True,
        )
    for label in internal_labels:
        _match_label(
            label,
            index1.internal_chain(label),
            index2.internal_chain(label),
            matching,
            context,
            k,
            leaf=False,
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
    """Steps 2a-2e of Figure 11 for one label chain."""
    if not s1 or not s2:
        return

    if leaf:
        equal = lambda x, y: context.leaves_equal(x, y)  # noqa: E731
    else:
        equal = lambda x, y: context.internals_equal(x, y, matching)  # noqa: E731

    # 2c. One LCS pass matches everything that kept its relative order.
    context.stats.lcs_calls += 1
    for x, y in myers_lcs(s1, s2, equal):
        matching.add(x.id, y.id)

    if k == 0:
        return

    # 2e. Pair remaining unmatched nodes as in Algorithm Match; under A(k)
    # only candidates whose chain rank lies within k of x's are tried.
    leftovers2 = [y for y in s2 if not matching.has2(y.id)]
    if not leftovers2:
        return
    rank2 = None if k is None else {y.id: rank for rank, y in enumerate(s2)}
    for rank1, x in enumerate(s1):
        if matching.has1(x.id):
            continue
        for y in leftovers2:
            if matching.has2(y.id):
                continue
            if rank2 is not None and abs(rank2[y.id] - rank1) > k:
                continue
            if equal(x, y):
                matching.add(x.id, y.id)
                break


