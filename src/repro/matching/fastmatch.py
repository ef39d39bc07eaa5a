"""Algorithm *FastMatch* (paper Section 5.3, Figure 11).

FastMatch exploits the fact that two versions of a document are usually
nearly alike: for each label, the node chains of the two trees are first
aligned with one LCS pass (matching everything that appears in the same
order), and only the leftovers fall back to the quadratic pairing of
Algorithm Match. Leaf labels are processed first, then internal labels in
bottom-up (schema) order so Criterion 2 sees fully matched descendants.

Running time is ``O((ne + e^2) c + 2lne)`` (Appendix B), where ``e`` is the
weighted edit distance — far below Match's ``O(n^2 c + mn)`` when the trees
are similar (``e << n``).
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


def fast_match(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
    schema: Optional[LabelSchema] = None,
    stats: Optional[MatchingStats] = None,
    context: Optional[CriteriaContext] = None,
) -> Matching:
    """Run Algorithm FastMatch and return the resulting matching.

    Parameters
    ----------
    config:
        Thresholds ``f`` and ``t`` plus the compare registry.
    schema:
        Label order used to process internal labels bottom-up; inferred
        from the two trees when omitted.
    stats:
        Optional counter sink for the §8 instrumentation (``r1``/``r2``).
    context:
        A prebuilt :class:`CriteriaContext` (the pipeline shares one, with
        its tree indexes, across the match and postprocess stages). Label
        chains and label lists come from the context's indexes.
    """
    if context is None:
        context = CriteriaContext(t1, t2, config, stats)
    matching = Matching()
    if schema is None:
        schema = LabelSchema.infer([t1, t2])

    # chain_T(l) and the label lists were computed by the index pass from
    # arena arrays; the leaf/internal split happens positionally (one
    # first_child test per chain entry).
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
            matching,
            context,
            leaf=True,
        )
    for label in internal_labels:
        _match_label(
            label,
            index1.internal_chain(label),
            index2.internal_chain(label),
            matching,
            context,
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

    # 2e. Pair remaining unmatched nodes as in Algorithm Match.
    leftovers2 = [y for y in s2 if not matching.has2(y.id)]
    if not leftovers2:
        return
    for x in s1:
        if matching.has1(x.id):
            continue
        for y in leftovers2:
            if matching.has2(y.id):
                continue
            if equal(x, y):
                matching.add(x.id, y.id)
                break


