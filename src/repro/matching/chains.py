"""Label-list helper shared by FastMatch and A(k).

``chain_T(l)`` (paper §5.3): "all nodes with a given label l in tree T are
chained together from left to right". Both matchers read those chains, and
each tree's label lists, from its :class:`~repro.core.index.TreeIndex`;
the helper here merges two label lists while preserving first-seen order.
"""

from __future__ import annotations

from typing import Dict, List


def ordered_label_union(first: List[str], second: List[str]) -> List[str]:
    """Union of two label lists preserving first-seen order."""
    seen: Dict[str, None] = {}
    for label in first:
        seen.setdefault(label, None)
    for label in second:
        seen.setdefault(label, None)
    return list(seen)
