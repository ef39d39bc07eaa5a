"""Analytical running-time bounds from the paper (Appendix B).

* Algorithm Match:     ``n^2 c + m n``                (Formula 1, §5.2)
* Algorithm FastMatch: ``(n e + e^2) c + 2 l n e``    (Formula 2, §5.3)

where ``n`` is the total number of leaves in both trees, ``m`` the total
number of internal nodes, ``l`` the number of internal-node labels, ``e``
the weighted edit distance, and ``c`` the average cost of one leaf
``compare``. The Figure 13(b) benchmark evaluates these bounds against
measured comparison counts — the paper observes the FastMatch bound is
"loose" by roughly 20x.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tree import Tree


@dataclass(frozen=True)
class TreePairSizes:
    """Size parameters of a tree pair used by the bound formulas."""

    leaves: int  # n: total leaves in T1 and T2
    internals: int  # m: total internal nodes in T1 and T2
    internal_labels: int  # l: number of distinct internal-node labels


def tree_pair_sizes(t1: Tree, t2: Tree) -> TreePairSizes:
    """Measure (n, m, l) for a pair of trees."""
    arena1, arena2 = t1.to_arena(), t2.to_arena()
    leaves = len(arena1.leaf_positions) + len(arena2.leaf_positions)
    internals = (len(t1) + len(t2)) - leaves
    labels = set(arena1.internal_chains) | set(arena2.internal_chains)
    return TreePairSizes(
        leaves=leaves, internals=internals, internal_labels=len(labels)
    )


def match_bound(sizes: TreePairSizes, c: float = 1.0) -> float:
    """Formula 1: the Algorithm Match comparison bound ``n^2 c + m n``."""
    n, m = sizes.leaves, sizes.internals
    return n * n * c + m * n


def fastmatch_bound(sizes: TreePairSizes, e: float, c: float = 1.0) -> float:
    """Formula 2: the FastMatch comparison bound ``(ne + e^2) c + 2 l n e``."""
    n, l = sizes.leaves, sizes.internal_labels
    return (n * e + e * e) * c + 2 * l * n * e


def editscript_bound(total_nodes: int, misaligned: int) -> float:
    """Algorithm EditScript's ``O(N D)`` work bound (Section 4.3).

    ``total_nodes`` is ``N`` (nodes in both trees) and ``misaligned`` is
    ``D`` (intra-parent moves). The ``+ total_nodes`` term accounts for the
    constant per-node traversal work so the bound is non-zero for identical
    trees.
    """
    return float(total_nodes * max(misaligned, 0) + total_nodes)
