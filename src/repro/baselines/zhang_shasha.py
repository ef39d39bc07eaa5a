"""The Zhang–Shasha tree edit distance [ZS89] — the paper's comparator.

"The general problem of finding the minimum cost edit distance between
ordered trees has been studied in [ZS89] ... The algorithm in [ZS89] runs in
time O(n^2 log^2 n) for balanced trees (even higher for unbalanced trees)."
(Section 2.) The paper positions its own algorithm as the fast,
domain-assuming alternative; this module provides the thorough baseline so
the benchmarks can reproduce that comparison.

The edit model here is [ZS89]'s: *relabel*, *insert*, and *delete* of single
nodes, where deleting an interior node promotes its children — different
from (but state-equivalent to) the paper's leaf-insert/leaf-delete/move
model. Every operation costs 1; a relabel is free when the two nodes agree
on both label and value.

Implementation: the classic keyroot dynamic program, O(n1*n2*min(d1,l1)*
min(d2,l2)) time, returning the distance only.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..core.tree import Tree


def _annotate(tree: Tree) -> Tuple[List[Tuple[Any, Any]], List[int], List[int]]:
    """Postorder ``(label, value)`` keys, leftmost-leaf indexes, LR keyroots.

    A keyroot is the root or a node with a left sibling, by postorder index.
    """
    if tree.root is None:
        return [], [], []
    nodes = list(tree.root.postorder())
    index_of = {id(node): i for i, node in enumerate(nodes)}
    keys = []
    lmds: List[int] = []
    keyroots = []
    for i, node in enumerate(nodes):
        keys.append((node.label, node.value))
        children = node.children
        # Children precede their parent in postorder.
        lmds.append(lmds[index_of[id(children[0])]] if children else i)
        parent = node.parent
        if parent is None or parent.children[0] is not node:
            keyroots.append(i)
    return keys, lmds, keyroots


def zhang_shasha_distance(t1: Tree, t2: Tree) -> float:
    """Minimum unit-cost [ZS89] edit distance between two ordered trees."""
    keys1, lmds1, keyroots1 = _annotate(t1)
    keys2, lmds2, keyroots2 = _annotate(t2)
    n1, n2 = len(keys1), len(keys2)
    if n1 == 0 or n2 == 0:
        return float(n1 + n2)
    treedists = [[0.0] * n2 for _ in range(n1)]
    for i in keyroots1:
        for j in keyroots2:
            _treedist(i, j, keys1, lmds1, keys2, lmds2, treedists)
    return treedists[n1 - 1][n2 - 1]


def _treedist(
    i: int,
    j: int,
    keys1: List[Tuple[Any, Any]],
    lmds1: List[int],
    keys2: List[Tuple[Any, Any]],
    lmds2: List[int],
    treedists: List[List[float]],
) -> None:
    """Fill ``treedists`` for the subtree pairs under keyroots (i, j).

    ``fd`` is the forest-distance table over the postorder ranges
    ``[lmd(i), i]`` × ``[lmd(j), j]``, offset so row/column 0 is the empty
    forest.
    """
    il = lmds1[i]
    jl = lmds2[j]
    ioff = il - 1
    joff = jl - 1
    fd = [[float(x)] + [0.0] * (j - jl + 1) for x in range(i - il + 2)]
    fd[0] = [float(y) for y in range(j - jl + 2)]
    columns = range(1, j - jl + 2)

    for x in range(1, i - il + 2):
        xi = x + ioff
        prev = fd[x - 1]
        row = fd[x]
        tdrow = treedists[xi]
        lx = lmds1[xi]
        key = keys1[xi]
        forest = fd[lx - 1 - ioff]
        for y in columns:
            yj = y + joff
            ly = lmds2[yj]
            best = min(prev[y], row[y - 1]) + 1.0
            if lx == il and ly == jl:
                # Both prefixes are whole trees: delete, insert or relabel.
                pair = prev[y - 1] + (0.0 if key == keys2[yj] else 1.0)
                if pair < best:
                    best = pair
                tdrow[yj] = best
            else:
                # General forests: splice in the stored subtree solution.
                pair = forest[ly - 1 - joff] + tdrow[yj]
                if pair < best:
                    best = pair
            row[y] = best
