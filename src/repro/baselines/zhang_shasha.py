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
model. Unit costs by default; all three costs are pluggable.

Implementation: the classic keyroot dynamic program, O(n1*n2*min(d1,l1)*
min(d2,l2)) time, with optional reconstruction of the operation sequence
and the node mapping it implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.node import Node
from ..core.tree import Tree

#: Cost of relabeling node a into node b (0 when identical).
RelabelCost = Callable[[Node, Node], float]
NodeCost = Callable[[Node], float]


def _default_relabel(a: Node, b: Node) -> float:
    return 0.0 if (a.label == b.label and a.value == b.value) else 1.0


def _unit(_: Node) -> float:
    return 1.0


@dataclass(frozen=True)
class ZsOperation:
    """One [ZS89] edit operation from the reconstructed sequence.

    ``kind`` is ``"match"`` (cost 0), ``"relabel"``, ``"delete"`` (from the
    old tree), or ``"insert"`` (into the new tree). ``old``/``new`` reference
    the involved nodes (``None`` where not applicable).
    """

    kind: str
    old: Optional[Node]
    new: Optional[Node]

    def __str__(self) -> str:
        if self.kind == "delete":
            return f"ZS-DEL({self.old.id})"
        if self.kind == "insert":
            return f"ZS-INS({self.new.id})"
        if self.kind == "relabel":
            return f"ZS-REL({self.old.id} -> {self.new.id})"
        return f"ZS-MATCH({self.old.id} ~ {self.new.id})"


class _AnnotatedTree:
    """Postorder numbering, leftmost-leaf descendants, and LR keyroots."""

    def __init__(self, tree: Tree) -> None:
        if tree.root is None:
            self.nodes: List[Node] = []
            self.lmds: List[int] = []
            self.keyroots: List[int] = []
            return
        self.nodes = list(tree.root.postorder())
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        self.lmds = []
        for node in self.nodes:
            current = node
            while current.children:
                current = current.children[0]
            self.lmds.append(index_of[id(current)])
        # Keyroots: nodes that are not the leftmost child of their parent
        # (i.e. have a left sibling) plus the root, by postorder index.
        keyroots = []
        for i, node in enumerate(self.nodes):
            parent = node.parent
            if parent is None or parent.children[0] is not node:
                keyroots.append(i)
        self.keyroots = keyroots

    def __len__(self) -> int:
        return len(self.nodes)


def zhang_shasha_distance(
    t1: Tree,
    t2: Tree,
    relabel_cost: RelabelCost = _default_relabel,
    insert_cost: NodeCost = _unit,
    delete_cost: NodeCost = _unit,
) -> float:
    """Minimum [ZS89] edit distance between two ordered trees."""
    distance, _ = _zhang_shasha(
        t1, t2, relabel_cost, insert_cost, delete_cost, want_operations=False
    )
    return distance


def zhang_shasha_operations(
    t1: Tree,
    t2: Tree,
    relabel_cost: RelabelCost = _default_relabel,
    insert_cost: NodeCost = _unit,
    delete_cost: NodeCost = _unit,
) -> Tuple[float, List[ZsOperation]]:
    """Distance plus one optimal operation sequence realizing it."""
    return _zhang_shasha(
        t1, t2, relabel_cost, insert_cost, delete_cost, want_operations=True
    )


def zhang_shasha_mapping(
    t1: Tree,
    t2: Tree,
    relabel_cost: RelabelCost = _default_relabel,
) -> List[Tuple[Node, Node]]:
    """The optimal node mapping (matched + relabeled pairs)."""
    _, operations = zhang_shasha_operations(t1, t2, relabel_cost)
    return [
        (op.old, op.new)
        for op in operations
        if op.kind in ("match", "relabel")
    ]


def _zhang_shasha(
    t1: Tree,
    t2: Tree,
    relabel_cost: RelabelCost,
    insert_cost: NodeCost,
    delete_cost: NodeCost,
    want_operations: bool,
) -> Tuple[float, List[ZsOperation]]:
    a1 = _AnnotatedTree(t1)
    a2 = _AnnotatedTree(t2)
    n1, n2 = len(a1), len(a2)
    if n1 == 0 or n2 == 0:
        ops: List[ZsOperation] = []
        total = 0.0
        for node in a1.nodes:
            total += delete_cost(node)
            ops.append(ZsOperation("delete", node, None))
        for node in a2.nodes:
            total += insert_cost(node)
            ops.append(ZsOperation("insert", None, node))
        return total, (ops if want_operations else [])

    treedists = [[0.0] * n2 for _ in range(n1)]
    operations: List[List[List[ZsOperation]]] = (
        [[[] for _ in range(n2)] for _ in range(n1)] if want_operations else []
    )

    for i in a1.keyroots:
        for j in a2.keyroots:
            _treedist(
                i, j, a1, a2, treedists, operations,
                relabel_cost, insert_cost, delete_cost, want_operations,
            )

    distance = treedists[n1 - 1][n2 - 1]
    ops = operations[n1 - 1][n2 - 1] if want_operations else []
    return distance, ops


def _treedist(
    i: int,
    j: int,
    a1: _AnnotatedTree,
    a2: _AnnotatedTree,
    treedists: List[List[float]],
    operations: List[List[List[ZsOperation]]],
    relabel_cost: RelabelCost,
    insert_cost: NodeCost,
    delete_cost: NodeCost,
    want_operations: bool,
) -> None:
    """Fill treedists[i][j] (and the op table) for keyroot pair (i, j)."""
    il = a1.lmds[i]
    jl = a2.lmds[j]
    m = i - il + 2
    n = j - jl + 2

    fd = [[0.0] * n for _ in range(m)]
    fd_ops: List[List[List[ZsOperation]]] = (
        [[[] for _ in range(n)] for _ in range(m)] if want_operations else []
    )
    ioff = il - 1
    joff = jl - 1

    for x in range(1, m):
        node = a1.nodes[x + ioff]
        fd[x][0] = fd[x - 1][0] + delete_cost(node)
        if want_operations:
            fd_ops[x][0] = fd_ops[x - 1][0] + [ZsOperation("delete", node, None)]
    for y in range(1, n):
        node = a2.nodes[y + joff]
        fd[0][y] = fd[0][y - 1] + insert_cost(node)
        if want_operations:
            fd_ops[0][y] = fd_ops[0][y - 1] + [ZsOperation("insert", None, node)]

    for x in range(1, m):
        node1 = a1.nodes[x + ioff]
        for y in range(1, n):
            node2 = a2.nodes[y + joff]
            if a1.lmds[i] == a1.lmds[x + ioff] and a2.lmds[j] == a2.lmds[y + joff]:
                # Both prefixes are whole trees: the classic 3-way minimum.
                cost_rel = relabel_cost(node1, node2)
                candidates = (
                    fd[x - 1][y] + delete_cost(node1),
                    fd[x][y - 1] + insert_cost(node2),
                    fd[x - 1][y - 1] + cost_rel,
                )
                best = min(candidates)
                fd[x][y] = best
                treedists[x + ioff][y + joff] = best
                if want_operations:
                    if best == candidates[2]:
                        kind = "match" if cost_rel == 0 else "relabel"
                        fd_ops[x][y] = fd_ops[x - 1][y - 1] + [
                            ZsOperation(kind, node1, node2)
                        ]
                    elif best == candidates[0]:
                        fd_ops[x][y] = fd_ops[x - 1][y] + [
                            ZsOperation("delete", node1, None)
                        ]
                    else:
                        fd_ops[x][y] = fd_ops[x][y - 1] + [
                            ZsOperation("insert", None, node2)
                        ]
                    operations[x + ioff][y + joff] = fd_ops[x][y]
            else:
                # General forests: splice in the stored subtree solution.
                p = a1.lmds[x + ioff] - 1 - ioff
                q = a2.lmds[y + joff] - 1 - joff
                candidates = (
                    fd[x - 1][y] + delete_cost(node1),
                    fd[x][y - 1] + insert_cost(node2),
                    fd[p][q] + treedists[x + ioff][y + joff],
                )
                best = min(candidates)
                fd[x][y] = best
                if want_operations:
                    if best == candidates[2]:
                        fd_ops[x][y] = (
                            fd_ops[p][q] + operations[x + ioff][y + joff]
                        )
                    elif best == candidates[0]:
                        fd_ops[x][y] = fd_ops[x - 1][y] + [
                            ZsOperation("delete", node1, None)
                        ]
                    else:
                        fd_ops[x][y] = fd_ops[x][y - 1] + [
                            ZsOperation("insert", None, node2)
                        ]
