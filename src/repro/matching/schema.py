"""Label schemas and the acyclic-labels condition (Section 5.1).

Many structuring schemas satisfy an *acyclic labels* condition: there is an
ordering ``<`` on labels such that a node labeled ``l1`` appears as a
descendant of a node labeled ``l2`` only if ``l1 < l2`` (e.g. Sentence <
Paragraph < Subsection < Section < Document). FastMatch relies on this order
to match deeper labels before shallower ones.

When the observed parent/child label relation has cycles (the paper's
example: itemize / enumerate / description lists nesting in each other), the
paper's remedy is to *merge* the offending labels into one. The inference
here does the same: strongly connected label groups are collapsed and every
member shares the group's rank; parsers can also normalize such labels to a
single name at parse time (the LaTeX parser maps all list environments to
``"list"`` for exactly this reason).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..core.tree import Tree


def infer_label_ranks(trees: Iterable[Tree]) -> Dict[str, int]:
    """Rank every label bottom-up (0 = deepest) from parent-child edges.

    Builds the digraph ``child_label -> parent_label`` over all given
    trees, collapses strongly connected components (label cycles) so the
    members of a cycle share one rank, and ranks the condensation in
    topological order, children first. FastMatch processes internal labels
    in increasing rank.
    """
    edges: Set[Tuple[str, str]] = set()
    labels: Set[str] = set()
    for tree in trees:
        arena = tree.to_arena()
        parent = arena.parent
        for pos in range(arena.n):
            label = arena.label_of(pos)
            labels.add(label)
            if parent[pos] >= 0:
                edges.add((label, arena.label_of(parent[pos])))
    components = _tarjan_scc(labels, edges)
    # Map each label to its component index, then topo-sort components
    # along child -> parent edges (Kahn), children first.
    comp_of: Dict[str, int] = {}
    for idx, comp in enumerate(components):
        for label in comp:
            comp_of[label] = idx
    comp_edges: Set[Tuple[int, int]] = set()
    for child, parent_label in edges:
        a, b = comp_of[child], comp_of[parent_label]
        if a != b:
            comp_edges.add((a, b))
    indegree = {i: 0 for i in range(len(components))}
    successors: Dict[int, List[int]] = {i: [] for i in range(len(components))}
    for a, b in comp_edges:
        indegree[b] += 1
        successors[a].append(b)
    ready = sorted(i for i, deg in indegree.items() if deg == 0)
    ranks: Dict[str, int] = {}
    rank = 0
    while ready:
        current = ready.pop(0)
        for label in components[current]:
            ranks[label] = rank
        rank += 1
        for nxt in sorted(successors[current]):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return ranks


def _tarjan_scc(
    labels: Set[str], edges: Set[Tuple[str, str]]
) -> List[List[str]]:
    """Iterative Tarjan SCC over the label digraph; deterministic output."""
    adjacency: Dict[str, List[str]] = {label: [] for label in labels}
    for a, b in sorted(edges):
        adjacency[a].append(b)
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for start in sorted(labels):
        if start in index_of:
            continue
        work = [(start, iter(adjacency[start]))]
        index_of[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, neighbors = work[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components
