"""Algorithm *EditScript* (paper Section 4, Figures 8 and 9).

Given the old tree ``T1``, the new tree ``T2``, and a partial matching ``M``,
produce a minimum-cost edit script conforming to ``M`` that transforms ``T1``
into a tree isomorphic to ``T2``. The five conceptual phases (update, align,
insert, move, delete) are realized, exactly as in Figure 8, as one
breadth-first scan of ``T2`` followed by a post-order scan of ``T1``:

* **breadth-first scan of T2** — unmatched ``x`` are inserted (extending the
  matching); matched ``x`` get value updates and, when their parents are not
  matched to each other, inter-parent moves; after each node is placed,
  ``AlignChildren`` fixes the relative order of its matched children with the
  minimum number of intra-parent moves (an LCS computation, Lemma C.1).
* **post-order scan of T1** — remaining unmatched nodes are deleted
  bottom-up (they are leaves by then; Theorem C.2).

Implementation notes (documented deviations):

* *Materialized positions.* The paper's ``FindPos`` returns a rank counted
  over "in order" siblings only. We resolve that rank against the live
  intermediate tree so every ``INS``/``MOV`` carries a concrete 1-based
  child index and the script replays verbatim on a copy of the original
  ``T1``. When a move stays under the same parent, the index accounts for
  the mover's own slot disappearing at detach time.
* *Root updates.* Figure 8 step 2(c) guards updates with "x is not a root",
  which would silently skip a changed root value; we emit that update.
* *Unmatched roots.* Per the insert phase, both trees are wrapped with dummy
  roots that are matched to each other; the result records the dummy id so
  callers can replay/strip consistently (see :meth:`EditScriptResult.replay`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Set

from .._compat import DATACLASS_SLOTS
from ..core.isomorphism import trees_isomorphic
from ..core.node import Node
from ..core.tree import Tree
from ..lcs.myers import myers_lcs
from ..matching.matching import Matching
from .operations import Delete, Insert, Move, Update
from .script import EditScript, wrap_with_dummy_root


@dataclass(**DATACLASS_SLOTS)
class GenerationStats:
    """Counters describing the work done by one generator run."""

    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    inter_parent_moves: int = 0
    intra_parent_moves: int = 0
    align_lcs_calls: int = 0
    nodes_scanned: int = 0

    @property
    def moves(self) -> int:
        return self.inter_parent_moves + self.intra_parent_moves

    @property
    def misaligned_nodes(self) -> int:
        """The paper's ``D``: number of intra-parent moves emitted."""
        return self.intra_parent_moves


@dataclass
class EditScriptResult:
    """Everything Algorithm EditScript produces.

    Attributes
    ----------
    script:
        The minimum-cost conforming edit script (application order).
    matching:
        The total matching ``M'`` between the *transformed* tree's node ids
        and ``T2``'s node ids.
    transformed:
        The working copy of ``T1`` after all operations — isomorphic to
        ``T2`` (including the dummy root, when one was added).
    wrapped:
        True when dummy roots were introduced because the input roots were
        unmatched in ``M``.
    dummy_t1_id / dummy_t2_id:
        Identifiers of the dummy roots (``None`` unless ``wrapped``).
    stats:
        Operation counters (see :class:`GenerationStats`).
    """

    script: EditScript
    matching: Matching
    transformed: Tree
    wrapped: bool = False
    dummy_t1_id: Any = None
    dummy_t2_id: Any = None
    stats: GenerationStats = field(default_factory=GenerationStats)

    def cost(self) -> float:
        """Total script cost under the §3.2 unit costs."""
        return self.script.cost()

    def replay(self, t1: Tree) -> Tree:
        """Re-apply the script to a fresh copy of *t1* and return the result.

        Handles the dummy-root wrapping transparently: the returned tree is
        directly comparable (isomorphic) to the original ``T2``.
        """
        return self.script.apply_to(
            t1, dummy_id=self.dummy_t1_id if self.wrapped else None
        )

    def verify(self, t1: Tree, t2: Tree) -> bool:
        """True when replaying the script on *t1* yields a tree isomorphic to *t2*."""
        return trees_isomorphic(self.replay(t1), t2)


def generate_edit_script(
    t1: Tree,
    t2: Tree,
    matching: Matching,
) -> EditScriptResult:
    """Run Algorithm EditScript and return the full result bundle.

    The inputs are never mutated; all edits happen on an internal working
    copy of ``t1``. The given ``matching`` maps ``t1`` node ids to ``t2``
    node ids and must be one-to-one (class invariant of
    :class:`~repro.matching.Matching`); the script never inserts or deletes
    a matched node, so it *conforms* to the matching by construction.

    FindPos locates a ``t2`` node among its siblings with
    :meth:`Node.child_index <repro.core.node.Node.child_index>` (O(1) on
    the slot hints of a tree nothing edits here) and scans backwards for
    the in-order anchor.
    """
    if t1.root is None or t2.root is None:
        raise ValueError("generate_edit_script requires non-empty trees")
    _validate_matching(t1, t2, matching)
    generator = _Generator(t1, t2, matching)
    return generator.run()


def _validate_matching(t1: Tree, t2: Tree, matching: Matching) -> None:
    """Reject matchings the edit model cannot honor.

    The edit operations never change a node's label (there is no relabel in
    the paper's model, and every matching criterion requires label
    equality), so a pair with differing labels could only yield a wrong
    result; unknown node ids would fail later with a confusing error.
    """
    from ..core.errors import MatchingError

    for x_id, y_id in matching.pairs():
        if x_id not in t1:
            raise MatchingError(f"matching references unknown T1 node {x_id!r}")
        if y_id not in t2:
            raise MatchingError(f"matching references unknown T2 node {y_id!r}")
        label1 = t1.get(x_id).label
        label2 = t2.get(y_id).label
        if label1 != label2:
            raise MatchingError(
                f"matched pair ({x_id!r}, {y_id!r}) has differing labels "
                f"{label1!r} vs {label2!r}; the edit model cannot relabel nodes"
            )


class _Generator:
    """Mutable state for one run of Algorithm EditScript."""

    def __init__(self, t1: Tree, t2: Tree, matching: Matching) -> None:
        self.t2_original = t2
        self.work = t1.copy()  # T1 working copy; ops are applied here
        self.t2 = t2  # replaced by a wrapped copy if roots are unmatched
        self.mprime = matching.copy()
        self.script = EditScript()
        self.stats = GenerationStats()
        # "In order" marks are kept per tree: the two trees' identifier
        # spaces may overlap (both commonly number nodes 1..n), so a shared
        # set would let a mark on a working-tree node spuriously flag the
        # same-numbered T2 node as already placed.
        self.in_order1: Set[Any] = set()  # working-tree (T1') node ids
        self.in_order2: Set[Any] = set()  # T2 node ids
        self.wrapped = False
        self.dummy_t1_id: Any = None
        self.dummy_t2_id: Any = None
        existing = [n for n in itertools.chain(t1.node_ids(), t2.node_ids())
                    if isinstance(n, int)]
        self._fresh = itertools.count(max(existing, default=0) + 1)

    # ------------------------------------------------------------------
    def run(self) -> EditScriptResult:
        self._ensure_matched_roots()
        self._breadth_first_phase()
        self._delete_phase()
        return EditScriptResult(
            script=self.script,
            matching=self.mprime,
            transformed=self.work,
            wrapped=self.wrapped,
            dummy_t1_id=self.dummy_t1_id,
            dummy_t2_id=self.dummy_t2_id,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Insert phase preamble (Section 4.1): dummy roots when roots unmatched
    # ------------------------------------------------------------------
    def _ensure_matched_roots(self) -> None:
        root1, root2 = self.work.root, self.t2.root
        if self.mprime.contains(root1.id, root2.id):
            return
        if self.mprime.has1(root1.id) or self.mprime.has2(root2.id):
            # Roots matched to interior nodes of the other tree: the dummy
            # wrap below still handles this (the old root subtree gets moved
            # where its partner lives).
            pass
        self.dummy_t1_id = next(self._fresh)
        self.dummy_t2_id = next(self._fresh)
        self.work = wrap_with_dummy_root(self.work, self.dummy_t1_id)
        self.t2 = wrap_with_dummy_root(self.t2.copy(), self.dummy_t2_id)
        self.mprime.add(self.dummy_t1_id, self.dummy_t2_id)
        self.wrapped = True

    # ------------------------------------------------------------------
    # Phase 2 of Figure 8: BFS over T2 (update + insert + move + align)
    # ------------------------------------------------------------------
    def _breadth_first_phase(self) -> None:
        for x in self.t2.bfs():
            self.stats.nodes_scanned += 1
            if x.parent is None:
                self._visit_root(x)
            elif not self.mprime.has2(x.id):
                self._visit_unmatched(x)
            else:
                self._visit_matched(x)
            # Step 2(d): align the children of (w, x). By this point x is
            # always matched (unmatched nodes were just inserted).
            w = self.work.get(self.mprime.partner2(x.id))
            if w.children or x.children:
                self._align_children(w, x)

    def _visit_root(self, x: Node) -> None:
        # After _ensure_matched_roots the T2 root is always matched.
        w = self.work.get(self.mprime.partner2(x.id))
        # Deviation from Figure 8 (see module docstring): emit root updates.
        if w.value != x.value:
            self._emit_update(w, x)
        self.in_order1.add(w.id)
        self.in_order2.add(x.id)

    def _visit_unmatched(self, x: Node) -> None:
        """Step 2(b): insert a new leaf for unmatched ``x``."""
        y = x.parent
        z_id = self.mprime.partner2(y.id)
        position = self._find_pos(x, moving_id=None)
        w_id = next(self._fresh)
        op = Insert(w_id, x.label, x.value, z_id, position)
        self.script.append(op)
        op.apply(self.work)
        self.mprime.add(w_id, x.id)
        self.in_order1.add(w_id)
        self.in_order2.add(x.id)
        self.stats.inserts += 1

    def _visit_matched(self, x: Node) -> None:
        """Step 2(c): update value and/or move across parents."""
        y = x.parent
        w = self.work.get(self.mprime.partner2(x.id))
        v = w.parent
        if w.value != x.value:
            self._emit_update(w, x)
        if v is None or not self.mprime.contains(v.id, y.id):
            z_id = self.mprime.partner2(y.id)
            position = self._find_pos(x, moving_id=w.id)
            op = Move(w.id, z_id, position)
            self.script.append(op)
            op.apply(self.work)
            self.stats.inter_parent_moves += 1
        self.in_order1.add(w.id)
        self.in_order2.add(x.id)

    def _emit_update(self, w: Node, x: Node) -> None:
        op = Update(w.id, x.value, old_value=w.value)
        self.script.append(op)
        op.apply(self.work)
        self.stats.updates += 1

    # ------------------------------------------------------------------
    # Function AlignChildren (Figure 9)
    # ------------------------------------------------------------------
    def _align_children(self, w: Node, x: Node) -> None:
        # 1. Mark all children of w and of x "out of order".
        for child in w.children:
            self.in_order1.discard(child.id)
        for child in x.children:
            self.in_order2.discard(child.id)
        # 2. S1: children of w whose partners are children of x;
        #    S2: children of x whose partners are children of w.
        x_child_ids = {c.id for c in x.children}
        w_child_ids = {c.id for c in w.children}
        s1 = [
            c
            for c in w.children
            if self.mprime.partner1(c.id) in x_child_ids
        ]
        s2 = [
            c
            for c in x.children
            if self.mprime.partner2(c.id) in w_child_ids
        ]
        if not s1 and not s2:
            return
        # 3-4. LCS with equal(a, b) <=> (a, b) in M'.
        self.stats.align_lcs_calls += 1
        common = myers_lcs(s1, s2, lambda a, b: self.mprime.contains(a.id, b.id))
        # 5. Mark LCS pairs "in order".
        in_lcs_t2_ids: Set[Any] = set()
        for a, b in common:
            self.in_order1.add(a.id)
            self.in_order2.add(b.id)
            in_lcs_t2_ids.add(b.id)
        # 6. Move every matched-but-out-of-sequence pair into place. We scan
        # b over x's children left-to-right so anchors are always final.
        for b in x.children:
            if b.id in in_lcs_t2_ids:
                continue
            a_id = self.mprime.partner2(b.id)
            if a_id is None or a_id not in w_child_ids:
                continue
            position = self._find_pos(b, moving_id=a_id)
            op = Move(a_id, w.id, position)
            self.script.append(op)
            op.apply(self.work)
            self.in_order1.add(a_id)
            self.in_order2.add(b.id)
            self.stats.intra_parent_moves += 1

    # ------------------------------------------------------------------
    # Function FindPos (Figure 9)
    # ------------------------------------------------------------------
    def _find_pos(self, x: Node, moving_id: Any) -> int:
        """Target child position for placing the partner of ``x`` in T2.

        ``moving_id`` identifies the working-tree node about to be detached
        by a move (``None`` for inserts); when it currently sits to the left
        of the anchor under the same parent, the returned index compensates
        for the slot it vacates.
        """
        # 2. If x is the leftmost child of y marked "in order", return 1.
        # (Equivalently: no in-order sibling lies to x's left.) Locate x
        # among its siblings in O(1) via its slot hint and scan backwards,
        # stopping at the first (i.e. rightmost) in-order left sibling.
        anchor: Optional[Node] = None
        siblings = x.parent.children
        in_order = self.in_order2
        position = x.child_index() - 2
        while position >= 0:
            sibling = siblings[position]
            if sibling.id in in_order:
                anchor = sibling
                break
            position -= 1
        if anchor is None:
            return 1
        # 3-5. Place right after the partner u of the rightmost in-order
        # left sibling v of x.
        u = self.work.get(self.mprime.partner2(anchor.id))
        parent = u.parent
        index = parent.children.index(u) + 1  # 1-based index of u
        if moving_id is not None:
            mover = self.work.get(moving_id)
            if mover.parent is parent and parent.children.index(mover) < index - 1:
                index -= 1
        return index + 1

    # ------------------------------------------------------------------
    # Phase 3 of Figure 8: post-order delete of unmatched T1 nodes
    # ------------------------------------------------------------------
    def _delete_phase(self) -> None:
        doomed = [
            node.id
            for node in self.work.postorder()
            if not self.mprime.has1(node.id)
        ]
        for node_id in doomed:
            op = Delete(node_id)
            self.script.append(op)
            op.apply(self.work)
            self.stats.deletes += 1
