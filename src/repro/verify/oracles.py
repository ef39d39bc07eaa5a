"""Conformance oracles: pure checkers over one diff's inputs and outputs.

The paper's guarantees are checkable end to end, and every oracle here is
the executable form of one of them:

* **matching validity** (§3.1, §5.2) — a matching is partial, one-to-one,
  references only real nodes, never pairs differing labels (the edit model
  has no relabel), and — where the matcher criteria apply — satisfies
  Criterion 1 on leaf pairs.
* **conformance** (§4, §5) — the generated edit script *conforms to* the
  matching: matched nodes are never deleted or re-inserted, every unmatched
  ``T2`` node is inserted exactly once, every unmatched ``T1`` node is
  deleted exactly once, and the generator's total matching ``M'`` extends
  the input matching to cover both trees.
* **replay isomorphism** (§3.1) — applying the script to ``T1`` yields a
  tree isomorphic to ``T2``; this is the paper's definition of a script
  *transforming* one tree into the other.
* **cost accounting** (§3.2) — the reported cost equals the sum of the
  individual operation costs under the unit cost model, and the script
  obeys the conservation law ``#INS - #DEL = |T2| - |T1|``.
* **delta consistency** (§6) — the delta tree's IDN/UPD/INS/DEL/MOV/MRK
  annotation counts agree with the edit script, on top of the §6
  correctness definition in :mod:`repro.deltatree.correctness`.
* **index consistency** — the structure tables of the replayed tree's
  :class:`~repro.core.arena.TreeArena` agree with one direct walk of its
  node graph (ranks, sizes, leaf counts, spans, containment, label
  chains, labels and values), so every stage that reads them still sees
  correct structure after a round trip.

All oracles are pure: they take trees and results, never mutate them, and
return a list of :class:`Violation` (empty = pass). :func:`verify_result`
runs the whole battery and folds the outcome into a :class:`VerifyReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.arena import TreeArena
from ..core.isomorphism import first_difference, trees_isomorphic
from ..core.node import Node
from ..core.tree import Tree
from ..editscript.cost import operation_cost
from ..editscript.generator import EditScriptResult
from ..editscript.operations import Delete, Insert
from ..editscript.script import EditScript
from ..matching.criteria import CriteriaContext, MatchConfig
from ..matching.matching import Matching

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline import DiffResult

#: Canonical oracle names, in battery order.
ORACLES = (
    "matching_validity",
    "conformance",
    "replay_isomorphism",
    "cost_accounting",
    "delta_consistency",
    "index_consistency",
)

#: Violation samples retained per report (counters are exact regardless).
MAX_SAMPLES = 20


@dataclass
class Violation:
    """One concrete oracle failure: which invariant broke, and how."""

    oracle: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = "".join(f" {k}={v!r}" for k, v in sorted(self.details.items()))
        return f"[{self.oracle}] {self.message}{extra}"


class VerifyReport:
    """Per-oracle pass/fail counters plus a bounded sample of violations.

    Reports are mergeable (:meth:`merge`) so a fuzz loop, a differential
    harness, and the serving layer's spot checks can all fold into one
    summary; :class:`repro.service.metrics.ServiceMetrics` absorbs reports
    via :meth:`repro.service.metrics.ServiceMetrics.absorb_verify_report`.
    """

    def __init__(self) -> None:
        self.passes: Dict[str, int] = {}
        self.failures: Dict[str, int] = {}
        self.samples: List[Violation] = []

    # ------------------------------------------------------------------
    def record(self, oracle: str, violations: List[Violation]) -> None:
        """Count one oracle evaluation and retain sample violations."""
        if violations:
            self.failures[oracle] = self.failures.get(oracle, 0) + 1
            for violation in violations:
                if len(self.samples) < MAX_SAMPLES:
                    self.samples.append(violation)
        else:
            self.passes[oracle] = self.passes.get(oracle, 0) + 1

    def merge(self, other: "VerifyReport") -> None:
        for oracle, count in other.passes.items():
            self.passes[oracle] = self.passes.get(oracle, 0) + count
        for oracle, count in other.failures.items():
            self.failures[oracle] = self.failures.get(oracle, 0) + count
        for violation in other.samples:
            if len(self.samples) < MAX_SAMPLES:
                self.samples.append(violation)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.failures

    def total_checks(self) -> int:
        return sum(self.passes.values()) + sum(self.failures.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly export (CLI ``--json``, metrics snapshots)."""
        oracles = sorted(set(self.passes) | set(self.failures))
        return {
            "ok": self.ok,
            "oracles": {
                name: {
                    "pass": self.passes.get(name, 0),
                    "fail": self.failures.get(name, 0),
                }
                for name in oracles
            },
            "samples": [
                {"oracle": v.oracle, "message": v.message, "details": v.details}
                for v in self.samples
            ],
        }

    def render(self) -> str:
        """Human-readable summary block (used by ``repro-diff verify``)."""
        lines = ["-- verify report --"]
        for name in sorted(set(self.passes) | set(self.failures)):
            ok = self.passes.get(name, 0)
            bad = self.failures.get(name, 0)
            status = "FAIL" if bad else "ok"
            lines.append(f"{name + ':':<22}{ok:6d} pass {bad:6d} fail  [{status}]")
        for violation in self.samples:
            lines.append(f"  ! {violation}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VerifyReport(ok={self.ok}, checks={self.total_checks()})"


# ---------------------------------------------------------------------------
# Oracle 1: matching validity
# ---------------------------------------------------------------------------
def check_matching_validity(
    t1: Tree,
    t2: Tree,
    matching: Matching,
    config: Optional[MatchConfig] = None,
    check_criterion2: bool = False,
) -> List[Violation]:
    """Validate a (partial) matching between *t1* and *t2*.

    Always checked: pairs reference nodes that exist in their trees, labels
    agree (Lemma in §4: the edit model cannot relabel), and — except for
    the root pair, which ``MatchConfig.always_match_roots`` may force —
    leaves pair with leaves. With a *config*, Criterion 1 (``compare <= f``)
    is checked on every non-root leaf pair; Criterion 2 is opt-in
    (*check_criterion2*) because the §8 repair pass and the root policy may
    legitimately keep pairs below the containment threshold.
    """
    name = "matching_validity"
    out: List[Violation] = []
    root_pair = None
    if t1.root is not None and t2.root is not None:
        root_pair = (t1.root.id, t2.root.id)
    context = CriteriaContext(t1, t2, config) if config is not None else None
    for x_id, y_id in matching.pairs():
        if x_id not in t1:
            out.append(Violation(name, "pair references unknown T1 node", {"t1": x_id}))
            continue
        if y_id not in t2:
            out.append(Violation(name, "pair references unknown T2 node", {"t2": y_id}))
            continue
        x, y = t1.get(x_id), t2.get(y_id)
        if x.label != y.label:
            out.append(
                Violation(
                    name,
                    "matched pair has differing labels",
                    {"pair": (x_id, y_id), "labels": (x.label, y.label)},
                )
            )
            continue
        if (x_id, y_id) == root_pair:
            continue  # the root policy may pair roots regardless of kind
        if x.is_leaf != y.is_leaf:
            out.append(
                Violation(
                    name,
                    "leaf matched to internal node",
                    {"pair": (x_id, y_id)},
                )
            )
            continue
        if context is not None and x.is_leaf:
            # The reference definition, not the context's compiled leaf
            # test, so that this oracle checks that test too.
            if config.registry.compare(x.value, y.value, x.label) > config.f:
                out.append(
                    Violation(
                        name,
                        "leaf pair violates Criterion 1 (compare > f)",
                        {"pair": (x_id, y_id), "f": context.config.f},
                    )
                )
        elif context is not None and check_criterion2:
            if not context.internals_equal(x, y, matching):
                out.append(
                    Violation(
                        name,
                        "internal pair violates Criterion 2 (common ratio <= t)",
                        {"pair": (x_id, y_id), "t": context.config.t},
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Oracle 2: edit-script conformance to the matching
# ---------------------------------------------------------------------------
def check_conformance(
    t1: Tree,
    t2: Tree,
    edit: EditScriptResult,
    matching: Matching,
) -> List[Violation]:
    """Check that *edit* conforms to *matching* (§4's defining property).

    A script conforms when it never deletes a matched ``T1`` node, inserts
    exactly the unmatched ``T2`` nodes (as fresh identifiers), and extends
    the input matching to a total matching ``M'`` covering both trees.
    """
    name = "conformance"
    out: List[Violation] = []
    t1_ids: Set[Any] = set(t1.node_ids())
    t2_ids: Set[Any] = set(t2.node_ids())
    mprime = edit.matching

    inserted_ids: Set[Any] = set()
    deleted_ids: Set[Any] = set()
    for op in edit.script:
        if isinstance(op, Insert):
            if op.node_id in t1_ids:
                out.append(
                    Violation(
                        name,
                        "insert reuses a T1 identifier",
                        {"op": str(op)},
                    )
                )
            if op.node_id in inserted_ids:
                out.append(Violation(name, "node inserted twice", {"op": str(op)}))
            inserted_ids.add(op.node_id)
        elif isinstance(op, Delete):
            if matching.has1(op.node_id):
                out.append(
                    Violation(
                        name,
                        "script deletes a matched T1 node",
                        {"op": str(op), "partner": matching.partner1(op.node_id)},
                    )
                )
            if op.node_id not in t1_ids and op.node_id not in inserted_ids:
                out.append(
                    Violation(
                        name,
                        "delete targets a node from neither T1 nor the inserts",
                        {"op": str(op)},
                    )
                )
            if op.node_id in deleted_ids:
                out.append(Violation(name, "node deleted twice", {"op": str(op)}))
            deleted_ids.add(op.node_id)

    # Every unmatched T2 node must be inserted exactly once; matched T2
    # nodes must never be re-created.
    unmatched_t2 = {y for y in t2_ids if not matching.has2(y)}
    for y_id in t2_ids:
        partner = mprime.partner2(y_id)
        if partner is None:
            out.append(
                Violation(name, "T2 node missing from the total matching", {"t2": y_id})
            )
            continue
        if y_id in unmatched_t2:
            if partner not in inserted_ids:
                out.append(
                    Violation(
                        name,
                        "unmatched T2 node was not inserted",
                        {"t2": y_id, "mprime_partner": partner},
                    )
                )
        else:
            if partner in inserted_ids:
                out.append(
                    Violation(
                        name,
                        "matched T2 node was re-inserted",
                        {"t2": y_id},
                    )
                )
    # Every unmatched T1 node must be deleted; matched ones must survive.
    for x_id in t1_ids:
        if matching.has1(x_id):
            if x_id in deleted_ids:
                out.append(
                    Violation(name, "matched T1 node was deleted", {"t1": x_id})
                )
        elif x_id not in deleted_ids:
            out.append(
                Violation(name, "unmatched T1 node was not deleted", {"t1": x_id})
            )
    # M' must extend the input matching.
    for x_id, y_id in matching.pairs():
        if not mprime.contains(x_id, y_id):
            out.append(
                Violation(
                    name,
                    "total matching dropped an input pair",
                    {"pair": (x_id, y_id)},
                )
            )
    return out


# ---------------------------------------------------------------------------
# Oracle 3: replay isomorphism
# ---------------------------------------------------------------------------
def check_replay(
    t1: Tree, t2: Tree, script: EditScript, dummy_id: Any = None
) -> List[Violation]:
    """Replay *script* on *t1*; the result must be isomorphic to *t2*.

    *dummy_id* is the dummy-root id a wrapped script was generated under
    (``None`` when the roots were matched and nothing was wrapped).
    """
    return _replay(t1, t2, script, dummy_id)[1]


def _replay(
    t1: Tree, t2: Tree, script: EditScript, dummy_id: Any
) -> Tuple[Optional[Tree], List[Violation]]:
    """:func:`check_replay` that also returns the replayed tree (``None``
    when the script failed to replay)."""
    name = "replay_isomorphism"
    try:
        replayed = script.apply_to(t1, dummy_id=dummy_id)
    except Exception as exc:
        return None, [
            Violation(
                name,
                "script failed to replay",
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        ]
    if not trees_isomorphic(replayed, t2):
        return replayed, [
            Violation(
                name,
                "replayed tree is not isomorphic to T2",
                {"first_difference": first_difference(replayed, t2)},
            )
        ]
    return replayed, []


# ---------------------------------------------------------------------------
# Oracle 4: cost accounting + the insert/delete conservation law
# ---------------------------------------------------------------------------
def check_cost_accounting(
    t1: Tree,
    t2: Tree,
    script: EditScript,
    reported_cost: Optional[float] = None,
) -> List[Violation]:
    """Reported cost == sum of op costs; #INS - #DEL == |T2| - |T1|.

    *reported_cost* is the cost a caller was told (a served result's
    ``cost``); it defaults to the script's own total.
    """
    name = "cost_accounting"
    out: List[Violation] = []
    recomputed = sum(operation_cost(op) for op in script)
    reported = reported_cost if reported_cost is not None else script.cost()
    if abs(reported - recomputed) > 1e-9:
        out.append(
            Violation(
                name,
                "reported cost differs from the sum of operation costs",
                {"reported": reported, "recomputed": recomputed},
            )
        )
    inserts = len(script.inserts)
    deletes = len(script.deletes)
    if inserts - deletes != len(t2) - len(t1):
        out.append(
            Violation(
                name,
                "conservation law violated: #INS - #DEL != |T2| - |T1|",
                {
                    "inserts": inserts,
                    "deletes": deletes,
                    "t1_nodes": len(t1),
                    "t2_nodes": len(t2),
                },
            )
        )
    summary = script.summary()
    if summary["total"] != len(script):
        out.append(
            Violation(
                name,
                "summary total differs from script length",
                {"summary": summary, "length": len(script)},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Oracle 5: delta-tree annotation consistency
# ---------------------------------------------------------------------------
def check_delta_consistency(
    t1: Tree,
    t2: Tree,
    edit: EditScriptResult,
    matching: Matching,
    delta: Any = None,
) -> List[Violation]:
    """IDN/UPD/INS/DEL/MOV counts in the delta agree with the script.

    Also runs the §6 correctness definition
    (:func:`repro.deltatree.correctness.check_delta_tree`) against both
    endpoints. *delta* is built from *edit* when not supplied.
    """
    from ..deltatree.builder import build_delta_tree
    from ..deltatree.correctness import check_delta_tree

    name = "delta_consistency"
    out: List[Violation] = []
    if delta is None:
        try:
            delta = build_delta_tree(t1, t2, edit)
        except Exception as exc:
            return [
                Violation(
                    name,
                    "delta tree failed to build",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            ]
    for problem in check_delta_tree(delta, t1, t2):
        out.append(Violation(name, f"§6 correctness: {problem}"))

    counts = delta.counts()
    t1_ids: Set[Any] = set(t1.node_ids())
    script = edit.script
    expected_ins = len(script.inserts)
    moved_t1 = {op.node_id for op in script.moves if op.node_id in t1_ids}
    updated_t1 = {op.node_id for op in script.updates if op.node_id in t1_ids}
    expected_del = sum(1 for x_id in t1_ids if not matching.has1(x_id))
    expected_upd = len(updated_t1 - moved_t1)

    for tag, expected in (
        ("INS", expected_ins),
        ("MOV", len(moved_t1)),
        ("MRK", len(moved_t1)),
        ("DEL", expected_del),
        ("UPD", expected_upd),
    ):
        actual = counts.get(tag, 0)
        if actual != expected:
            out.append(
                Violation(
                    name,
                    f"{tag} annotation count disagrees with the script",
                    {"tag": tag, "delta": actual, "script": expected},
                )
            )
    # Mirror size: every T2 node appears exactly once outside tombstones.
    mirror = sum(counts.get(tag, 0) for tag in ("IDN", "UPD", "INS", "MOV"))
    if mirror != len(t2):
        out.append(
            Violation(
                name,
                "delta mirror node count differs from |T2|",
                {"mirror": mirror, "t2_nodes": len(t2)},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Oracle 6: arena structure consistency (post-replay re-check)
# ---------------------------------------------------------------------------
def check_index_consistency(
    tree: Tree, arena: Optional[TreeArena] = None
) -> List[Violation]:
    """The structure tables of *tree*'s arena must agree with one direct walk.

    One preorder walk of the node graph records each node's rank, parent,
    first-leaf offset and label chain; one reverse pass sums subtree sizes
    and leaf counts. The arena (the tree's snapshot unless one is given)
    must agree on preorder ranks, subtree sizes, leaf counts, leaf spans,
    preorder-interval containment against the parent (both directions),
    labels, values, the label chains and the document-order leaf list.
    The walk reads ``Node`` objects only, so it stays independent of the
    arena. Run on replayed trees to prove the tables survive a full edit
    round trip, and by the fuzz harness on every generated tree.
    """
    name = "index_consistency"
    out: List[Violation] = []
    if arena is None:
        arena = tree.to_arena()
    if arena.n != len(tree):
        out.append(
            Violation(
                name,
                "index node count differs from the tree",
                {"index": arena.n, "tree": len(tree)},
            )
        )
    nodes: List[Node] = []
    parents: List[int] = []  # preorder rank of the parent, -1 for the root
    first_leaf: List[int] = []
    leaf_ids: List[Any] = []
    leaf_chains: Dict[str, List[Any]] = {}
    internal_chains: Dict[str, List[Any]] = {}
    pending: Dict[int, int] = {}  # id(child) -> preorder rank of its parent
    for rank, node in enumerate(tree.preorder()):
        nodes.append(node)
        parents.append(pending.pop(id(node), -1))
        first_leaf.append(len(leaf_ids))
        for child in node.children:
            pending[id(child)] = rank
        if not node.children:
            leaf_ids.append(node.id)
        chains = internal_chains if node.children else leaf_chains
        chains.setdefault(node.label, []).append(node.id)
    sizes = [1] * len(nodes)
    leaf_counts = [0 if node.children else 1 for node in nodes]
    for rank in range(len(nodes) - 1, 0, -1):
        sizes[parents[rank]] += sizes[rank]
        leaf_counts[parents[rank]] += leaf_counts[rank]

    node_ids = arena.node_ids
    if [node_ids[pos] for pos in arena.leaf_positions] != leaf_ids:
        out.append(Violation(name, "leaf list disagrees with the document-order leaves"))
    for table, walked in ((arena.leaf_chains, leaf_chains),
                          (arena.internal_chains, internal_chains)):
        indexed = [(label, [node_ids[pos] for pos in chain]) for label, chain in table.items()]
        if indexed != list(walked.items()):  # first-seen label order too
            out.append(Violation(name, "label chains disagree with a direct walk"))
    pos_of, subtree_size = arena.pos_of, arena.subtree_size
    for rank, node in enumerate(nodes):
        node_id = node.id
        pos = pos_of.get(node_id)
        if pos is None:
            out.append(Violation(name, "tree node missing from the index", {"node": node_id}))
            continue
        start, count = first_leaf[rank], leaf_counts[rank]
        leaf_start = arena.leaf_start[pos]
        checks = [
            ("preorder rank disagrees with a direct walk", pos, rank),
            ("subtree size disagrees with a direct walk", subtree_size[pos], sizes[rank]),
            ("leaf count disagrees with a direct walk", arena.leaf_count[pos], count),
            ("leaf span disagrees with the subtree's leaves",
             (leaf_start, leaf_start + arena.leaf_count[pos]), (start, start + count)),
            ("label disagrees with the node", arena.label_of(pos), node.label),
            ("value disagrees with the node", arena.value_of(pos), node.value),
        ]
        parent_pos = pos_of.get(nodes[parents[rank]].id) if parents[rank] >= 0 else None
        if parent_pos is not None:
            # Both containment directions.
            checks += [
                ("interval containment misses a direct parent",
                 parent_pos < pos < parent_pos + subtree_size[parent_pos], True),
                ("interval containment inverts a parent/child pair",
                 pos < parent_pos < pos + subtree_size[pos], False),
            ]
        for message, indexed, walked in checks:
            if indexed is not walked and indexed != walked:  # identity first: NaN != NaN
                out.append(
                    Violation(name, message, {"node": node_id, "index": indexed, "walked": walked})
                )
    return out


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------
def verify_result(
    t1: Tree,
    t2: Tree,
    result: "DiffResult",
    config: Optional[MatchConfig] = None,
    check_delta: bool = True,
    check_criterion2: bool = False,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Run every oracle against one :class:`~repro.pipeline.DiffResult`.

    Appends into *report* when given (fuzz loops reuse one across
    iterations); returns the report either way.
    """
    if report is None:
        report = VerifyReport()
    report.record(
        "matching_validity",
        check_matching_validity(
            t1, t2, result.matching, config, check_criterion2=check_criterion2
        ),
    )
    report.record(
        "conformance", check_conformance(t1, t2, result.edit, result.matching)
    )
    edit = result.edit
    replayed, violations = _replay(
        t1, t2, edit.script, edit.dummy_t1_id if edit.wrapped else None
    )
    report.record("replay_isomorphism", violations)
    report.record(
        "cost_accounting", check_cost_accounting(t1, t2, edit.script, result.cost())
    )
    if check_delta:
        report.record(
            "delta_consistency",
            check_delta_consistency(
                t1, t2, result.edit, result.matching, delta=result.delta
            ),
        )
    # An unreplayable script was already reported by the replay oracle.
    if replayed is not None:
        report.record("index_consistency", check_index_consistency(replayed))
    return report
