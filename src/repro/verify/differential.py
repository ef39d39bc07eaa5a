"""Differential checking: Match vs FastMatch vs the baselines.

Differential testing compares independent implementations on the same
input; disagreement localizes a bug without needing a ground truth. Three
relations are checkable here, each stated in its *sound* form:

* **Algorithm agreement** — Match (§5.2) and FastMatch (§5.3) must both
  produce scripts that transform ``T1`` into ``T2``; their costs may
  differ (FastMatch trades optimality for speed) but both must be valid.

* **Zhang–Shasha lower bound** — the ZS algorithm computes the *optimal*
  edit distance under a relabel/insert/delete model. Our scripts live in
  a richer model (subtree moves), so their cost is **not** directly
  comparable: a single unit-cost move can beat many ZS deletes+inserts.
  The sound relation prices each of our operations *in ZS terms* —
  insert/delete 1, update 1 if the value changed, move ``2 × |subtree|``
  at the moment the move applies (a ZS delete+reinsert of every node) —
  giving a valid ZS edit sequence whose cost must dominate the optimum:
  ``zs_distance(T1, T2) <= zs_script_bound(T1, edit)``. Exact ZS is
  ``O(n^2 m^2)`` so the check is gated to small trees (≤ ~30 nodes).

* **Flat-diff dominance** — on *flat* documents (a valueless root over
  same-labeled string leaves) the tree differ must be at least as good at
  preserving content as a line diff: FastMatch's per-label LCS pass works
  under fuzzy equality, a superset of the exact line equality the flat
  baseline uses, so it matches at least an exact-LCS worth of leaves and
  hence ``#DEL <= flat deleted_lines`` and ``#INS <= flat
  inserted_lines``. (This holds for FastMatch only: Algorithm Match's
  maximal matching guarantees just half the LCS. And it says nothing
  about updates/moves, which the flat view cannot express.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..baselines.flat_diff import flat_diff
from ..baselines.zhang_shasha import zhang_shasha_distance
from ..core.tree import Tree
from ..editscript.generator import EditScriptResult
from ..editscript.operations import Delete, Insert, Move, Update
from ..matching.criteria import MatchConfig
from .oracles import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline import DiffResult

#: Default node ceiling for the exact Zhang–Shasha reference (O(n^2 m^2)).
DEFAULT_MAX_ZS_NODES = 30

_EPSILON = 1e-9


@dataclass
class DifferentialOutcome:
    """Everything one differential run learned about a tree pair."""

    violations: List[Violation] = field(default_factory=list)
    costs: Dict[str, float] = field(default_factory=dict)
    zs_distance: Optional[float] = None
    zs_bounds: Dict[str, float] = field(default_factory=dict)
    flat_changes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Zhang–Shasha lower bound
# ---------------------------------------------------------------------------
def zs_script_bound(t1: Tree, edit: EditScriptResult) -> float:
    """Price *edit* as a Zhang–Shasha edit sequence on the same trees.

    Replays the script operation by operation (moves must be priced at the
    subtree size *when they apply*, which earlier inserts may have grown).
    The result is the cost of one valid relabel/insert/delete realization
    of the script, hence an upper bound on the optimal ZS distance.
    """
    bound = 0.0
    for op, work in edit.script.steps(t1.copy(), edit.dummy_t1_id):
        if isinstance(op, (Insert, Delete)):
            bound += 1.0
        elif isinstance(op, Update):
            if op.old_value != op.value:
                bound += 1.0
        elif isinstance(op, Move):
            bound += 2.0 * work.get(op.node_id).subtree_size()
    return bound


def zs_lower_bound_check(
    t1: Tree,
    t2: Tree,
    edit: EditScriptResult,
    algorithm: str = "?",
    zs: Optional[float] = None,
) -> List[Violation]:
    """``zs_distance <= zs_script_bound`` (pass a precomputed *zs* to reuse).

    When the generator dummy-wrapped the trees the script transforms
    ``wrap(T1)`` into ``wrap(T2)``, so the reference distance is taken on
    wrapped copies too.
    """
    if edit.dummy_t1_id is not None:
        zs = zhang_shasha_distance(
            t1.copy().wrap_root(edit.dummy_t1_id), t2.copy().wrap_root(edit.dummy_t2_id)
        )
    elif zs is None:
        zs = zhang_shasha_distance(t1, t2)
    bound = zs_script_bound(t1, edit)
    if zs > bound + _EPSILON:
        return [
            Violation(
                "differential",
                "script beats the optimal Zhang-Shasha distance in ZS terms",
                {"algorithm": algorithm, "zs": zs, "bound": bound},
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Flat-diff dominance (flat documents, FastMatch only)
# ---------------------------------------------------------------------------
def is_flat_pair(t1: Tree, t2: Tree) -> bool:
    """True when both trees are flat documents the dominance claim covers.

    Flat means: a valueless root (same label on both sides, so the roots
    match and never enter the delete/insert counts) whose children are all
    leaves sharing one label, every leaf carrying a string value — i.e. the
    tree view and the flattened line view contain the same information.
    """

    def flat(tree: Tree) -> Optional[str]:
        root = tree.root
        if root is None or root.is_leaf or root.value is not None:
            return None
        labels = {child.label for child in root.children}
        if len(labels) != 1:
            return None
        if not all(
            child.is_leaf and isinstance(child.value, str)
            for child in root.children
        ):
            return None
        return root.label

    label1, label2 = flat(t1), flat(t2)
    if label1 is None or label2 is None or label1 != label2:
        return False
    leaf_labels = {c.label for c in t1.root.children} | {
        c.label for c in t2.root.children
    }
    return len(leaf_labels) == 1


def flat_dominance_check(
    t1: Tree, t2: Tree, edit: EditScriptResult
) -> List[Violation]:
    """FastMatch on a flat pair deletes/inserts no more lines than GNU diff.

    Only call on :func:`is_flat_pair` inputs with a FastMatch-produced
    script; the LCS-superset argument in the module docstring does not
    apply to Algorithm Match.
    """
    flat = flat_diff(t1, t2)
    out: List[Violation] = []
    deletes = len(edit.script.deletes)
    inserts = len(edit.script.inserts)
    if deletes > flat.deleted_lines:
        out.append(
            Violation(
                "differential",
                "tree diff deletes more leaves than the flat baseline",
                {"tree": deletes, "flat": flat.deleted_lines},
            )
        )
    if inserts > flat.inserted_lines:
        out.append(
            Violation(
                "differential",
                "tree diff inserts more leaves than the flat baseline",
                {"tree": inserts, "flat": flat.inserted_lines},
            )
        )
    return out


# ---------------------------------------------------------------------------
# The crosscheck harness
# ---------------------------------------------------------------------------
def differential_check(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
    max_zs_nodes: int = DEFAULT_MAX_ZS_NODES,
    results: Optional[Dict[str, "DiffResult"]] = None,
) -> DifferentialOutcome:
    """Run Match and FastMatch on the same pair and crosscheck them.

    *results* may carry precomputed ``DiffResult``s per algorithm (the fuzz
    loop reuses the ones it already verified); missing algorithms are run
    through a fresh :class:`~repro.pipeline.DiffPipeline`.
    """
    from ..pipeline import DiffConfig, DiffPipeline

    outcome = DifferentialOutcome()
    results = dict(results) if results else {}
    for algorithm in ("fast", "simple"):
        if algorithm not in results:
            pipeline = DiffPipeline(DiffConfig(algorithm=algorithm, match=config))
            results[algorithm] = pipeline.run(t1, t2)
        result = results[algorithm]
        outcome.costs[algorithm] = result.cost()
        if not result.edit.verify(t1, t2):
            outcome.violations.append(
                Violation(
                    "differential",
                    "script does not transform T1 into T2",
                    {"algorithm": algorithm},
                )
            )

    small = len(t1) <= max_zs_nodes and len(t2) <= max_zs_nodes
    if small and len(t1) > 0 and len(t2) > 0:
        outcome.zs_distance = zhang_shasha_distance(t1, t2)
        for algorithm, result in results.items():
            outcome.zs_bounds[algorithm] = zs_script_bound(t1, result.edit)
            outcome.violations.extend(
                zs_lower_bound_check(
                    t1, t2, result.edit, algorithm, zs=outcome.zs_distance
                )
            )

    if is_flat_pair(t1, t2):
        outcome.flat_changes = flat_diff(t1, t2).total_changes
        outcome.violations.extend(flat_dominance_check(t1, t2, results["fast"].edit))
    return outcome
