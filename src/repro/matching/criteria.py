"""Matching criteria 1-3 and the equality predicates they induce (Section 5).

* **Criterion 1** (leaves): ``(x, y)`` may match only if labels agree and
  ``compare(v(x), v(y)) <= f`` for a parameter ``0 <= f <= 1``. Under the
  default comparator, sentence pairs are decided by a compiled test (see
  :meth:`CriteriaContext.leaves_equal`) that gives the same answer as the
  Section 7 word-LCS distance without computing most distances.
* **Criterion 2** (internal nodes): labels agree and
  ``|common(x, y)| / max(|x|, |y|) > t`` for ``1/2 <= t <= 1``, where
  ``common`` counts matched leaf pairs contained in both subtrees.
* **Criterion 3** (domain property): every leaf of one tree is "close"
  (``compare <= 1``) to at most one leaf of the other. When it holds — and
  labels are acyclic — the maximal matching is unique (Theorem 5.2) and
  FastMatch is optimal; :func:`criterion3_violations` measures how badly a
  given input breaks it (used by the Table 1 analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .._compat import DATACLASS_SLOTS
from ..compare.generic import CompareRegistry, default_compare
from ..compare.sentence import tokenize_words
from ..core.errors import ConfigError
from ..core.node import Node
from ..core.tree import Tree
from ..lcs.bitparallel import lcs_scan, match_masks
from .matching import Matching


class _SentenceRecords(dict):
    """Each distinct sentence of a run, tokenized on first lookup.

    ``records[text]`` is ``[words, len(words), word set, repeats, mask
    table]``, where ``repeats`` counts the positions beyond each distinct
    word's first, and the mask table is built the first time the scan
    needs it.
    """

    def __missing__(self, text: str) -> list:
        words = tuple(tokenize_words(text))
        word_set = frozenset(words)
        record = [words, len(words), word_set, len(words) - len(word_set), None]
        self[text] = record
        return record


@dataclass(**DATACLASS_SLOTS)
class MatchingStats:
    """Instrumentation counters for the §8 performance study.

    ``leaf_compares`` is the paper's ``r1`` (invocations of ``compare``);
    ``partner_checks`` is ``r2`` (cheap integer comparisons performed while
    evaluating Criterion 2 on internal nodes).
    """

    leaf_compares: int = 0
    partner_checks: int = 0
    lcs_calls: int = 0


@dataclass
class MatchConfig:
    """Parameters of the Good Matching problem.

    Attributes
    ----------
    f:
        Leaf distance threshold of Criterion 1 (``0 <= f <= 1``).
    t:
        Internal-node containment threshold of Criterion 2
        (``1/2 <= t <= 1``). This is LaDiff's "match threshold" parameter.
    registry:
        Comparator registry that realizes ``compare``; defaults to word-LCS
        for strings.
    match_empty_internals:
        Criterion 2's ratio is 0/0 for internal nodes without leaf
        descendants; when True (default) two such nodes may match if their
        labels agree.
    always_match_roots:
        When True (default), two same-labeled roots that survived the main
        pass unmatched are paired anyway. Document roots represent "the
        document" regardless of content overlap; without this, heavily
        edited small documents degrade to a full delete/re-insert (the
        paper's dummy-root wrap handles correctness but yields much larger
        scripts). Extension over the paper's criteria.
    """

    f: float = 0.6
    t: float = 0.5
    registry: CompareRegistry = field(default_factory=CompareRegistry)
    match_empty_internals: bool = True
    always_match_roots: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise ConfigError(f"f must be in [0, 1], got {self.f}")
        if not 0.5 <= self.t <= 1.0:
            raise ConfigError(f"t must be in [1/2, 1], got {self.t}")


class CriteriaContext:
    """Shared per-run state: the two trees' arena snapshots and the counters.

    Criterion-2 evaluation reads everything it needs from each tree's
    :class:`~repro.core.arena.TreeArena`: ``|x|`` is its leaf count,
    contained leaves come from its flat leaf spans, and containment is one
    preorder-interval comparison. The pipeline's ``index`` stage builds the
    arenas' tables once per snapshot; otherwise the first read here does.
    The trees must not change while the context is in use.
    """

    __slots__ = (
        "t1",
        "t2",
        "config",
        "stats",
        "arena1",
        "arena2",
        "_word_routes",
        "_sentences",
    )

    def __init__(
        self,
        t1: Tree,
        t2: Tree,
        config: Optional[MatchConfig] = None,
        stats: Optional[MatchingStats] = None,
    ) -> None:
        self.t1 = t1
        self.t2 = t2
        self.config = config if config is not None else MatchConfig()
        self.stats = stats if stats is not None else MatchingStats()
        self.arena1 = t1.to_arena()
        self.arena2 = t2.to_arena()
        # Criterion 1's compiled form: per label, whether its comparator is
        # the default one; per distinct sentence, its tokenized record.
        self._word_routes: Dict[Optional[str], bool] = {}
        self._sentences = _SentenceRecords()

    # ------------------------------------------------------------------
    # Criterion 1
    # ------------------------------------------------------------------
    def leaves_equal(self, x: Node, y: Node) -> bool:
        """The paper's ``equal`` for leaves (Section 5.2): same label, and
        :meth:`leaf_values_equal` on their values."""
        label = x.label
        return label == y.label and self.leaf_values_equal(label, x.value, y.value)

    def leaf_values_equal(self, label: str, a: Any, b: Any) -> bool:
        """Criterion 1 on the values *a* and *b* of two leaves labeled *label*.

        Every call is one ``compare`` of the paper's ``r1``. Two ``str``
        values under a label routed to
        :func:`~repro.compare.generic.default_compare` are decided here,
        with the same answer as ``word_lcs_distance(a, b) <= f``: equal
        strings match, empty (or whitespace-only) sentences are decided as
        that function decides them, an exact word-set bound on ``|LCS|``
        rejects most pairs, and only the rest run the bit-parallel scan
        against the first sentence's cached mask table. Every other pair
        (any registered comparator, a wrapper of the default included)
        goes through ``registry.compare(a, b, label) <= f``.
        """
        self.stats.leaf_compares += 1
        config = self.config
        if type(a) is str and type(b) is str:
            routes = self._word_routes
            words_route = routes.get(label)
            if words_route is None:
                words_route = routes[label] = (
                    config.registry.comparator_for(label) is default_compare
                )
            if words_route:
                if a == b:
                    return True
                sentences = self._sentences
                sentence_a = sentences[a]
                sentence_b = sentences[b]
                na = sentence_a[1]
                nb = sentence_b[1]
                if not na or not nb:
                    return (0.0 if na == nb else 2.0) <= config.f
                # Every distinct word of a sentence that the other lacks
                # keeps at least one of its positions out of the LCS, so
                # |LCS| <= shared distinct words + the fewer repeats.
                shared = len(sentence_a[2] & sentence_b[2])
                repeats_a = sentence_a[3]
                repeats_b = sentence_b[3]
                bound = shared + (repeats_a if repeats_a < repeats_b else repeats_b)
                longest = na if na >= nb else nb
                if (na + nb - 2 * bound) / longest > config.f:
                    return False
                masks = sentence_a[4]
                if masks is None:
                    masks = sentence_a[4] = match_masks(sentence_a[0])
                common = lcs_scan(masks, na, sentence_b[0])
                return (na + nb - 2 * common) / longest <= config.f
        return config.registry.compare(a, b, label) <= config.f

    # ------------------------------------------------------------------
    # Criterion 2
    # ------------------------------------------------------------------
    def common_count(self, x: Node, y: Node, matching: Matching) -> int:
        """``|common(x, y)|``: matched leaf pairs contained in both subtrees.

        Walks the leaves of ``x`` (a span of T1's flat leaf-position array)
        and tests whether each partner lies under ``y`` (one preorder-interval
        comparison in T2's arena); every test counts as one partner check
        (the paper's ``r2``). No node objects are touched.
        """
        arena1 = self.arena1
        arena2 = self.arena2
        node_ids1 = arena1.node_ids
        leaf_positions = arena1.leaf_positions
        x_pos = arena1.pos_of[x.id]
        start = arena1.leaf_start[x_pos]
        stop = start + arena1.leaf_count[x_pos]
        pos_of2 = arena2.pos_of
        y_pos = pos_of2[y.id]
        y_end = y_pos + arena2.subtree_size[y_pos]
        partner1 = matching.partner1
        stats = self.stats
        count = 0
        for i in range(start, stop):
            partner_id = partner1(node_ids1[leaf_positions[i]])
            stats.partner_checks += 1
            if partner_id is None:
                continue
            partner_pos = pos_of2[partner_id]
            if y_pos < partner_pos < y_end:
                count += 1
        return count

    def internals_equal(self, x: Node, y: Node, matching: Matching) -> bool:
        """The paper's ``equal`` for internal nodes (Section 5.2).

        ``|x|`` counts the leaves an internal node *contains*; a childless
        internal node (e.g. an emptied paragraph) contains none, so such
        pairs fall back to the ``match_empty_internals`` policy.
        """
        if x.label != y.label:
            return False
        arena1, arena2 = self.arena1, self.arena2
        size_x = 0 if x.is_leaf else arena1.leaf_count[arena1.pos_of[x.id]]
        size_y = 0 if y.is_leaf else arena2.leaf_count[arena2.pos_of[y.id]]
        biggest = max(size_x, size_y)
        if biggest == 0:
            return self.config.match_empty_internals
        common = self.common_count(x, y, matching)
        return common / biggest > self.config.t

    def nodes_equal(self, x: Node, y: Node, matching: Matching) -> bool:
        """Dispatch to the leaf or internal predicate by node kind."""
        if x.is_leaf and y.is_leaf:
            return self.leaves_equal(x, y)
        if x.is_leaf or y.is_leaf:
            # A leaf and an internal node never match: Criterion 1 cannot be
            # evaluated on an interior node's (typically null) value and
            # Criterion 2 needs two subtrees.
            return False
        return self.internals_equal(x, y, matching)


def apply_root_policy(t1: Tree, t2: Tree, matching: Matching, config: MatchConfig) -> None:
    """Pair unmatched same-label roots when the config asks for it."""
    if not config.always_match_roots:
        return
    if t1.root is None or t2.root is None:
        return
    if matching.has1(t1.root.id) or matching.has2(t2.root.id):
        return
    if t1.root.label == t2.root.label:
        matching.add(t1.root.id, t2.root.id)


# ---------------------------------------------------------------------------
# Criterion 3 diagnostics
# ---------------------------------------------------------------------------
def criterion3_violations(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
) -> List[Tuple[Node, List[Node]]]:
    """Return leaves with more than one "close" counterpart.

    For each leaf ``x`` of ``t1``, collect the leaves ``y`` of ``t2`` with
    the same label and ``compare(v(x), v(y)) <= 1``; pairs with two or more
    candidates violate Matching Criterion 3. (The symmetric direction is
    obtained by swapping arguments.) Each pair is tested by
    :meth:`CriteriaContext.leaves_equal` at ``f = 1``. Quadratic — intended
    for analysis and tests, not for the matching hot path.
    """
    registry = (config if config is not None else MatchConfig()).registry
    context = CriteriaContext(t1, t2, MatchConfig(f=1.0, registry=registry), MatchingStats())
    leaves2_by_label: Dict[str, List[Node]] = {}
    for leaf in t2.leaves():
        leaves2_by_label.setdefault(leaf.label, []).append(leaf)
    violations: List[Tuple[Node, List[Node]]] = []
    for x in t1.leaves():
        close = [y for y in leaves2_by_label.get(x.label, ()) if context.leaves_equal(x, y)]
        if len(close) > 1:
            violations.append((x, close))
    return violations


def criterion3_holds(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
) -> bool:
    """True when Matching Criterion 3 holds in both directions."""
    return not criterion3_violations(t1, t2, config) and not criterion3_violations(
        t2, t1, config
    )
