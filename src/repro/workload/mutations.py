"""Seeded mutation engine: derive "new versions" from a base tree.

The §8 evaluation needs pairs of versions whose true edit structure is
known. :class:`MutationEngine` applies a configurable mix of the paper's
edit operations to a copy of a tree and records what it did, including the
ground-truth unweighted (``d``) and weighted (``e``) edit sizes of the
applied script (moves weigh their subtree's leaf count, updates weigh 0 —
Section 5.3's definition).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.node import Node
from ..core.tree import Tree
from .documents import CONTENT_WORDS, VOCABULARY


@dataclass
class MutationMix:
    """Relative frequencies of the edit kinds the engine applies."""

    insert_leaf: float = 1.0
    delete_leaf: float = 1.0
    update_leaf: float = 1.0
    move_leaf: float = 1.0
    move_subtree: float = 0.5
    insert_subtree: float = 0.3
    delete_subtree: float = 0.3

    def normalized(self) -> Dict[str, float]:
        weights = {
            "insert_leaf": self.insert_leaf,
            "delete_leaf": self.delete_leaf,
            "update_leaf": self.update_leaf,
            "move_leaf": self.move_leaf,
            "move_subtree": self.move_subtree,
            "insert_subtree": self.insert_subtree,
            "delete_subtree": self.delete_subtree,
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("mutation mix has no positive weights")
        return {kind: weight / total for kind, weight in weights.items()}


@dataclass
class MutationRecord:
    """What one engine run actually did."""

    applied: List[str] = field(default_factory=list)
    #: ground-truth unweighted edit distance (one per applied operation;
    #: subtree inserts/deletes count one per node touched).
    true_d: int = 0
    #: ground-truth weighted edit distance (Section 5.3 weights).
    true_e: float = 0.0

    def count(self, kind: str) -> int:
        return sum(1 for applied in self.applied if applied == kind)


class MutationEngine:
    """Applies random document edits while tracking ground truth."""

    def __init__(
        self,
        rng_or_seed: Union[random.Random, int] = 0,
        mix: Optional[MutationMix] = None,
        leaf_label: str = "S",
    ) -> None:
        self.rng = (
            rng_or_seed
            if isinstance(rng_or_seed, random.Random)
            else random.Random(rng_or_seed)
        )
        self.mix = mix if mix is not None else MutationMix()
        self.leaf_label = leaf_label

    # ------------------------------------------------------------------
    def mutate(self, tree: Tree, operations: int) -> "MutatedTree":
        """Return a mutated copy of *tree* after *operations* random edits."""
        work = tree.copy()
        record = MutationRecord()
        weights = self.mix.normalized()
        kinds = list(weights)
        probabilities = [weights[kind] for kind in kinds]
        applied = 0
        attempts = 0
        while applied < operations and attempts < operations * 20:
            attempts += 1
            kind = self.rng.choices(kinds, weights=probabilities, k=1)[0]
            if getattr(self, "_" + kind)(work, record):
                applied += 1
        return MutatedTree(tree=work, record=record)

    # ------------------------------------------------------------------
    # Individual mutations. Each returns True when it applied.
    # ------------------------------------------------------------------
    def _insert_leaf(self, tree: Tree, record: MutationRecord) -> bool:
        parents = [n for n in tree.preorder() if not n.is_leaf or n.parent is None]
        parents = [n for n in parents if self._accepts_leaves(n)]
        if not parents:
            return False
        parent = self.rng.choice(parents)
        position = self.rng.randint(1, len(parent.children) + 1)
        tree.insert(
            tree.fresh_id(), self.leaf_label, self._fresh_sentence(), parent.id, position
        )
        record.applied.append("insert_leaf")
        record.true_d += 1
        record.true_e += 1.0
        return True

    def _delete_leaf(self, tree: Tree, record: MutationRecord) -> bool:
        leaves = [n for n in tree.leaves() if n.parent is not None]
        if not leaves:
            return False
        tree.delete(self.rng.choice(leaves).id)
        record.applied.append("delete_leaf")
        record.true_d += 1
        record.true_e += 1.0
        return True

    def _update_leaf(self, tree: Tree, record: MutationRecord) -> bool:
        leaves = [n for n in tree.leaves() if isinstance(n.value, str)]
        if not leaves:
            return False
        leaf = self.rng.choice(leaves)
        tree.update(leaf.id, self._perturb_sentence(str(leaf.value)))
        record.applied.append("update_leaf")
        record.true_d += 1
        # updates weigh 0 in the weighted edit distance
        return True

    def _move_leaf(self, tree: Tree, record: MutationRecord) -> bool:
        leaves = [n for n in tree.leaves() if n.parent is not None]
        if not leaves:
            return False
        leaf = self.rng.choice(leaves)
        targets = [
            n
            for n in tree.preorder()
            if not n.is_leaf and n is not leaf and self._accepts_leaves(n)
        ]
        if not targets:
            return False
        target = self.rng.choice(targets)
        limit = len(target.children) + (0 if leaf.parent is target else 1)
        if limit < 1:
            return False
        tree.move(leaf.id, target.id, self.rng.randint(1, limit))
        record.applied.append("move_leaf")
        record.true_d += 1
        record.true_e += 1.0
        return True

    def _move_subtree(self, tree: Tree, record: MutationRecord) -> bool:
        movables = [
            n
            for n in tree.preorder()
            if n.parent is not None and not n.is_leaf
        ]
        if not movables:
            return False
        subtree = self.rng.choice(movables)
        targets = [
            n
            for n in tree.preorder()
            if not n.is_leaf
            and n is not subtree
            and not subtree.is_ancestor_of(n)
            and self._same_stratum(subtree, n)
        ]
        if not targets:
            return False
        target = self.rng.choice(targets)
        limit = len(target.children) + (0 if subtree.parent is target else 1)
        if limit < 1:
            return False
        leaf_weight = subtree.leaf_count()
        tree.move(subtree.id, target.id, self.rng.randint(1, limit))
        record.applied.append("move_subtree")
        record.true_d += 1
        record.true_e += leaf_weight
        return True

    def _insert_subtree(self, tree: Tree, record: MutationRecord) -> bool:
        parents = [
            n
            for n in tree.preorder()
            if not n.is_leaf and any(not c.is_leaf for c in n.children)
        ]
        if not parents:
            return False
        parent = self.rng.choice(parents)
        template = next(c for c in parent.children if not c.is_leaf)
        position = self.rng.randint(1, len(parent.children) + 1)
        node = tree.insert(tree.fresh_id(), template.label, None, parent.id, position)
        sentences = self.rng.randint(1, 4)
        for rank in range(1, sentences + 1):
            tree.insert(tree.fresh_id(), self.leaf_label, self._fresh_sentence(), node.id, rank)
        record.applied.append("insert_subtree")
        record.true_d += 1 + sentences
        record.true_e += 1 + sentences
        return True

    def _delete_subtree(self, tree: Tree, record: MutationRecord) -> bool:
        candidates = [
            n
            for n in tree.preorder()
            if n.parent is not None and not n.is_leaf and n.subtree_size() <= 12
        ]
        if not candidates:
            return False
        doomed = self.rng.choice(candidates)
        size = doomed.subtree_size()
        for node in list(doomed.postorder()):
            tree.delete(node.id)
        record.applied.append("delete_subtree")
        record.true_d += size
        record.true_e += size
        return True

    # ------------------------------------------------------------------
    def _accepts_leaves(self, node: Node) -> bool:
        """Only put sentences where sentences already live (or in empties)."""
        if node.is_leaf:
            return False
        return any(c.label == self.leaf_label for c in node.children) or all(
            c.is_leaf for c in node.children
        )

    def _same_stratum(self, subtree: Node, target: Node) -> bool:
        """Move paragraphs under sections, items under lists, etc."""
        if subtree.parent is None:
            return False
        return target.label == subtree.parent.label

    def _fresh_sentence(self) -> str:
        length = self.rng.randint(6, 14)
        words = [
            self.rng.choice(CONTENT_WORDS if self.rng.random() < 0.35 else VOCABULARY)
            for _ in range(length)
        ]
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def _perturb_sentence(self, text: str) -> str:
        """Change a few words so the sentence stays 'close' (compare < 1)."""
        words = text.split()
        if not words:
            return self._fresh_sentence()
        edits = max(1, len(words) // 6)
        for _ in range(edits):
            index = self.rng.randrange(len(words))
            words[index] = self.rng.choice(VOCABULARY)
        return " ".join(words)


@dataclass
class MutatedTree:
    """A mutated tree plus the ground-truth record of the edits applied."""

    tree: Tree
    record: MutationRecord
