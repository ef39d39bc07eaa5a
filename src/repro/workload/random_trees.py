"""Seeded random ordered trees for tests and micro-benchmarks.

These are *shape* workloads (arbitrary labeled trees), as opposed to the
document-structured workloads of :mod:`repro.workload.documents`. All
generation is driven by a caller-supplied :class:`random.Random` or seed, so
every test and benchmark is reproducible. Each generator fills an
:class:`~repro.core.arena.ArenaBuilder` depth-first, so node ids are the
creation (preorder) ranks 1..n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..core.arena import ArenaBuilder
from ..core.tree import Tree

DEFAULT_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor "
    "whiskey xray yankee zulu"
).split()


@dataclass
class RandomTreeSpec:
    """Parameters for random tree generation.

    ``leaf_labels`` / ``internal_labels`` are drawn uniformly; values are
    random word sequences for leaves and ``None`` for internal nodes.
    """

    max_depth: int = 4
    max_children: int = 5
    min_children: int = 1
    leaf_probability: float = 0.4
    leaf_labels: Sequence[str] = ("S",)
    internal_labels: Sequence[str] = ("P",)
    root_label: str = "D"
    words_per_leaf: int = 4
    vocabulary: Sequence[str] = field(default_factory=lambda: list(DEFAULT_WORDS))


def random_tree(
    rng_or_seed: Union[random.Random, int],
    spec: Optional[RandomTreeSpec] = None,
) -> Tree:
    """Generate a random ordered tree according to *spec*."""
    rng = _as_rng(rng_or_seed)
    spec = spec if spec is not None else RandomTreeSpec()
    builder = ArenaBuilder()
    # Materialize the label/word pools once, not per node.
    leaf_labels = list(spec.leaf_labels)
    internal_labels = list(spec.internal_labels)
    vocabulary = list(spec.vocabulary)

    def add(parent_pos: int, label: str, value) -> int:
        return builder.add(parent_pos, len(builder.node_ids) + 1, label, value)

    def grow(parent_pos: int, depth: int) -> None:
        children = rng.randint(spec.min_children, spec.max_children)
        for _ in range(children):
            make_leaf = depth >= spec.max_depth or rng.random() < spec.leaf_probability
            if make_leaf:
                add(
                    parent_pos,
                    rng.choice(leaf_labels),
                    random_sentence(rng, spec.words_per_leaf, vocabulary),
                )
            else:
                grow(add(parent_pos, rng.choice(internal_labels), None), depth + 1)

    grow(add(-1, spec.root_label, None), 1)
    return Tree.from_arena(builder.finish())


def random_sentence(
    rng: random.Random,
    mean_words: int = 4,
    vocabulary: Sequence[str] = DEFAULT_WORDS,
) -> str:
    """A random word sequence of roughly *mean_words* words."""
    count = max(1, int(rng.gauss(mean_words, mean_words / 3)))
    words = list(vocabulary)
    return " ".join(rng.choice(words) for _ in range(count))


def random_flat_tree(
    rng_or_seed: Union[random.Random, int],
    leaves: int,
    leaf_label: str = "S",
    root_label: str = "D",
    vocabulary: Sequence[str] = DEFAULT_WORDS,
) -> Tree:
    """A depth-1 tree with *leaves* random leaves (sequence-like workloads)."""
    rng = _as_rng(rng_or_seed)
    builder = ArenaBuilder()
    builder.add(-1, 1, root_label, None)
    for node_id in range(2, leaves + 2):
        builder.add(0, node_id, leaf_label, random_sentence(rng, 4, vocabulary))
    return Tree.from_arena(builder.finish())


def perfect_tree(
    fanout: int,
    depth: int,
    leaf_label: str = "S",
    internal_label: str = "P",
    root_label: str = "D",
) -> Tree:
    """A deterministic perfect *fanout*-ary tree of the given depth.

    Leaves get distinct numeric string values so the tree has no duplicate
    content (Criterion 3 holds trivially).
    """
    builder = ArenaBuilder()
    counter = [0]

    def add(parent_pos: int, label: str, value) -> int:
        return builder.add(parent_pos, len(builder.node_ids) + 1, label, value)

    def grow(parent_pos: int, level: int) -> None:
        for _ in range(fanout):
            if level >= depth:
                counter[0] += 1
                add(parent_pos, leaf_label, f"leaf {counter[0]}")
            else:
                grow(add(parent_pos, internal_label, None), level + 1)

    root = add(-1, root_label, None)
    if depth > 0:
        grow(root, 1)
    return Tree.from_arena(builder.finish())


def _as_rng(rng_or_seed: Union[random.Random, int]) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(rng_or_seed)
