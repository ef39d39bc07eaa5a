"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import random
import time

import pytest

from repro.core.arena import ArenaBuilder
from repro.core.tree import Tree


@pytest.fixture
def forbid_real_sleep(monkeypatch):
    """Fail loudly if anything blocks on the wall clock.

    Tests that drive SimClock-based code (simtest scenarios, obs tracing
    under virtual time) request this so a regression that sneaks a real
    ``time.sleep`` back into the simulated stack fails instead of stalling.
    """

    def guard(seconds):
        raise AssertionError(
            f"real time.sleep({seconds!r}) called during a virtual-time test"
        )

    monkeypatch.setattr(time, "sleep", guard)


@pytest.fixture
def figure1_trees():
    """The paper's running example (Figure 1): T1 and T2.

    T1:  D(P(S a, S b), P(S c), P(S d, S e, S f))
    T2:  D(P(S a), P(S d, S e, S f, S g), P(S c))
    """
    t1 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "a"), ("S", "b")]),
            ("P", None, [("S", "c")]),
            ("P", None, [("S", "d"), ("S", "e"), ("S", "f")]),
        ])
    )
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "a")]),
            ("P", None, [("S", "d"), ("S", "e"), ("S", "f"), ("S", "g")]),
            ("P", None, [("S", "c")]),
        ])
    )
    return t1, t2


@pytest.fixture
def example31_tree():
    """The initial tree of the paper's Example 3.1 (Figure 3 shape).

    A document with three sections; section 2 has two sentences that the
    example moves under a newly inserted section.
    """
    return Tree.from_obj(
        ("D", None, [
            ("Sec", "s1", [("S", "one")]),
            ("Sec", "s2", [("S", "a"), ("S", "b")]),
            ("Sec", "s3", [("S", "baz old")]),
        ])
    )


def build_tree(spec) -> Tree:
    """Shorthand used across test modules."""
    return Tree.from_obj(spec)


def random_document_tree(seed: int, depth: int = 3, fanout: int = 4) -> Tree:
    """A small random document-shaped tree with unique sentence values."""
    rng = random.Random(seed)
    builder = ArenaBuilder()
    counter = [0]

    def add(parent_pos, label, value):
        return builder.add(parent_pos, len(builder.node_ids) + 1, label, value)

    def grow(parent_pos, level):
        for _ in range(rng.randint(1, fanout)):
            if level >= depth or rng.random() < 0.4:
                counter[0] += 1
                add(parent_pos, "S", f"sentence {counter[0]} seed {seed}")
            else:
                grow(add(parent_pos, "P", None), level + 1)

    grow(add(-1, "D", None), 1)
    return Tree.from_arena(builder.finish())
