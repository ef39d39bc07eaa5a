"""Seed-determinism properties for every ``repro.workload`` generator.

The fuzz harness (``repro.verify.fuzz``) depends on these: a repro file is
only useful if the generators replay byte-identically from the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import tree_to_dict
from repro.merge import three_way_merge
from repro.workload.corpus import make_document_set
from repro.workload.documents import DocumentGenerator, DocumentSpec, generate_document
from repro.workload.mutations import MutationEngine, MutationMix
from repro.workload.random_trees import (
    RandomTreeSpec,
    perfect_tree,
    random_flat_tree,
    random_sentence,
    random_tree,
)

SEEDS = st.integers(min_value=0, max_value=10**9)


@given(seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_random_tree_is_seed_deterministic(seed):
    spec = RandomTreeSpec(max_depth=4, max_children=4)
    first = random_tree(random.Random(seed), spec)
    second = random_tree(random.Random(seed), spec)
    assert tree_to_dict(first) == tree_to_dict(second)


def test_random_tree_accepts_bare_seed():
    assert tree_to_dict(random_tree(42)) == tree_to_dict(random_tree(42))


@given(seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_random_flat_tree_is_seed_deterministic(seed):
    first = random_flat_tree(random.Random(seed), leaves=12)
    second = random_flat_tree(random.Random(seed), leaves=12)
    assert tree_to_dict(first) == tree_to_dict(second)


@given(seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_random_sentence_is_seed_deterministic(seed):
    assert random_sentence(random.Random(seed)) == random_sentence(
        random.Random(seed)
    )


def test_perfect_tree_is_fully_deterministic():
    assert tree_to_dict(perfect_tree(3, 3)) == tree_to_dict(perfect_tree(3, 3))


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_mutation_engine_is_seed_deterministic(seed):
    base = random_tree(random.Random(seed ^ 0xBEEF))
    mix = MutationMix()

    def run():
        engine = MutationEngine(random.Random(seed), mix=mix)
        return engine.mutate(base, operations=8)

    first, second = run(), run()
    assert first.record.applied == second.record.applied
    assert first.record.true_d == second.record.true_d
    assert first.record.true_e == pytest.approx(second.record.true_e)
    assert tree_to_dict(first.tree) == tree_to_dict(second.tree)
    # ... and the input tree was not mutated in place.
    assert tree_to_dict(base) == tree_to_dict(
        random_tree(random.Random(seed ^ 0xBEEF))
    )


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_document_generator_is_seed_deterministic(seed):
    spec = DocumentSpec()

    def run():
        return DocumentGenerator(random.Random(seed)).document(spec)

    assert tree_to_dict(run()) == tree_to_dict(run())


def test_different_seeds_differ():
    # Not a strict guarantee, but catches a generator ignoring its rng.
    a = tree_to_dict(random_tree(1))
    b = tree_to_dict(random_tree(2))
    assert a != b
    assert random_sentence(random.Random(1)) != random_sentence(random.Random(2))


# ---------------------------------------------------------------------------
# Goldens: every generator reproduces the exact trees, ids included, that
# it made before generation moved onto ArenaBuilder.
# ---------------------------------------------------------------------------
#: Subsections, lists and duplicate sentences, so every branch of
#: ``DocumentGenerator`` runs.
GOLDEN_SPEC = DocumentSpec(
    sections=3,
    paragraphs_per_section=4,
    sentences_per_paragraph=3,
    subsection_probability=0.25,
    list_probability=0.25,
    duplicate_sentence_rate=0.2,
)


def _sha(tree):
    dumped = json.dumps(tree_to_dict(tree), sort_keys=True)
    return hashlib.sha256(dumped.encode()).hexdigest()


def _fresh_arena(tree):
    """Generated trees are born as arena views, never built node by node."""
    assert tree.arena_snapshot() is not None
    return tree


@pytest.mark.parametrize("seed, digest", [
    (1, "e6ef5dd8c315dacaf3f5b8d8118cdae2edde86e22a69f8a7b7092a95c6f8d2f8"),
    (2, "00fa06402bc15cc2f19964fe00437fd100c48d8880482e3357d3d0dc71d9f79e"),
    (3, "edbc022469762d917fa002621a543f4309061f03a28a67002e793ac60d107f62"),
], ids=["seed1", "seed2", "seed3"])
def test_random_tree_golden(seed, digest):
    spec = RandomTreeSpec(max_depth=4, max_children=4)
    assert _sha(_fresh_arena(random_tree(seed, spec))) == digest


@pytest.mark.parametrize("seed, digest", [
    (1, "f3e3e715608a5c0482c86f12a38ea48c77647d6c3d45d51aaf0aaf2b2d8a1dfb"),
    (2, "e0eb207940b60e738d9fe692b0386d54d7cf457fa7c7327d7f4a6c4f2e283c3f"),
    (3, "0b0399b46b98883ca7a6e498854d795187e40f2bb44473ed6cdf2db26715208d"),
], ids=["seed1", "seed2", "seed3"])
def test_random_flat_tree_golden(seed, digest):
    assert _sha(_fresh_arena(random_flat_tree(seed, 40))) == digest


@pytest.mark.parametrize("fanout, depth, digest", [
    (3, 3, "3e75bd0e17445c7496e5bd232566e76a12a798bfa4fbfdcf0bcdc6bcddbce209"),
    (2, 0, "b0c21d5ba1e4f9a262b8281784f88b0bcaf53b1de4b053263c43ed7ba02478bd"),
], ids=["3x3", "depth0"])
def test_perfect_tree_golden(fanout, depth, digest):
    assert _sha(_fresh_arena(perfect_tree(fanout, depth))) == digest


@pytest.mark.parametrize("seed, digest", [
    (1, "5b378edbfe84b8785039df1b62555f1292cc6bb4135e1db451277c54af136fbf"),
    (2, "72bdf0e089b7d13b368a0b98ee376d1b30b0045da9772738c03795c3449168f2"),
    (3, "afac4c41165646643162218e706f710fa27dd7295389c6ace495264b821493b1"),
], ids=["seed1", "seed2", "seed3"])
def test_generate_document_golden(seed, digest):
    assert _sha(_fresh_arena(generate_document(seed, GOLDEN_SPEC))) == digest


@pytest.mark.parametrize("seed, digest", [
    (1, "b2572a262cc3a3ae5cdce02fa77bf2dc2a5e692180a3c90674384a051b787fe6"),
    (2, "b22640a8d2ca22b9ee4324a46e6c4082532faae43fe51f7a3340f0efac65252b"),
    (3, "26f23756ef9e236b03903722cb24c142b6add5fe9fb1a8a9afd6c0884d09bd9b"),
], ids=["seed1", "seed2", "seed3"])
def test_mutation_engine_golden(seed, digest):
    base = generate_document(seed + 100, GOLDEN_SPEC)
    mutated = MutationEngine(seed).mutate(base, 15)
    assert {"insert_leaf", "insert_subtree"} <= set(mutated.record.applied)
    assert _sha(mutated.tree) == digest


def test_make_document_set_golden():
    document_set = make_document_set("A", 7, DocumentSpec(3, 3, 3), edit_counts=(0, 5, 20))
    _fresh_arena(document_set.versions[0].tree)
    joined = "".join(_sha(version.tree) for version in document_set.versions)
    assert hashlib.sha256(joined.encode()).hexdigest() == (
        "09ac1311321634e6761c4065ade3b1824a00027868e8f83f8baaeb9f6ba7640d"
    )


def test_three_way_merge_golden():
    base = generate_document(21, GOLDEN_SPEC)
    left = MutationEngine(22).mutate(base, 6).tree
    inserts_only = MutationMix(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    right = MutationEngine(23, mix=inserts_only).mutate(base, 6).tree
    result = three_way_merge(base, left, right)
    assert (result.applied_right_ops, len(result.conflicts)) == (19, 1)
    assert _sha(result.tree) == (
        "72bc1724a94229b4d5d51693bf2a662f840d45e197ea7a06777f3801fbce33f4"
    )
