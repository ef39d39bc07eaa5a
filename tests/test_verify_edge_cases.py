"""Edge-case sweep through the full pipeline, checked by the oracle battery.

Every case runs under both matchers ("fast" and "simple") and must pass all
conformance oracles plus the differential crosscheck.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.tree import Tree
from repro.matching.criteria import MatchConfig
from repro.pipeline import DiffConfig, DiffPipeline
from repro.verify.differential import differential_check
from repro.verify.oracles import verify_result

ALGORITHMS = ("fast", "simple")


def checked_diff(t1, t2, algorithm):
    result = DiffPipeline(
        DiffConfig(algorithm=algorithm, build_delta=True)
    ).run(t1, t2)
    report = verify_result(t1, t2, result, config=MatchConfig())
    assert report.ok, [str(v) for v in report.samples]
    return result


# ---------------------------------------------------------------------------
# Empty and single-node trees
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_trees_are_rejected_loudly(algorithm):
    pipeline = DiffPipeline(DiffConfig(algorithm=algorithm))
    with pytest.raises(ValueError, match="non-empty"):
        pipeline.run(Tree(), Tree())
    with pytest.raises(ValueError, match="non-empty"):
        pipeline.run(Tree.from_obj(("D", "x")), Tree())
    with pytest.raises(ValueError, match="non-empty"):
        pipeline.run(Tree(), Tree.from_obj(("D", "x")))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_node_identical(algorithm):
    result = checked_diff(
        Tree.from_obj(("D", "same text")), Tree.from_obj(("D", "same text")),
        algorithm,
    )
    assert len(result.edit.script) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_node_value_change(algorithm):
    result = checked_diff(
        Tree.from_obj(("D", "old text")), Tree.from_obj(("D", "new words")),
        algorithm,
    )
    assert len(result.edit.script.updates) == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_node_label_change_forces_wrapping(algorithm):
    t1 = Tree.from_obj(("A", "same text"))
    t2 = Tree.from_obj(("B", "same text"))
    result = checked_diff(t1, t2, algorithm)
    # Nothing matches, so the generator dummy-wraps and rebuilds wholesale.
    assert result.edit.wrapped
    assert len(result.edit.script.inserts) == 1
    assert len(result.edit.script.deletes) == 1


# ---------------------------------------------------------------------------
# All-identical-label siblings (worst case for Criterion 3 tie-breaking)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_identical_sibling_values_permuted(algorithm):
    t1 = Tree.from_obj(("D", None, [("S", "x") for _ in range(10)]))
    # Same multiset of leaves, one pruned and the rest "permuted" (identical
    # values make every permutation look the same to the matcher).
    t2 = Tree.from_obj(("D", None, [("S", "x") for _ in range(9)]))
    result = checked_diff(t1, t2, algorithm)
    assert len(result.edit.script.deletes) == 1
    outcome = differential_check(t1, t2)
    assert outcome.ok, [str(v) for v in outcome.violations]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_identical_siblings_with_one_oddball_moved(algorithm):
    clones = [("S", "x") for _ in range(6)]
    t1 = Tree.from_obj(("D", None, [("S", "odd one out")] + clones))
    t2 = Tree.from_obj(("D", None, clones + [("S", "odd one out")]))
    checked_diff(t1, t2, algorithm)


# ---------------------------------------------------------------------------
# Deeply skewed trees (depth approaches node count)
# ---------------------------------------------------------------------------
def _chain(depth, tail_value):
    spec = ("S", tail_value)
    for _ in range(depth):
        spec = ("P", None, [spec])
    return Tree.from_obj(("D", None, [spec]))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_deeply_skewed_chain(algorithm):
    # Depth ~150 stays comfortably inside CPython's default recursion limit
    # while still being pathologically skewed (depth == n - 2).
    assert sys.getrecursionlimit() >= 1000
    t1 = _chain(150, "alpha bravo charlie")
    # Appending one word keeps the leaf inside Criterion 1's distance
    # threshold, so the whole chain stays matched and the script is a
    # single update rather than a wholesale rebuild.
    t2 = _chain(150, "alpha bravo charlie delta")
    result = checked_diff(t1, t2, algorithm)
    assert len(result.edit.script.updates) == 1
    assert not result.edit.script.moves


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_skewed_chain_grows_one_level(algorithm):
    t1 = _chain(120, "alpha bravo charlie")
    t2 = _chain(121, "alpha bravo charlie")
    result = checked_diff(t1, t2, algorithm)
    assert len(result.edit.script.inserts) >= 1


# ---------------------------------------------------------------------------
# Unicode and whitespace-heavy values
# ---------------------------------------------------------------------------
UNICODE_DOC = (
    "D", None, [
        ("P", None, [("S", "naïve café résumé"), ("S", "日本語テスト 文書")]),
        ("P", None, [("S", "emoji 🌲 in a tree"), ("S", "  leading spaces")]),
        ("P", None, [("S", "tabs\tand\nnewlines"), ("S", "")]),
    ],
)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unicode_identical(algorithm):
    result = checked_diff(
        Tree.from_obj(UNICODE_DOC), Tree.from_obj(UNICODE_DOC), algorithm
    )
    assert len(result.edit.script) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unicode_edits(algorithm):
    t1 = Tree.from_obj(UNICODE_DOC)
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "naïve café résumé"), ("S", "日本語テスト 文書 更新")]),
            ("P", None, [("S", "tabs\tand\nnewlines"), ("S", "")]),
            ("P", None, [("S", "emoji 🌲 in a tree"), ("S", " nbsp value")]),
        ]),
    )
    result = checked_diff(t1, t2, algorithm)
    assert len(result.edit.script) > 0
    outcome = differential_check(t1, t2)
    assert outcome.ok, [str(v) for v in outcome.violations]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_whitespace_only_values(algorithm):
    t1 = Tree.from_obj(("D", None, [("S", "   "), ("S", "\t\t"), ("S", " a ")]))
    t2 = Tree.from_obj(("D", None, [("S", "\t\t"), ("S", " a "), ("S", "   ")]))
    checked_diff(t1, t2, algorithm)
