"""Unit tests for every conformance oracle in ``repro.verify.oracles``.

Each oracle gets a passing case (a real pipeline result) and at least one
hand-built *violating* input that it must reject.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.node import Node
from repro.core.tree import Tree
from repro.editscript.operations import Delete, Insert, Update
from repro.editscript.script import EditScript
from repro.matching.criteria import MatchConfig
from repro.matching.matching import Matching
from repro.pipeline import DiffConfig, DiffPipeline
from repro.verify.oracles import (
    ORACLES,
    VerifyReport,
    Violation,
    check_conformance,
    check_cost_accounting,
    check_delta_consistency,
    check_index_consistency,
    check_matching_validity,
    check_replay,
    verify_result,
)


def diff(t1, t2, algorithm="fast"):
    return DiffPipeline(DiffConfig(algorithm=algorithm, build_delta=True)).run(t1, t2)


def leaf_by_value(tree, value):
    for leaf in tree.leaves():
        if leaf.value == value:
            return leaf
    raise AssertionError(f"no leaf with value {value!r}")


def messages(violations):
    return [v.message for v in violations]


# ---------------------------------------------------------------------------
# The battery on real results
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["fast", "simple"])
def test_battery_passes_on_pipeline_output(figure1_trees, algorithm):
    t1, t2 = figure1_trees
    result = diff(t1, t2, algorithm)
    report = verify_result(t1, t2, result, config=MatchConfig())
    assert report.ok, [str(v) for v in report.samples]
    # Every oracle ran (and no unknown names crept in).
    assert set(report.passes) == set(ORACLES)


def test_oracle_report_convenience(figure1_trees):
    t1, t2 = figure1_trees
    report = diff(t1, t2).oracle_report(t1, t2, config=MatchConfig())
    assert report.ok and report.total_checks() == len(ORACLES)


# ---------------------------------------------------------------------------
# Oracle 1: matching validity
# ---------------------------------------------------------------------------
def test_matching_rejects_unknown_ids(figure1_trees):
    t1, t2 = figure1_trees
    bad = Matching([(99999, t2.root.id)])
    assert "pair references unknown T1 node" in messages(
        check_matching_validity(t1, t2, bad)
    )
    bad2 = Matching([(t1.root.id, 99999)])
    assert "pair references unknown T2 node" in messages(
        check_matching_validity(t1, t2, bad2)
    )


def test_matching_rejects_label_mismatch(figure1_trees):
    t1, t2 = figure1_trees
    s_leaf = leaf_by_value(t1, "a")
    p_node = t2.root.children[0]  # a P internal
    bad = Matching([(s_leaf.id, p_node.id)])
    assert "matched pair has differing labels" in messages(
        check_matching_validity(t1, t2, bad)
    )


def test_matching_rejects_leaf_internal_pair():
    t1 = Tree.from_obj(("D", None, [("X", "leaf value")]))
    t2 = Tree.from_obj(("D", None, [("X", None, [("S", "below")])]))
    bad = Matching([(t1.root.children[0].id, t2.root.children[0].id)])
    assert "leaf matched to internal node" in messages(
        check_matching_validity(t1, t2, bad)
    )


def test_matching_root_pair_exempt_from_kind_check():
    # always_match_roots may legally pair a leaf root with an internal root.
    t1 = Tree.from_obj(("D", "just text"))
    t2 = Tree.from_obj(("D", None, [("S", "just text")]))
    roots = Matching([(t1.root.id, t2.root.id)])
    assert check_matching_validity(t1, t2, roots, MatchConfig()) == []


def test_matching_rejects_criterion1_violation():
    t1 = Tree.from_obj(("D", None, [("S", "alpha bravo charlie")]))
    t2 = Tree.from_obj(("D", None, [("S", "xylophone zebra quokka")]))
    pair = Matching([(t1.root.children[0].id, t2.root.children[0].id)])
    strict = MatchConfig(f=0.1)
    assert "leaf pair violates Criterion 1 (compare > f)" in messages(
        check_matching_validity(t1, t2, pair, strict)
    )
    # Without a config the criterion is not checkable and the pair stands.
    assert check_matching_validity(t1, t2, pair) == []


# ---------------------------------------------------------------------------
# Oracle 2: conformance
# ---------------------------------------------------------------------------
def test_conformance_passes_on_real_result(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    assert check_conformance(t1, t2, result.edit, result.matching) == []


def test_conformance_rejects_deleting_matched_node(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    matched_leaf = leaf_by_value(t1, "a")
    tampered = dataclasses.replace(
        result.edit,
        script=EditScript(list(result.edit.script) + [Delete(matched_leaf.id)]),
    )
    assert "script deletes a matched T1 node" in messages(
        check_conformance(t1, t2, tampered, result.matching)
    )


def test_conformance_rejects_missing_insert(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    pruned = EditScript(op for op in result.edit.script if not isinstance(op, Insert))
    tampered = dataclasses.replace(result.edit, script=pruned)
    found = messages(check_conformance(t1, t2, tampered, result.matching))
    assert "unmatched T2 node was not inserted" in found


def test_conformance_rejects_missing_delete(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    pruned = EditScript(op for op in result.edit.script if not isinstance(op, Delete))
    tampered = dataclasses.replace(result.edit, script=pruned)
    assert "unmatched T1 node was not deleted" in messages(
        check_conformance(t1, t2, tampered, result.matching)
    )


def test_conformance_rejects_dropped_matching_pair(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    # Claim an extra input pair the generator's M' never saw: the deleted
    # "b" leaf and the inserted "g" leaf share the S label.
    widened = result.matching.copy()
    widened.add(leaf_by_value(t1, "b").id, leaf_by_value(t2, "g").id)
    found = messages(check_conformance(t1, t2, result.edit, widened))
    assert "total matching dropped an input pair" in found


def test_conformance_rejects_insert_reusing_t1_id(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    reused = EditScript(
        list(result.edit.script)
        + [Insert(t1.root.id, "S", "dup", t1.root.id, 1)]
    )
    tampered = dataclasses.replace(result.edit, script=reused)
    assert "insert reuses a T1 identifier" in messages(
        check_conformance(t1, t2, tampered, result.matching)
    )


# ---------------------------------------------------------------------------
# Oracle 3: replay isomorphism
# ---------------------------------------------------------------------------
def test_replay_passes_and_rejects_tampered_value(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    assert check_replay(t1, t2, result.script) == []

    target = leaf_by_value(t1, "a")
    tampered = EditScript(list(result.script) + [Update(target.id, "WRONG", "a")])
    violations = check_replay(t1, t2, tampered)
    assert messages(violations) == ["replayed tree is not isomorphic to T2"]
    assert "WRONG" in str(violations[0].details["first_difference"])


def test_replay_reports_broken_script(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    broken = EditScript(list(result.script) + [Delete(424242)])
    assert "script failed to replay" in messages(check_replay(t1, t2, broken))


# ---------------------------------------------------------------------------
# Oracle 4: cost accounting + conservation law
# ---------------------------------------------------------------------------
def test_cost_accounting_passes(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    assert check_cost_accounting(t1, t2, result.script, result.cost()) == []


def test_cost_accounting_rejects_wrong_reported_cost(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    found = messages(
        check_cost_accounting(t1, t2, result.script, result.cost() + 1)
    )
    assert "reported cost differs from the sum of operation costs" in found


def test_cost_accounting_rejects_conservation_violation(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    pruned = EditScript(op for op in result.script if not isinstance(op, Delete))
    found = messages(check_cost_accounting(t1, t2, pruned))
    assert "conservation law violated: #INS - #DEL != |T2| - |T1|" in found


# ---------------------------------------------------------------------------
# Oracle 5: delta consistency
# ---------------------------------------------------------------------------
def test_delta_consistency_passes(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    assert (
        check_delta_consistency(
            t1, t2, result.edit, result.matching, delta=result.delta
        )
        == []
    )
    # Also buildable on demand when the pipeline skipped the delta stage.
    no_delta = DiffPipeline(DiffConfig()).run(t1, t2)
    assert (
        check_delta_consistency(t1, t2, no_delta.edit, no_delta.matching) == []
    )


def test_delta_consistency_rejects_tampered_delta(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    delta = result.delta
    # Drop a tombstone: the DEL count no longer agrees with the matching.
    def prune(node):
        node.children = [c for c in node.children if c.tag != "DEL"]
        for child in node.children:
            prune(child)

    prune(delta.root)
    violations = check_delta_consistency(
        t1, t2, result.edit, result.matching, delta=delta
    )
    assert any("DEL annotation count" in m for m in messages(violations))


# ---------------------------------------------------------------------------
# Oracle 6: index consistency
# ---------------------------------------------------------------------------
def test_index_consistency_passes(figure1_trees):
    t1, _ = figure1_trees
    assert check_index_consistency(t1) == []
    assert check_index_consistency(t1, t1.to_arena()) == []


def test_index_consistency_rejects_stale_index(figure1_trees):
    t1, _ = figure1_trees
    stale = t1.to_arena()
    t1.insert(node_id="extra", label="S", value="late arrival",
              parent_id=t1.root.children[0].id, position=1)
    found = messages(check_index_consistency(t1, stale))
    assert "index node count differs from the tree" in found


def test_index_consistency_rejects_reordered_index(figure1_trees):
    t1, _ = figure1_trees
    stale = t1.to_arena()
    first, second = t1.root.children[:2]
    t1.move(first.children[0].id, second.id, len(second.children) + 1)
    found = messages(check_index_consistency(t1, stale))
    assert "preorder rank disagrees with a direct walk" in found
    assert "label chains disagree with a direct walk" in found


def test_index_consistency_rejects_stale_value():
    t = Tree.from_obj(("D", None, [("P", None, [("S", "a b"), ("S", "c d")])]))
    stale = t.to_arena()
    t.update(next(t.leaves()).id, "changed words")
    found = messages(check_index_consistency(t, stale))
    assert found == ["value disagrees with the node"]


def test_index_consistency_walks_each_node_once(monkeypatch):
    # D → P → … → P with a sentence per level: per-node subtree walks
    # would yield about n²/4 nodes here.
    spec = ("S", "the bottom")
    for level in range(2000):
        spec = ("P", None, [("S", f"sentence {level}"), spec])
    tree = Tree.from_obj(spec)
    tree.root  # build the node graph outside the count
    yielded = [0]
    preorder = Node.preorder

    def counting(node):
        for item in preorder(node):
            yielded[0] += 1
            yield item

    monkeypatch.setattr(Node, "preorder", counting)
    assert check_index_consistency(tree) == []
    assert yielded[0] <= 3 * len(tree)


# ---------------------------------------------------------------------------
# VerifyReport mechanics
# ---------------------------------------------------------------------------
def test_report_counts_merge_and_export():
    a = VerifyReport()
    a.record("replay_isomorphism", [])
    a.record("conformance", [Violation("conformance", "boom", {"x": 1})])
    b = VerifyReport()
    b.record("conformance", [])
    b.merge(a)
    assert not b.ok
    assert b.passes == {"conformance": 1, "replay_isomorphism": 1}
    assert b.failures == {"conformance": 1}
    exported = b.to_dict()
    assert exported["ok"] is False
    assert exported["oracles"]["conformance"] == {"pass": 1, "fail": 1}
    assert exported["samples"][0]["message"] == "boom"
    rendered = b.render()
    assert "conformance" in rendered and "FAIL" in rendered and "boom" in rendered


def test_report_sample_cap():
    report = VerifyReport()
    for i in range(50):
        report.record("conformance", [Violation("conformance", f"v{i}")])
    assert report.failures["conformance"] == 50
    from repro.verify.oracles import MAX_SAMPLES

    assert len(report.samples) == MAX_SAMPLES
