"""Fuzz-harness tests: determinism, bug detection, shrinking, repro files,
the CLI subcommands, and the serving layer's oracle spot checks."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.serialization import tree_from_sexpr, tree_to_dict
from repro.core.tree import Tree
from repro.service.digest import tree_fingerprint
from repro.service.engine import DiffEngine
from repro.service.metrics import ServiceMetrics
from repro.verify.fuzz import (
    INJECTED_BUGS,
    FuzzConfig,
    generate_pair,
    load_repro,
    run_fuzz,
    run_repro,
    shrink_pair,
    write_repro,
)
from repro.verify.oracles import VerifyReport, Violation


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_generate_pair_is_seed_deterministic():
    for workload in ("mutation", "random", "flat"):
        a1, a2 = generate_pair(random.Random(123), workload, 60)
        b1, b2 = generate_pair(random.Random(123), workload, 60)
        assert tree_to_dict(a1) == tree_to_dict(b1)
        assert tree_to_dict(a2) == tree_to_dict(b2)
    c1, _ = generate_pair(random.Random(124), "mutation", 60)
    assert tree_to_dict(a1) != tree_to_dict(c1)  # a new seed changes the pair


def test_generate_pair_rejects_unknown_workload():
    with pytest.raises(ValueError):
        generate_pair(random.Random(0), "nope", 10)


def test_run_fuzz_is_deterministic_under_fixed_seed():
    config = FuzzConfig(seed=99, iterations=25)
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert first.ok and second.ok
    assert first.report.to_dict() == second.report.to_dict()
    assert first.iterations_run == second.iterations_run == 25


def test_clean_pipeline_survives_fuzz():
    report = run_fuzz(FuzzConfig(seed=2024, iterations=60))
    assert report.ok, [str(v) for v in report.report.samples]
    # Every oracle actually exercised.
    assert report.report.passes["replay_isomorphism"] > 0
    assert report.report.passes["differential"] > 0


# ---------------------------------------------------------------------------
# Injected bugs must be caught, shrunk, and reproduced
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bug", sorted(INJECTED_BUGS))
def test_injected_bug_is_caught_and_shrunk(bug, tmp_path):
    config = FuzzConfig(
        seed=7, iterations=80, repro_dir=str(tmp_path), max_failures=1
    )
    report = run_fuzz(config, runner=INJECTED_BUGS[bug])
    assert not report.ok
    failure = report.failures[0]
    assert failure.violations
    # The shrinker never grows the pair, and the acceptance bar holds: the
    # minimized failing pair stays small.
    assert failure.shrunk_nodes <= failure.original_nodes
    assert failure.shrunk_nodes <= 20
    # A shrunk pair must still fail — re-check via the emitted repro file.
    assert failure.repro_path is not None
    replayed = run_repro(failure.repro_path, runner=INJECTED_BUGS[bug])
    assert not replayed.ok
    # ... and pass on the real pipeline (the bug is in the runner, not the
    # data).
    assert run_repro(failure.repro_path).ok


def test_shrinker_reduces_an_inflated_failing_pair():
    # A pair whose failure depends only on the "a"/"b" leaves, padded with
    # irrelevant subtrees the shrinker must strip.
    t1 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "a")]),
            ("P", None, [("S", "pad1"), ("S", "pad2")]),
            ("P", None, [("S", "pad3")]),
        ])
    )
    t2 = Tree.from_obj(
        ("D", None, [
            ("P", None, [("S", "b")]),
            ("P", None, [("S", "pad1"), ("S", "pad2")]),
            ("P", None, [("S", "pad3")]),
        ])
    )

    def fails(a, b):
        # "Bug": any pair whose first leaf values differ.
        leaves_a = list(a.leaves())
        leaves_b = list(b.leaves())
        return bool(
            leaves_a and leaves_b and leaves_a[0].value != leaves_b[0].value
        )

    s1, s2 = shrink_pair(t1, t2, fails)
    assert fails(s1, s2)
    assert len(s1) + len(s2) < len(t1) + len(t2)
    # Greedy subtree deletion reaches the 2-leaf core (root + P + S each).
    assert len(s1) <= 3 and len(s2) <= 3


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------
def test_repro_file_roundtrip(tmp_path, figure1_trees):
    t1, t2 = figure1_trees
    path = write_repro(
        str(tmp_path / "case.json"),
        t1,
        t2,
        FuzzConfig(seed=5),
        iteration=3,
        workload="mutation",
        violations=["[conformance] boom"],
    )
    r1, r2, payload = load_repro(path)
    assert tree_to_dict(r1) == tree_to_dict(t1)
    assert tree_to_dict(r2) == tree_to_dict(t2)
    assert payload["format"] == "repro-diff/1"
    assert payload["iteration"] == 3
    assert payload["violations"] == ["[conformance] boom"]
    assert run_repro(path).ok


def test_load_repro_rejects_foreign_json(tmp_path):
    path = tmp_path / "not_a_repro.json"
    path.write_text('{"format": "something/else"}')
    with pytest.raises(ValueError):
        load_repro(str(path))


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------
def test_cli_verify_sweep_passes(capsys):
    assert main(["verify", "--seed", "11", "--iterations", "20"]) == 0
    out = capsys.readouterr().out
    assert "verify report" in out and "FAIL" not in out


def test_cli_verify_single_pair(tmp_path, capsys, figure1_trees):
    t1, t2 = figure1_trees
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(tree_to_dict(t1)))
    new.write_text(json.dumps(tree_to_dict(t2)))
    assert main(["verify", str(old), str(new), "--json"]) == 0
    exported = json.loads(capsys.readouterr().out)
    assert exported["ok"] is True


def test_cli_verify_rejects_single_file(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text("{}")
    assert main(["verify", str(path)]) == 2


def test_cli_fuzz_clean_exits_zero(tmp_path, capsys):
    code = main([
        "fuzz", "--seed", "3", "--iterations", "30",
        "--repro-dir", str(tmp_path),
    ])
    assert code == 0
    assert "0 failing pair(s)" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # no repro emitted on success


def test_cli_fuzz_injected_bug_exits_one_with_repro(tmp_path, capsys):
    code = main([
        "fuzz", "--seed", "5", "--iterations", "60",
        "--inject-bug", "skip-align", "--repro-dir", str(tmp_path), "--json",
    ])
    assert code == 1
    exported = json.loads(capsys.readouterr().out)
    assert exported["ok"] is False
    failure = exported["failures"][0]
    assert failure["shrunk_nodes"] <= 20
    assert failure["repro"] and run_repro(failure["repro"]).ok


# ---------------------------------------------------------------------------
# Engine spot checks + metrics wiring
# ---------------------------------------------------------------------------
def test_engine_verify_fraction_validates():
    with pytest.raises(ValueError):
        DiffEngine(verify_fraction=1.5)
    with pytest.raises(ValueError):
        DiffEngine(verify_fraction=-0.1)


def test_engine_verify_fraction_full_sampling(figure1_trees):
    t1, t2 = figure1_trees
    relabeled = tree_from_sexpr('(X (P (S "a")))')  # unmatched roots: a wrapped script
    with DiffEngine(workers=2, verify_fraction=1.0) as engine:
        results = engine.map_pairs([(t1, t2), (t1, t1.copy()), (t2, t1), (t1, relabeled)])
    assert results[3].wrapped
    assert all(r.ok and r.verified is True for r in results)
    assert engine.metrics.get("verify_checks") == 4
    assert engine.metrics.get("verify_failures") == 0
    snap = engine.metrics.snapshot()
    assert snap["verify"]["ok"] is True
    assert snap["verify"]["oracles"]["replay_isomorphism"]["pass"] == 4


def test_engine_verify_fraction_half_sampling(figure1_trees):
    t1, t2 = figure1_trees
    with DiffEngine(workers=1, verify_fraction=0.5, cache=None) as engine:
        results = engine.map_pairs([(t1, t2) for _ in range(6)])
    sampled = [r for r in results if r.verified is not None]
    assert len(sampled) == 3  # floor(n/2) crossings over 6 jobs
    assert all(r.verified for r in sampled)


def test_engine_spot_check_flags_a_tampered_cache_entry():
    old = tree_from_sexpr('(D (P (S "alpha one") (S "beta two")))')
    new = tree_from_sexpr('(D (P (S "alpha one") (S "beta three")))')
    other = tree_from_sexpr('(D (P (S "alpha one") (S "beta four")))')
    # A well-formed payload for the wrong pair: it replays old into
    # `other`, with the same size and cost as the real old -> new script.
    with DiffEngine(workers=1) as source:
        wrong = source.diff(old, other)
        payload = source.cache.get((wrong.old_digest, wrong.new_digest, source._config_key))
    assert payload is not None
    with DiffEngine(workers=1, verify_fraction=1.0) as engine:
        engine.cache.put((wrong.old_digest, tree_fingerprint(new), engine._config_key), payload)
        result = engine.diff(old, new)
    assert (result.source, result.verified) == ("cache", False)
    assert engine.metrics.get("verify_checks") == 1
    assert engine.metrics.get("verify_failures") == 1
    oracles = engine.metrics.snapshot()["verify"]["oracles"]
    assert oracles["replay_isomorphism"] == {"pass": 0, "fail": 1}
    assert oracles["cost_accounting"] == {"pass": 1, "fail": 0}


def test_engine_verify_fraction_zero_never_samples(figure1_trees):
    t1, t2 = figure1_trees
    with DiffEngine(workers=1) as engine:
        result = engine.diff(t1, t2)
    assert result.verified is None
    assert engine.metrics.get("verify_checks") == 0


def test_metrics_absorb_verify_report_and_render():
    metrics = ServiceMetrics()
    report = VerifyReport()
    report.record("replay_isomorphism", [])
    report.record("cost_accounting", [Violation("cost_accounting", "off by one")])
    metrics.absorb_verify_report(report)
    snap = metrics.snapshot()
    assert snap["verify"]["ok"] is False
    assert snap["verify"]["oracles"]["cost_accounting"]["fail"] == 1
    rendered = metrics.render()
    assert "verify:" in rendered and "FAIL" in rendered
    metrics.reset()
    assert metrics.snapshot()["verify"]["oracles"] == {}
