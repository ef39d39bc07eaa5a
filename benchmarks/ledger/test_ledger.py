"""Tests for the latency ledger benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import compare
import replay
import workloads
from repro.core.serialization import tree_from_dict, tree_to_sexpr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Float slack for span bounds derived from pipeline stage durations.
EPS = 1e-9


def inputs_blob(workload: workloads.Workload) -> str:
    return json.dumps([workload.bodies, workload.warmup, workload.timed], sort_keys=True)


def check_spans(spans):
    """Spans nest: each lies inside its parent, in the same request, and
    siblings do not overlap."""
    by_sid = {(s.get("workload"), s["sid"]): s for s in spans}
    children = {}
    for span in spans:
        assert span["start"] <= span["end"] + EPS
        if span["parent"] is None:
            assert span["name"] == "request"
            continue
        parent = by_sid[(span.get("workload"), span["parent"])]
        assert parent["rid"] == span["rid"]
        assert parent["start"] - EPS <= span["start"] and span["end"] <= parent["end"] + EPS
        children.setdefault((span.get("workload"), span["parent"]), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s["start"])
        for first, second in zip(siblings, siblings[1:]):
            assert first["end"] <= second["start"] + EPS, (first["name"], second["name"])


def partition_sum(metrics):
    return sum(metrics[f"{layer}.share"] for layer in replay.LAYERS + ("other",))


def replay_metrics(name, seed):
    workload = workloads.build(name, seed, smoke=True)
    replayer, mismatches = replay.replay(workload, workload.replay)
    assert mismatches == 0
    return replayer, replay.layer_metrics(replayer.spans)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.build(name, 7, smoke=True)
    second = workloads.build(name, 7, smoke=True)
    assert inputs_blob(first) == inputs_blob(second)
    assert first.inputs_sha256() == second.inputs_sha256()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_different_seeds_give_different_inputs(name):
    first = workloads.build(name, 7, smoke=True)
    second = workloads.build(name, 8, smoke=True)
    assert first.inputs_sha256() != second.inputs_sha256()


def test_fig13_sets_sends_120_distinct_pairs_that_all_miss():
    workload = workloads.build("fig13-sets", 3)
    assert len(workload.timed) == len(set(workload.timed)) == 120
    contents = {
        tuple(tree_to_sexpr(tree_from_dict(body[side])) for side in ("old", "new"))
        for body in workload.bodies
    }
    assert len(contents) == 120
    assert all(old != new for old, new in contents)
    assert {workload.expected_source(i) for i in workload.timed} == {"computed"}


def test_warm_repeat_timed_requests_are_all_cache_hits_or_digest_short_circuits():
    workload = workloads.build("warm-repeat", 3)
    assert len(workload.bodies) == 72
    assert sum(body["old"] is body["new"] for body in workload.bodies) == 8
    assert set(workload.timed) <= set(workload.warmup)
    sources = Counter(workload.expected_source(i) for i in workload.timed)
    assert set(sources) == {"cache", "digest"}


def test_cluster_affinity_alternates_distinct_pairs_with_warmed_repeats():
    workload = workloads.build("cluster-affinity", 3, smoke=True)
    sources = [workload.expected_source(i) for i in workload.timed]
    assert sources[0::2] == ["computed"] * (len(sources) // 2)
    assert sources[1::2] == ["cache"] * (len(sources) // 2)


def test_word_permutation_changes_bytes_but_not_matching_work():
    _, first = replay_metrics("fig13-sets", 1)
    _, second = replay_metrics("fig13-sets", 2)
    for counter in ("match.r1", "match.r2", "match.lcs_calls", "editscript.ops"):
        assert first[counter] == second[counter]


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fig13-sets", "cluster-affinity"])
def test_replay_counts_repeat_exactly_for_one_seed(name):
    _, first = replay_metrics(name, 4)
    _, second = replay_metrics(name, 4)
    assert first["match.r1"] > 0
    for counter in ("match.r1", "match.r2", "match.lcs_calls", "editscript.ops"):
        assert first[counter] == second[counter]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_replay_spans_nest_and_shares_sum_to_one(name):
    replayer, metrics = replay_metrics(name, 5)
    check_spans(replayer.spans)
    assert partition_sum(metrics) == pytest.approx(1.0, abs=0.01)
    assert metrics["other.share"] >= 0.0
    assert metrics["match.leaf_compare.ms"] <= metrics["match.ms"]


def test_replay_leaf_compare_wrapper_sees_every_criterion1_compare():
    replayer, metrics = replay_metrics("small-snapshots", 6)
    assert replayer.timer.calls >= metrics["match.r1"] > 0


def test_warm_repeat_replay_does_no_matching():
    _, metrics = replay_metrics("warm-repeat", 5)
    assert metrics["match.ms"] == 0.0
    assert metrics["match.r1"] == 0


# ---------------------------------------------------------------------------
# The whole command
# ---------------------------------------------------------------------------
def test_smoke_run_prints_every_benchmark_metric_with_its_unit(tmp_path):
    out, spans = tmp_path / "results.json", tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out), "--spans", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        printed[(fields[0], fields[1])] = fields[3]
    for workload in BENCHMARK["workloads"]:
        assert (workload["name"], "trace.overhead_ratio") in printed
        for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert printed[(workload["name"], spec["name"])] == spec["unit"]
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        f"{w['name']}/{spec['name']}" for w in BENCHMARK["workloads"] for spec in BENCHMARK["per_layer"]
    }
    check_spans([json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()])
    assert set(json.loads(out.read_text(encoding="utf-8"))["workloads"]) == set(workloads.NAMES)


def test_benchmark_json_names_the_workloads_and_metrics_run_py_reports():
    import run

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {s["name"]: s["unit"] for s in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {s["name"]: s["unit"] for s in BENCHMARK["per_layer"]} == run.PER_LAYER


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([80.0, 81.0, 79.0, 80.0, 80.5, 79.5], "higher", "regressed"),
        ([80.0, 81.0, 79.0, 80.0, 80.5, 79.5], "lower", "improved"),
        ([100.2, 99.8, 100.1, 99.9, 100.0, 100.4], "higher", "within bound"),
    ],
)
def test_compare_verdicts(change, better, expected):
    assert compare.verdict(BASE, change, 0.10, better)[0] == expected


def test_compare_reports_unresolved_when_base_spread_exceeds_bound():
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0, 95.0]
    assert compare.verdict(noisy, [98.0, 104.0, 90.0, 110.0], 0.10, "lower")[0] == "unresolved"


def test_compare_reads_result_directories(tmp_path, capsys):
    for side, value in (("base", 100.0), ("change", 70.0)):
        for seed in range(3):
            run_dir = tmp_path / side / f"seed{seed}"
            run_dir.mkdir(parents=True)
            payload = {"workloads": {"fig13-sets": {"metrics": {
                "throughput_rps": {"value": value + seed, "unit": "req/s"}}}}}
            (run_dir / "results.json").write_text(json.dumps(payload), encoding="utf-8")
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 1
    assert "regressed" in capsys.readouterr().out
