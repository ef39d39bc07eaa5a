"""Scenario-matrix tests for the deterministic simulation harness.

Every test here runs entirely on virtual time: the autouse guard below
makes any real ``time.sleep`` call raise, so a regression that sneaks a
wall-clock wait back into the simulated stack fails loudly instead of
slowly.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.simtest import (
    Scenario,
    SCENARIOS,
    build_scenario,
    run_matrix,
    run_scenario,
    shrink_plan,
)
from repro.simtest.faults import Fault, FaultPlan
from repro.simtest.scenario import Step

SEEDS = (0, 1, 2)


@pytest.fixture(autouse=True)
def _no_real_sleep(forbid_real_sleep):
    """The simulated stack must never block on the wall clock."""


def restarts(result):
    """Respawns the supervisor made across the whole run."""
    return sum(info["restarts"] for info in result.stats["workers"].values())


# ---------------------------------------------------------------------------
# The full matrix, across seeds: every invariant must hold for every seed.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_invariants_hold(name, seed):
    result = run_scenario(build_scenario(name, seed=seed))
    assert result.ok, result.violations


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_event_log_is_byte_identical(name):
    first = run_scenario(build_scenario(name, seed=5)).event_jsonl()
    second = run_scenario(build_scenario(name, seed=5)).event_jsonl()
    assert first == second
    assert first  # never empty


def test_different_seeds_still_pass_but_may_differ():
    logs = {
        seed: run_scenario(build_scenario("storm_429", seed=seed)).event_jsonl()
        for seed in (10, 11)
    }
    # Jitter draws differ, so the retry schedules (and logs) may too;
    # what must NOT differ is the verdict.
    assert len(logs) == 2


# ---------------------------------------------------------------------------
# Per-scenario behavior
# ---------------------------------------------------------------------------
def test_worker_crash_keepalive_fails_over_and_restarts():
    result = run_scenario(build_scenario("worker_crash_keepalive", seed=0))
    assert result.ok, result.violations
    assert all(r.status == 200 for r in result.records)
    # The crash really happened and the ring absorbed it.
    assert len(result.log.of_kind("worker_crash")) == 1
    assert len(result.log.of_kind("failover")) >= 1
    assert restarts(result) >= 1
    # Affinity: every successful request for the one doc hit one worker id
    # per incarnation epoch (the replacement may differ from the original).
    assert all(r.worker is not None for r in result.records)


def test_storm_429_sees_pressure_and_converges():
    result = run_scenario(build_scenario("storm_429", seed=0))
    assert result.ok, result.violations
    statuses = [
        attempt.get("status")
        for record in result.records
        for attempt in record.hints
    ]
    assert 429 in statuses  # the storm was real
    assert all(r.status == 200 for r in result.records)
    # Refusals were counted by the worker, not silently dropped.
    merged = result.stats["merged_counters"]
    assert merged.get("rejected_queue_full", 0) + merged.get(
        "rejected_rate_limited", 0
    ) >= 1


def test_deadline_drain_outcomes():
    result = run_scenario(build_scenario("deadline_drain", seed=0))
    assert result.ok, result.violations
    by_doc = {r.doc: r for r in result.records}
    assert by_doc["dl-ok"].status == 200
    assert by_doc["dl-pre-drain"].status == 200
    tight = by_doc["dl-tight"]
    assert tight.failed
    assert tight.error_status == 504
    assert tight.error_kind == "deadline"  # production's code, not a sim copy
    for doc in ("dl-post-drain", "dl-post-drain-2"):
        assert by_doc[doc].failed
        assert by_doc[doc].error_kind == "draining"
    merged = result.stats["merged_counters"]
    assert merged.get("deadline_timeouts", 0) >= 1


def test_failover_chain_recovers_from_total_loss():
    result = run_scenario(build_scenario("failover_chain", seed=0))
    assert result.ok, result.violations
    assert all(r.status == 200 for r in result.records)
    # Phase 2 exhausted the whole chain at least once.
    assert result.stats["cluster"].get("rejected_no_backend", 0) >= 1
    assert restarts(result) >= 3
    assert result.stats["live_workers"] == ["w0", "w1", "w2"]


def test_cache_corruption_self_heals():
    result = run_scenario(build_scenario("cache_corruption", seed=0))
    assert result.ok, result.violations
    assert all(r.status == 200 for r in result.records)
    cache = result.stats["cache"]["w0"]
    assert cache["corruptions"] == 1
    assert cache["hits"] >= 2  # clean hits after the recompute
    assert cache["puts"] >= 2  # the poisoned entry was recomputed


def test_clock_jump_recovers_late_timers():
    result = run_scenario(build_scenario("clock_jump", seed=0))
    assert result.ok, result.violations
    assert all(r.status == 200 for r in result.records)
    assert result.stats["virtual_elapsed_s"] > 40.0  # the jump happened
    assert len(result.log.of_kind("clock_jump")) == 1
    assert result.stats["live_workers"] == ["w0", "w1"]


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------
def _failing_spec(seed=3):
    # One worker and a two-attempt budget: the client gives up before the
    # next health tick has restarted the crashed worker.
    spec = build_scenario("worker_crash_keepalive", seed=seed)
    return dataclasses.replace(
        spec,
        workers=1,
        client={"retries": 1, "connect_retries": 1},
        plan=FaultPlan(faults=[
            Fault(point="slow_response", at=0.0, hits=2, magnitude=0.01),
            Fault(point="worker_crash", at=0.9, hits=1),
            Fault(point="slow_response", at=1.2, hits=1, magnitude=0.02),
        ]),
        invariants=("convergence",),
    )


def test_violations_are_detected():
    result = run_scenario(_failing_spec())
    assert not result.ok
    assert any("failed" in v for v in result.violations)


def test_shrink_finds_the_minimal_plan():
    spec = _failing_spec()
    small, final = shrink_plan(spec)
    assert not final.ok
    assert len(small.plan) == 1
    assert small.plan.faults[0].point == "worker_crash"


def test_shrink_leaves_passing_scenarios_alone():
    spec = build_scenario("worker_crash_keepalive", seed=0)
    small, result = shrink_plan(spec)
    assert result.ok
    assert small.plan.describe() == spec.plan.describe()


def test_unknown_invariant_is_reported():
    spec = dataclasses.replace(
        build_scenario("cache_corruption", seed=0),
        invariants=("no_such_invariant",),
    )
    result = run_scenario(spec)
    assert not result.ok
    assert "unknown invariant" in result.violations[0]


def test_unknown_step_action_raises():
    spec = Scenario(name="bad", steps=[Step(0.0, "explode", {})])
    with pytest.raises(ValueError):
        run_scenario(spec)


def test_build_scenario_rejects_unknown_names():
    with pytest.raises(KeyError):
        build_scenario("nope", seed=0)


def test_run_matrix_subset():
    results = run_matrix(seed=0, names=["cache_corruption"])
    assert list(results) == ["cache_corruption"]
    assert results["cache_corruption"].ok


def test_no_admission_slot_leaks_across_the_matrix():
    for name, result in run_matrix(seed=4).items():
        assert result.ok, (name, result.violations)
        assert not any("leaked" in v for v in result.violations)


def test_occupiers_are_conserved():
    # Scripted occupancy must release every slot and settle the counters.
    spec = Scenario(
        name="occupancy",
        workers=1,
        queue_capacity=4,
        steps=[
            Step(0.0, "occupy", {"worker": "w0", "slots": 3, "hold_s": 0.5}),
            Step(0.1, "request", {"client": "c0", "doc": "x"}),
            Step(2.0, "request", {"client": "c0", "doc": "x"}),
        ],
        invariants=("metrics_conservation", "drain_integrity", "convergence"),
    )
    result = run_scenario(spec)
    assert result.ok, result.violations
    merged = result.stats["merged_counters"]
    assert merged["jobs_submitted"] == merged["jobs_succeeded"] == 5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["simtest", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(SCENARIOS)


def test_cli_single_scenario(capsys):
    assert main(["simtest", "--scenario", "cache_corruption", "--seed", "3"]) == 0
    assert "PASS cache_corruption" in capsys.readouterr().out


def test_cli_unknown_scenario(capsys):
    assert main(["simtest", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_event_log_byte_identical(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simtest", "--seed", "9", "--event-log", str(first)]) == 0
    assert main(["simtest", "--seed", "9", "--event-log", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0


def test_cli_json_summary(capsys):
    import json

    assert main(["simtest", "--scenario", "storm_429", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["scenarios"]["storm_429"]["requests"] == 12
