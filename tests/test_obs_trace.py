"""Unit and property tests for repro.obs: the Tracer and trace assembly.

The property tests drive the real simulation harness (repro.simtest) under
virtual time and check the structural guarantees the tracing design makes:
every sampled trace is a single-rooted tree, child intervals nest inside
their parents, and pipeline-stage spans never sum past the enclosing
engine span.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    build_span_tree,
    load_spans_jsonl,
    merge_spans,
    render_span_tree,
    spans_to_jsonl,
    validate_trace,
)
from repro.obs.trace import (
    NullSpan,
    Tracer,
    extract_trace_context,
    inject_trace_headers,
    is_valid_span_id,
    is_valid_trace_id,
)
from repro.service.engine import DiffEngine
from repro.simtest.clock import Clock, SimClock
from repro.workload import MutationEngine, random_tree
from repro.simtest.scenario import Scenario, Step, run_scenario

_EPS = 1e-6


@pytest.fixture(autouse=True)
def _no_real_sleep(forbid_real_sleep):
    """Every test here runs on virtual time only."""


def seeded_tracer(fraction=1.0, **kwargs):
    import random

    return Tracer(
        fraction=fraction, clock=SimClock(), rng=random.Random(7), **kwargs
    )


class TestSampling:
    def test_fraction_zero_never_samples(self):
        tracer = seeded_tracer(fraction=0.0)
        assert [tracer.maybe_trace() for _ in range(50)] == [None] * 50

    def test_fraction_one_always_samples(self):
        tracer = seeded_tracer(fraction=1.0)
        ids = [tracer.maybe_trace() for _ in range(10)]
        assert all(ids)
        assert len(set(ids)) == 10

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.75])
    def test_fraction_is_hit_exactly(self, fraction):
        tracer = seeded_tracer(fraction=fraction)
        sampled = sum(
            1 for _ in range(1000) if tracer.maybe_trace() is not None
        )
        assert sampled == int(1000 * fraction)

    def test_ids_are_deterministic_per_seed(self):
        first = [seeded_tracer().maybe_trace() for _ in range(1)]
        second = [seeded_tracer().maybe_trace() for _ in range(1)]
        assert first == second
        assert is_valid_trace_id(first[0]) and len(first[0]) == 16


class TestSpanLifecycle:
    def test_close_records_interval_on_the_injected_clock(self):
        clock = SimClock()
        tracer = Tracer(fraction=1.0, clock=clock)
        span = tracer.start_span("op", kind="internal")
        clock.sleep(0.25)
        record = span.close()
        assert record.end - record.start == pytest.approx(0.25)
        assert record.wall_ms == pytest.approx(250.0)
        assert tracer.open_count() == 0

    def test_child_spans_share_trace_and_parent(self):
        tracer = seeded_tracer()
        root = tracer.start_span("root")
        child = root.child("kid", kind="worker")
        assert child.trace_id == root.trace_id
        assert child.record.parent_id == root.span_id
        child.close()
        root.close()
        assert [s["name"] for s in tracer.trace(root.trace_id)] == ["root", "kid"]

    def test_context_manager_closes_with_error_status(self):
        tracer = seeded_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start_span("boom") as span:
                raise RuntimeError("nope")
        assert tracer.trace(span.trace_id)[0]["status"] == "error"

    def test_double_close_is_idempotent(self):
        tracer = seeded_tracer()
        span = tracer.start_span("once")
        span.close("ok")
        span.close("error")
        records = tracer.trace(span.trace_id)
        assert len(records) == 1 and records[0]["status"] == "ok"

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = seeded_tracer(capacity=4)
        for index in range(10):
            tracer.start_span(f"s{index}").close()
        stats = tracer.stats()
        assert stats["spans_recorded"] == 10
        assert stats["spans_dropped"] == 6

    def test_abort_open_closes_everything_as_lost(self):
        tracer = seeded_tracer()
        spans = [tracer.start_span("orphan") for _ in range(3)]
        assert tracer.abort_open() == 3
        for span in spans:
            assert tracer.trace(span.trace_id)[0]["status"] == "lost"
        assert tracer.open_count() == 0

    def test_on_close_callback_sees_every_span(self):
        seen = []
        tracer = Tracer(
            fraction=1.0, clock=SimClock(), on_close=seen.append
        )
        root = tracer.start_span("a")
        root.child("b", kind="stage").close()
        root.close()
        tracer.start_span("c")
        tracer.abort_open()
        assert [s["name"] for s in seen] == ["b", "a", "c"]


class TestHeaders:
    def test_inject_extract_round_trip(self):
        headers = inject_trace_headers({}, "AB" * 8, "cd" * 4)
        lowered = {k.lower(): v for k, v in headers.items()}
        assert extract_trace_context(lowered) == ("ab" * 8, "cd" * 4)

    @pytest.mark.parametrize(
        "value", ["", "zz", "xyz!", "g" * 16, "a" * 65, 123, None]
    )
    def test_malformed_trace_ids_are_rejected(self, value):
        assert not is_valid_trace_id(value)
        headers = {"x-trace-id": value} if isinstance(value, str) else {}
        assert extract_trace_context(headers) is None

    def test_bad_span_id_keeps_the_trace(self):
        ctx = extract_trace_context(
            {"x-trace-id": "ab" * 8, "x-span-id": "not hex!"}
        )
        assert ctx == ("ab" * 8, None)

    def test_span_id_length_cap(self):
        assert is_valid_span_id("a" * 32)
        assert not is_valid_span_id("a" * 33)


class _NoRandom:
    """An rng stand-in that fails the test on any draw."""

    def getrandbits(self, _bits):
        raise AssertionError("an unsampled span drew from the tracer's rng")


class _StepClock(Clock):
    """Advances 1 ms on every read, so each span boundary is distinct."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 0.001
        return self.now


class TestNullSpan:
    def test_untraced_spans_record_nothing_and_draw_nothing(self):
        tracer = Tracer(fraction=0.0, clock=SimClock(), rng=_NoRandom())
        root = tracer.root_span("request", meta={"k": "v"})
        assert isinstance(root, NullSpan)
        assert root.trace_id is None and root.context is None
        with root.child("stage", kind="stage") as kid:
            kid.annotate(pairs=3)
        root.annotate(status=200).close("error")
        assert kid.meta == {"pairs": 3}
        assert tracer.stats() == {
            "spans_recorded": 0, "spans_dropped": 0,
            "spans_open": 0, "traces_started": 0,
        }

    def test_null_spans_still_time_themselves(self):
        clock = SimClock()
        span = NullSpan("match", clock).child("match")
        clock.sleep(0.25)
        span.close()
        clock.sleep(1.0)
        span.close()  # idempotent: the first close wins
        assert span.wall_ms == pytest.approx(250.0)

    def test_root_span_continues_an_inbound_context(self):
        tracer = seeded_tracer(fraction=0.0)
        span = tracer.root_span("worker", ctx=("ab" * 8, "cd" * 4))
        assert span.context == ("ab" * 8, span.span_id)
        assert span.record.parent_id == "cd" * 4
        assert tracer.stats()["traces_started"] == 0


class TestStageSpans:
    def test_engine_stages_are_measured_children_of_the_engine_span(self):
        clock = _StepClock()
        tracer = Tracer(fraction=1.0, clock=clock)
        old = random_tree(31)
        new = MutationEngine(32).mutate(old, 6).tree
        with DiffEngine(workers=1, cache=None, tracer=tracer, clock=clock) as engine:
            result = engine.diff(old, new, trace=(tracer.maybe_trace(), None))
        assert result.status == "ok"
        spans = tracer.trace(result.trace_id)
        (engine_span,) = [s for s in spans if s["name"] == "engine"]
        stages = [s for s in spans if s["kind"] == "stage"]
        assert [s["name"] for s in stages] == list(result.stage_ms)
        assert [s["name"] for s in stages] == ["index", "match", "postprocess", "editscript"]
        assert all(s["parent"] == engine_span["span"] for s in stages)
        assert stages[0]["start"] > engine_span["start"]
        assert stages[-1]["end"] <= engine_span["end"]
        for first, second in zip(stages, stages[1:]):
            assert first["end"] <= second["start"]
        by_name = {s["name"]: s for s in stages}
        assert by_name["match"]["meta"]["pairs"] > 0
        assert by_name["editscript"]["meta"]["operations"] == result.operations
        for stage in stages:
            assert result.stage_ms[stage["name"]] == pytest.approx(stage["wall_ms"])


class TestAssembly:
    def test_merge_spans_dedupes_across_sources(self):
        a = {"trace": "t", "span": "1", "start": 0.0}
        b = {"trace": "t", "span": "2", "start": 1.0}
        merged = merge_spans([a, b], [dict(a)], [b])
        assert [s["span"] for s in merged] == ["1", "2"]

    def test_jsonl_round_trip_is_byte_stable(self):
        tracer = seeded_tracer()
        root = tracer.start_span("root")
        root.child("kid").close()
        root.close()
        text = tracer.export_jsonl()
        spans = load_spans_jsonl(text)
        assert spans_to_jsonl(spans) == text
        for line in text.splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_validate_trace_flags_structural_breaks(self):
        assert validate_trace([]) == ["trace has no spans"]
        open_span = {"trace": "t", "span": "1", "parent": None,
                     "name": "x", "kind": "w", "start": 0.0, "end": None}
        assert any("never closed" in v for v in validate_trace([open_span]))
        two_roots = [
            {"trace": "t", "span": "1", "parent": None, "name": "a",
             "kind": "w", "start": 0.0, "end": 1.0},
            {"trace": "t", "span": "2", "parent": None, "name": "b",
             "kind": "w", "start": 0.0, "end": 1.0},
        ]
        assert any("single root" in v for v in validate_trace(two_roots))
        escape = [
            {"trace": "t", "span": "1", "parent": None, "name": "a",
             "kind": "w", "start": 0.0, "end": 1.0},
            {"trace": "t", "span": "2", "parent": "1", "name": "b",
             "kind": "w", "start": 0.5, "end": 2.0},
        ]
        assert any("escapes parent" in v for v in validate_trace(escape))

    def test_render_span_tree_shows_the_hierarchy(self):
        spans = [
            {"trace": "t1", "span": "1", "parent": None, "name": "root",
             "kind": "client", "start": 0.0, "end": 1.0, "wall_ms": 1000.0,
             "status": "ok"},
            {"trace": "t1", "span": "2", "parent": "1", "name": "leaf",
             "kind": "worker", "start": 0.2, "end": 0.8, "wall_ms": 600.0,
             "status": "ok", "meta": {"worker": "w0"}},
        ]
        art = render_span_tree(spans)
        assert "trace t1 (2 spans" in art
        assert "`- root" in art
        assert "`- leaf" in art and "[worker=w0]" in art
        assert render_span_tree([], trace_id="zz") == "(no spans)"


# ---------------------------------------------------------------------------
# Property tests: structural guarantees over the simulated serve stack
# ---------------------------------------------------------------------------
def _spans_by_trace(result):
    grouped = {}
    for event in result.log.of_kind("span"):
        record = event["record"]
        grouped.setdefault(record["trace"], []).append(record)
    return grouped


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    requests=st.integers(min_value=1, max_value=5),
    workers=st.integers(min_value=1, max_value=3),
    service_ms=st.floats(min_value=0.5, max_value=250.0),
    spacing=st.floats(min_value=0.01, max_value=0.5),
)
def test_sampled_traces_are_nested_single_rooted_trees(
    seed, requests, workers, service_ms, spacing
):
    steps = [
        Step(
            at=round(spacing * (index + 1), 3),
            action="request",
            kwargs={"client": "c0", "doc": f"doc-{index}"},
        )
        for index in range(requests)
    ]
    spec = Scenario(
        name="prop",
        seed=seed,
        workers=workers,
        service_time=service_ms / 1000.0,
        steps=steps,
        invariants=("trace_complete",),
    )
    result = run_scenario(spec)
    assert result.ok, result.violations
    grouped = _spans_by_trace(result)

    sampled = [r for r in result.records if r.trace_id is not None]
    assert sampled, "trace_fraction defaults to 1.0: every request samples"
    for record in sampled:
        spans = grouped[record.trace_id]
        assert validate_trace(spans) == []

        # Single root, and it is the client's request bracket.
        roots, children = build_span_tree(spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "client.request"

        # Child intervals nest inside their parents under the SimClock.
        by_id = {span["span"]: span for span in spans}
        for parent_id, kids in children.items():
            parent = by_id[parent_id]
            for kid in kids:
                assert kid["start"] >= parent["start"] - _EPS
                assert kid["end"] <= parent["end"] + _EPS

        # Stage spans sum to no more than any enclosing non-stage span
        # on their ancestry path (engine, worker, and upward).
        stage_walls = sum(
            span["end"] - span["start"]
            for span in spans
            if span["kind"] == "stage"
        )
        for name in ("engine", "worker"):
            enclosing = [s for s in spans if s["name"] == name and s["status"] == "ok"]
            for span in enclosing:
                kids_stage = sum(
                    k["end"] - k["start"]
                    for k in children.get(span["span"], [])
                    if k["kind"] == "stage"
                )
                assert kids_stage <= (span["end"] - span["start"]) + _EPS
        if stage_walls:
            worker_ok = [
                s for s in spans
                if s["name"] == "worker" and s["status"] == "ok"
            ]
            assert stage_walls <= sum(
                s["end"] - s["start"] for s in worker_ok
            ) + _EPS


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_same_span_bytes(seed):
    def run():
        steps = [
            Step(at=0.1 * (i + 1), action="request",
                 kwargs={"client": "c0", "doc": f"d{i}"})
            for i in range(3)
        ]
        spec = Scenario(name="det", seed=seed, workers=2, steps=steps)
        result = run_scenario(spec)
        return [
            json.dumps(e, sort_keys=True) for e in result.log.of_kind("span")
        ]

    assert run() == run()
