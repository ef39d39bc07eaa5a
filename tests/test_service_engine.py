"""Tests for the concurrent diff engine (repro.service.engine)."""

import time

import pytest

from repro import Tree
from repro.core.errors import ParseError
from repro.core.isomorphism import trees_isomorphic
from repro.ladiff.pipeline import default_match_config
from repro.pipeline import DiffConfig, DiffPipeline
from repro.service import DiffEngine, ScriptCache, ServiceMetrics
from repro.service.metrics import SECTION8_COUNTERS
from repro.workload import DocumentSpec, MutationEngine, generate_document


def doc(seed=1):
    return generate_document(
        seed, DocumentSpec(sections=3, paragraphs_per_section=3,
                           sentences_per_paragraph=3)
    )


def mutated(base, seed=0, edits=6):
    return MutationEngine(seed).mutate(base, edits).tree


@pytest.fixture
def engine():
    with DiffEngine(workers=2) as eng:
        yield eng


class TestSingleJobs:
    def test_computed_result_verifies(self, engine):
        base = doc()
        new = mutated(base)
        result = engine.diff(base, new)
        assert result.ok
        assert result.source == "computed"
        assert result.operations == len(result.script)
        assert result.operations > 0
        assert result.wall_ms > 0
        assert trees_isomorphic(result.apply_to(base), new)

    def test_digest_short_circuit_on_identical_pair(self, engine):
        base = doc()
        twin = Tree.from_obj(base.to_obj())
        result = engine.diff(base, twin)
        assert result.ok
        assert result.source == "digest"
        assert result.operations == 0
        assert result.old_digest == result.new_digest
        assert trees_isomorphic(result.apply_to(base), twin)
        assert engine.metrics.get("digest_short_circuits") == 1

    def test_result_carries_digests_and_summary(self, engine):
        base = doc()
        new = mutated(base)
        result = engine.diff(base, new)
        assert result.old_digest and result.new_digest
        assert result.old_digest != result.new_digest
        assert result.summary["total"] == result.operations


class TestSection8Counters:
    def test_metrics_sum_the_pipeline_counters_of_computed_jobs(self):
        base = doc()
        pairs = [(base, mutated(base, seed)) for seed in range(3)]
        expected = dict.fromkeys(SECTION8_COUNTERS, 0)
        pipeline = DiffPipeline(DiffConfig())
        for old, new in pairs:
            counters = pipeline.run(old, new).trace.counters
            for name in expected:
                expected[name] += counters[name]
        with DiffEngine(workers=1) as engine:
            for old, new in pairs + pairs + [(base, base)]:
                assert engine.diff(old, new).ok
            counters = engine.metrics.snapshot()["counters"]
        # The repeats are cache hits and the twin a digest hit: both add 0.
        assert counters["cache_hits"] == 3
        assert counters["digest_short_circuits"] == 1
        assert {name: counters[name] for name in expected} == expected
        assert expected["leaf_compares"] > 0


class TestCaching:
    def test_miss_then_hit_and_metrics(self):
        metrics = ServiceMetrics()
        engine = DiffEngine(workers=1, metrics=metrics)
        base = doc()
        new = mutated(base)

        first = engine.diff(base, new)
        second = engine.diff(base, new)
        assert first.source == "computed"
        assert second.source == "cache"
        snap = metrics.snapshot()["counters"]
        assert snap["cache_misses"] == 1
        assert snap["cache_hits"] == 1
        assert snap["jobs_succeeded"] == 2
        engine.close()

    def test_cached_script_rebinds_to_new_identifiers(self, engine):
        base = doc()
        new = mutated(base)
        engine.diff(base, new)
        # same content, disjoint id space: the cached script must still apply
        base2 = Tree.from_obj(base.to_obj())
        new2 = Tree.from_obj(new.to_obj())
        result = engine.diff(base2, new2)
        assert result.source == "cache"
        assert trees_isomorphic(result.apply_to(base2), new2)

    def test_config_key_separates_algorithms(self):
        cache = ScriptCache(capacity=8)
        base = doc()
        new = mutated(base)
        fast = DiffEngine(workers=1, cache=cache, algorithm="fast")
        simple = DiffEngine(workers=1, cache=cache, algorithm="simple")
        fast.diff(base, new)
        result = simple.diff(base, new)
        assert result.source == "computed"  # no cross-config cache hit
        assert len(cache) == 2
        fast.close()
        simple.close()

    def test_cache_disabled(self):
        engine = DiffEngine(workers=1, cache=None)
        base = doc()
        new = mutated(base)
        assert engine.diff(base, new).source == "computed"
        assert engine.diff(base, new).source == "computed"
        assert engine.metrics.get("cache_hits") == 0
        engine.close()

    def test_eviction_accounting_through_engine(self):
        engine = DiffEngine(workers=1, cache=1)
        base = doc()
        pairs = [(base, mutated(base, seed=s)) for s in (1, 2)]
        engine.diff(*pairs[0])
        engine.diff(*pairs[1])  # evicts the first entry
        assert engine.cache.stats()["evictions"] == 1
        assert engine.diff(*pairs[0]).source == "computed"  # was evicted
        engine.close()


class TestBatches:
    def test_map_pairs_returns_one_result_per_pair_in_order(self, engine):
        base = doc()
        pairs = [(base, mutated(base, seed=s)) for s in range(5)]
        results = engine.map_pairs(pairs)
        assert len(results) == 5
        assert [r.job_id for r in results] == [f"pair-{i}" for i in range(5)]
        assert all(r.ok for r in results)
        for (old, new), r in zip(pairs, results):
            assert trees_isomorphic(r.apply_to(old), new)

    def test_malformed_document_fails_only_its_job(self, engine):
        base = doc()
        new = mutated(base)

        def unparsable():
            raise ParseError("bad.sexpr: unbalanced parentheses")

        results = engine.map_pairs([
            (base, new, "good-1"),
            (unparsable, new, "broken"),
            (base, Tree.from_obj(base.to_obj()), "good-2"),
        ])
        assert [r.status for r in results] == ["ok", "error", "ok"]
        broken = results[1]
        assert broken.script is None
        assert "ParseError" in broken.error
        assert engine.metrics.get("jobs_failed") == 1
        assert engine.metrics.get("jobs_succeeded") == 2

    def test_empty_batch(self, engine):
        assert engine.map_pairs([]) == []

    def test_explicit_job_ids(self, engine):
        base = doc()
        results = engine.map_pairs([(base, mutated(base), "alpha")])
        assert results[0].job_id == "alpha"



class TestTimeoutsAndRetries:
    def test_slow_job_times_out_without_failing_batch(self):
        engine = DiffEngine(workers=2, timeout=0.05)
        base = doc()
        new = mutated(base)

        def slow():
            time.sleep(0.5)
            return base

        results = engine.map_pairs([(slow, new, "slow"), (base, new, "quick")])
        by_id = {r.job_id: r for r in results}
        assert by_id["slow"].status == "timeout"
        assert by_id["quick"].status == "ok"
        assert engine.metrics.get("jobs_timed_out") == 1
        engine.close()

    def test_compute_failure_reports_error_after_one_attempt(self):
        engine = DiffEngine(workers=1, cache=None)
        base = doc()
        new = mutated(base)

        def always_broken(old_tree, new_tree, span):
            raise RuntimeError("backend down")

        engine._compute = always_broken
        result = engine.diff(base, new)
        assert result.status == "error"
        assert result.attempts == 1  # a diff is deterministic: no retry
        assert "backend down" in result.error
        engine.close()

    def test_uncanonicalizable_script_fails_the_job_uncached(self):
        from repro.editscript.operations import Update

        engine = DiffEngine(workers=1, cache=8)
        real_run = engine._pipeline.run

        def run_naming_a_foreign_id(old_tree, new_tree, parent=None):
            diffed = real_run(old_tree, new_tree, parent=parent)
            diffed.script.append(Update("not-a-t1-id", "x"))
            return diffed

        engine._pipeline.run = run_naming_a_foreign_id
        result = engine.diff(doc(), mutated(doc()))
        assert result.status == "error"
        assert "UncacheableScriptError" in result.error
        assert len(engine.cache) == 0
        engine.close()


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            DiffEngine(workers=0)

    def test_non_string_sentence_values_diff_cleanly(self):
        """The default LaDiff config compares an int ``S`` value like any
        other label's: numerically, through the default comparator."""
        def document(value):
            return Tree.from_obj(("D", None, [("P", None, [
                ("S", value), ("S", "an ordinary sentence here")])]))

        with DiffEngine(workers=1, config=default_match_config()) as engine:
            result = engine.diff(document(5), document(6))
        assert result.ok, result.error
        assert [op["op"] for op in result.script.to_dicts()] == ["update"]

    def test_non_tree_input_is_captured_per_job(self, engine):
        result = engine.diff("not a tree", doc())
        assert result.status == "error"
        assert "TypeError" in result.error
