"""Tests for the concurrent diff engine (repro.service.engine)."""

import time

import pytest

from repro import Tree
from repro.core.errors import ParseError
from repro.service import DiffEngine, ScriptCache, ServiceMetrics
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
        assert result.verify(base, new)

    def test_digest_short_circuit_on_identical_pair(self, engine):
        base = doc()
        twin = Tree.from_obj(base.to_obj())
        result = engine.diff(base, twin)
        assert result.ok
        assert result.source == "digest"
        assert result.operations == 0
        assert result.old_digest == result.new_digest
        assert result.verify(base, twin)
        assert engine.metrics.get("digest_short_circuits") == 1

    def test_result_carries_digests_and_summary(self, engine):
        base = doc()
        new = mutated(base)
        result = engine.diff(base, new)
        assert result.old_digest and result.new_digest
        assert result.old_digest != result.new_digest
        assert result.summary["total"] == result.operations


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
        assert result.verify(base2, new2)

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
            assert r.verify(old, new)

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

    def test_diff_corpus_consecutive(self, engine):
        chain = [doc()]
        for i in range(3):
            chain.append(mutated(chain[-1], seed=10 + i))
        results = engine.diff_corpus(chain)
        assert len(results) == 3
        assert all(r.ok for r in results)
        assert results[0].job_id == "rev-0->1"

    def test_submit_future(self, engine):
        base = doc()
        new = mutated(base)
        future = engine.submit(base, new, job_id="async")
        result = future.result(timeout=30)
        assert result.job_id == "async"
        assert result.ok


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

    def test_transient_compute_failure_is_retried(self):
        engine = DiffEngine(workers=1, retries=2, cache=None)
        base = doc()
        new = mutated(base)
        calls = {"n": 0}
        original = engine._compute

        def flaky(old_tree, new_tree):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("transient backend hiccup")
            return original(old_tree, new_tree)

        engine._compute = flaky
        result = engine.diff(base, new)
        assert result.ok
        assert result.attempts == 3
        assert engine.metrics.get("jobs_retried") == 2
        assert result.verify(base, new)
        engine.close()

    def test_exhausted_retries_report_error(self):
        engine = DiffEngine(workers=1, retries=1, cache=None)
        base = doc()
        new = mutated(base)

        def always_broken(old_tree, new_tree):
            raise RuntimeError("backend down")

        engine._compute = always_broken
        result = engine.diff(base, new)
        assert result.status == "error"
        assert result.attempts == 2
        assert "backend down" in result.error
        engine.close()


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            DiffEngine(workers=0)

    def test_non_tree_input_is_captured_per_job(self, engine):
        result = engine.diff("not a tree", doc())
        assert result.status == "error"
        assert "TypeError" in result.error
