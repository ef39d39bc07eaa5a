"""DiffPipeline: config validation, traces, and parity with the legacy wiring."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError, Tree, tree_diff
from repro.ladiff.pipeline import default_match_config
from repro.editscript.generator import generate_edit_script
from repro.matching.criteria import MatchConfig, MatchingStats
from repro.matching.fastmatch import fast_match
from repro.matching.postprocess import postprocess_matching
from repro.matching.simple import match as simple_match
from repro.obs.trace import NullSpan
from repro.pipeline import STAGES, DiffConfig, DiffPipeline, Trace
from repro.workload import MutationEngine, generate_document
from repro.workload.corpus import paper_document_sets
from repro.workload.documents import DocumentSpec
from repro.workload.random_trees import RandomTreeSpec, random_tree


def legacy_diff(t1, t2, algorithm="fast", postprocess=True):
    """The pre-pipeline wiring: direct calls, no shared indexes."""
    stats = MatchingStats()
    if algorithm == "fast":
        matching = fast_match(t1, t2, stats=stats)
    else:
        matching = simple_match(t1, t2, stats=stats)
    if postprocess:
        postprocess_matching(t1, t2, matching, stats=stats)
    return generate_edit_script(t1, t2, matching), stats


def random_pair(seed, operations):
    """A random tree and a mutated copy, per the workload generators."""
    old = random_tree(seed, RandomTreeSpec(max_depth=4, max_children=4))
    new = MutationEngine(seed + 1).mutate(old, operations).tree
    return old, new


class TestParity:
    """Pipeline, legacy wiring, and tree_diff wrapper agree exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        operations=st.integers(0, 15),
        algorithm=st.sampled_from(["fast", "simple"]),
    )
    def test_pipeline_matches_legacy_wiring(self, seed, operations, algorithm):
        old, new = random_pair(seed, operations)
        result = DiffPipeline(DiffConfig(algorithm=algorithm)).run(old, new)
        legacy_edit, legacy_stats = legacy_diff(old, new, algorithm=algorithm)
        assert result.script.to_dicts() == legacy_edit.script.to_dicts()
        assert result.cost() == legacy_edit.cost()
        # Indexing changes how the §8 counters are computed, not their value.
        assert result.match_stats.leaf_compares == legacy_stats.leaf_compares
        assert result.match_stats.partner_checks == legacy_stats.partner_checks
        assert result.verify(old, new)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        operations=st.integers(0, 15),
        algorithm=st.sampled_from(["fast", "simple"]),
    )
    def test_wrapper_matches_pipeline(self, seed, operations, algorithm):
        old, new = random_pair(seed, operations)
        wrapped = tree_diff(old, new, algorithm=algorithm)
        piped = DiffPipeline(DiffConfig(algorithm=algorithm)).run(old, new)
        assert wrapped.script.to_dicts() == piped.script.to_dicts()
        assert wrapped.cost() == piped.cost()

    @pytest.mark.parametrize("algorithm", ["fast", "simple"])
    def test_document_workload_parity(self, algorithm):
        old = generate_document(3, DocumentSpec(sections=4,
                                                paragraphs_per_section=4,
                                                sentences_per_paragraph=4))
        new = MutationEngine(4).mutate(old, 25).tree
        result = DiffPipeline(DiffConfig(algorithm=algorithm)).run(old, new)
        legacy_edit, _ = legacy_diff(old, new, algorithm=algorithm)
        assert result.script.to_dicts() == legacy_edit.script.to_dicts()
        assert result.cost() == legacy_edit.cost()

    def test_postprocess_off_parity(self):
        old, new = random_pair(99, 10)
        result = DiffPipeline(DiffConfig(postprocess=False)).run(old, new)
        legacy_edit, _ = legacy_diff(old, new, postprocess=False)
        assert result.script.to_dicts() == legacy_edit.script.to_dicts()


class TestPaperCounters:
    """The §8 counters of the default LaDiff configuration, pinned exactly.

    A refactor of the compare or matching layers must leave every figure
    unchanged; a drift here means the matching itself changed.
    """

    EXPECTED = [
        # (leaf_compares, partner_checks, lcs_calls, postprocess_repairs, operations)
        (130, 280, 4, 0, 4),
        (345, 323, 4, 0, 15),
        (562, 383, 4, 0, 22),
        (2019, 694, 4, 0, 51),
        (577, 384, 4, 0, 19),
        (856, 454, 4, 0, 26),
        (2422, 829, 4, 0, 54),
        (908, 472, 4, 0, 34),
        (1838, 941, 4, 0, 64),
        (2923, 923, 4, 0, 70),
    ]

    def test_set_a_counters(self):
        pipeline = DiffPipeline(DiffConfig(match=default_match_config()))
        observed = []
        for older, newer in paper_document_sets()[0].pairs():
            result = pipeline.run(older.tree, newer.tree)
            stats = result.match_stats
            observed.append((
                stats.leaf_compares,
                stats.partner_checks,
                stats.lcs_calls,
                result.postprocess_repairs,
                len(result.script),
            ))
        assert observed == self.EXPECTED


class TestSection8Counters:
    """Each Fig. 13 / Table 1 version set, base against its most-edited
    version, through the default pipeline: the §8 counters and the script
    size are pinned, and the script must replay to ``T2``.
    """

    EXPECTED = {
        # set: (r1, r2, lcs_calls, operations)
        "set-A (small)": (2019, 694, 4, 51),
        "set-B (medium)": (7847, 2202, 4, 59),
        "set-C (large)": (14989, 3896, 4, 48),
    }

    @pytest.mark.parametrize("position", range(3))
    def test_base_to_last_version(self, position):
        doc_set = paper_document_sets()[position]
        old, new = doc_set.versions[0].tree, doc_set.versions[-1].tree
        result = DiffPipeline().run(old, new)
        stats = result.match_stats
        observed = (
            stats.leaf_compares,
            stats.partner_checks,
            stats.lcs_calls,
            len(result.script),
        )
        assert observed == self.EXPECTED[doc_set.name]
        assert result.verify(old, new)


class TestFig13Golden:
    """Every Fig. 13 / Table 1 version pair, in both directions, through
    the default pipeline: the summed §8 counters, the script sizes and a
    SHA-256 of every script's records pin the scripts byte for byte.
    """

    def test_all_pairs_both_directions(self):
        pipeline = DiffPipeline(DiffConfig())
        r1 = r2 = operations = 0
        scripts = []
        for doc_set in paper_document_sets():
            for older, newer in doc_set.pairs():
                for t1, t2 in ((older.tree, newer.tree), (newer.tree, older.tree)):
                    result = pipeline.run(t1, t2)
                    r1 += result.match_stats.leaf_compares
                    r2 += result.match_stats.partner_checks
                    operations += len(result.script)
                    scripts.append(result.script.to_dicts())
        digest = hashlib.sha256(json.dumps(scripts, sort_keys=True).encode()).hexdigest()
        assert len(scripts) == 60
        assert (r1, r2, operations) == (273748, 85409, 2254)
        assert digest == "ca2fd810a0298ad64d383c481876288bd404698edab47dc967667be9d37106e7"


class TestConfigValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            DiffConfig(algorithm="quantum")

    def test_bad_render_format(self):
        with pytest.raises(ConfigError):
            DiffConfig(render="pdf")

    def test_bad_match_type(self):
        with pytest.raises(ConfigError):
            DiffConfig(match={"t": 0.5})

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            DiffConfig(algorithm="nope")

    def test_render_implies_delta(self):
        config = DiffConfig(render="text")
        assert config.build_delta

    def test_bad_thresholds_raise_config_error(self):
        with pytest.raises(ConfigError):
            DiffConfig(match=MatchConfig(t=1.5))


class TestTrace:
    def test_stages_and_counters(self):
        old, new = random_pair(7, 8)
        result = DiffPipeline(DiffConfig()).run(old, new)
        trace = result.trace
        stage_ms = trace.stage_ms()
        assert set(stage_ms) == {"index", "match", "postprocess", "editscript"}
        assert set(stage_ms) <= set(STAGES)
        assert all(ms >= 0.0 for ms in stage_ms.values())
        assert trace.total_ms() == pytest.approx(sum(stage_ms.values()))
        assert trace.counters["nodes_t1"] == len(old)
        assert trace.counters["nodes_t2"] == len(new)
        assert trace.counters["leaf_compares"] == result.match_stats.leaf_compares
        assert trace.counters["partner_checks"] == result.match_stats.partner_checks
        assert trace.counters["operations"] == len(result.script)
        assert trace.counters["index_cache_hits"] == 0

    def test_deltatree_stage_present_when_rendering(self):
        old, new = random_pair(11, 5)
        result = DiffPipeline(DiffConfig(render="text")).run(old, new)
        assert "deltatree" in result.trace.stage_ms()
        assert result.delta is not None
        assert isinstance(result.rendered, str)

    def test_index_cache_hits_with_attached_indexes(self):
        old, new = random_pair(13, 5)
        old.to_arena().build_tables()
        new.to_arena().build_tables()
        result = DiffPipeline(DiffConfig()).run(old, new)
        assert result.trace.counters["index_cache_hits"] == 2

    def test_copies_reuse_the_tables_of_an_earlier_run(self):
        old, new = random_pair(13, 5)
        first = DiffPipeline(DiffConfig()).run(old, new)
        assert first.trace.counters["index_cache_hits"] == 0
        again = DiffPipeline(DiffConfig()).run(old.copy(), new.copy())
        assert again.trace.counters["index_cache_hits"] == 2
        assert again.script == first.script

    def test_attached_index_not_reused_after_same_size_mutation(self):
        t1 = Tree.from_obj(("D", None, [
            ("P", None, [("S", "one two three"), ("S", "four five six")]),
            ("P", None, [("S", "seven eight nine"), ("S", "ten eleven twelve")]),
        ]))
        t2 = t1.copy()
        t2.to_arena().build_tables()
        t2.move(3, 5, 3)  # first sentence to the end of the other paragraph
        assert len(t2) == len(t1)
        result = DiffPipeline(DiffConfig()).run(t1, t2)
        # t1 still holds the snapshot it shared with t2 before the move, so
        # only t1's tables are reused; t2's are rebuilt.
        assert result.trace.counters["index_cache_hits"] == 1
        assert result.edit.verify(t1, t2)

    def test_listeners_see_every_span(self):
        old, new = random_pair(17, 5)
        seen = []
        pipeline = DiffPipeline(DiffConfig(), listeners=(seen.append,))
        result = pipeline.run(old, new)
        assert [span.name for span in seen] == list(result.trace.stage_ms())
        assert [span.wall_ms for span in seen] == list(result.trace.stage_ms().values())

    def test_to_dict_and_render(self):
        old, new = random_pair(19, 5)
        trace = DiffPipeline(DiffConfig()).run(old, new).trace
        exported = trace.to_dict()
        assert set(exported) == {"stages", "counters"}
        assert [entry["name"] for entry in exported["stages"]] == list(
            trace.stage_ms()
        )
        text = trace.render()
        assert "match" in text and "editscript" in text

    def test_precomputed_matching_skips_match_stages(self):
        old, new = random_pair(23, 5)
        first = DiffPipeline(DiffConfig()).run(old, new)
        second = DiffPipeline(DiffConfig()).run(old, new, matching=first.matching)
        assert "match" not in second.trace.stage_ms()
        assert "postprocess" not in second.trace.stage_ms()
        assert second.script.to_dicts() == first.script.to_dicts()


class TestTraceStandalone:
    def test_span_and_incr(self):
        trace = Trace(NullSpan())
        with trace.span("index") as span:
            span.annotate(nodes=3)
        trace.incr("index_cache_hits")
        trace.incr("index_cache_hits")
        assert trace.counters["index_cache_hits"] == 2
        assert list(trace.stage_ms()) == ["index"]
