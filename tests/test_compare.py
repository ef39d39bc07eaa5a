"""Tests for the compare package (sentence and generic comparators)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compare import (
    CompareRegistry,
    default_compare,
    exact_compare,
    numeric_compare,
    tokenize_words,
    word_lcs_distance,
)
from repro.ladiff import default_match_config
from repro.lcs import myers_lcs_indices

sentences = st.text(
    alphabet=st.sampled_from(list("abc xyz")), min_size=0, max_size=40
)


class TestWordLcsDistance:
    def test_identical_is_zero(self):
        assert word_lcs_distance("hello world", "hello world") == 0.0

    def test_disjoint_is_two(self):
        assert word_lcs_distance("aaa bbb", "ccc ddd") == 2.0

    def test_one_word_changed(self):
        # 3 words, 2 common: (3 + 3 - 4) / 3 = 2/3
        assert word_lcs_distance("a b c", "a b d") == pytest.approx(2 / 3)

    def test_subset_sentence(self):
        # "a b" vs "a b c": (2 + 3 - 4) / 3 = 1/3
        assert word_lcs_distance("a b", "a b c") == pytest.approx(1 / 3)

    def test_empty_cases(self):
        assert word_lcs_distance("", "") == 0.0
        assert word_lcs_distance(None, None) == 0.0
        assert word_lcs_distance("", "hello") == 2.0
        assert word_lcs_distance("hello", None) == 2.0

    def test_word_order_matters(self):
        # reversed words share only an LCS of length 1
        assert word_lcs_distance("a b", "b a") == pytest.approx(1.0)

    @given(sentences, sentences)
    @settings(max_examples=200, deadline=None)
    def test_range_and_symmetry(self, a, b):
        d = word_lcs_distance(a, b)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(word_lcs_distance(b, a))

    @given(sentences)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert word_lcs_distance(a, a) == 0.0

    def test_none_values(self):
        assert word_lcs_distance(None, None) == 0.0
        assert word_lcs_distance(None, "x") == 2.0

    def test_default_config_matches_plain_function(self):
        """LaDiff's sentences go through the one word-LCS distance."""
        registry = default_match_config().registry
        assert registry.compare("a b c", "a b d", label="S") == pytest.approx(
            word_lcs_distance("a b c", "a b d")
        )

    def test_agrees_with_myers_lcs(self):
        """The bit-parallel length gives the distance the Myers pairs give."""
        rng = random.Random(1996)
        for _ in range(300):
            vocab = [f"w{i}" for i in range(rng.randint(1, 5))]
            words_a = [rng.choice(vocab) for _ in range(rng.randint(1, 200))]
            words_b = [rng.choice(vocab) for _ in range(rng.randint(1, 200))]
            common = len(myers_lcs_indices(words_a, words_b))
            expected = (len(words_a) + len(words_b) - 2 * common) / max(
                len(words_a), len(words_b)
            )
            a, b = " ".join(words_a), " ".join(words_b)
            assert word_lcs_distance(a, b) == expected
            assert word_lcs_distance(b, a) == expected

    def test_consistency_property(self):
        """Similar sentences land below 1 (move+update beats delete+insert)."""
        old = "the quick brown fox jumps over the lazy dog"
        new = "the quick brown fox leaps over the lazy dog"
        assert word_lcs_distance(old, new) < 1.0
        different = "completely unrelated words appear here instead now then"
        assert word_lcs_distance(old, different) > 1.0


class TestTokenizeWords:
    def test_whitespace_split(self):
        assert tokenize_words("a  b\tc\nd") == ["a", "b", "c", "d"]

    def test_empty(self):
        assert tokenize_words("") == []
        assert tokenize_words("   ") == []

    def test_splits_where_re_whitespace_does_on_every_code_point(self):
        import re

        text = "".join(f"x{chr(code)}" for code in range(0x110000))
        words = tokenize_words(text)
        assert words == re.findall(r"[^\s]+", text)
        assert len(words) == 1 + sum(chr(code).isspace() for code in range(0x110000))


class TestGenericComparators:
    def test_exact(self):
        assert exact_compare("a", "a") == 0.0
        assert exact_compare("a", "b") == 2.0
        assert exact_compare(1, 1.0) == 0.0

    def test_numeric_relative(self):
        assert numeric_compare(10, 10) == 0.0
        assert numeric_compare(10, 5) == pytest.approx(0.5)
        assert numeric_compare(1, -1) == 2.0
        assert numeric_compare(0, 0) == 0.0

    def test_numeric_falls_back_on_non_numbers(self):
        assert numeric_compare("a", "b") == 2.0

    def test_default_dispatch(self):
        assert default_compare("a b", "a b") == 0.0
        assert default_compare(3, 4) == pytest.approx(0.25)
        assert default_compare(None, None) == 0.0
        assert default_compare(None, "x") == 2.0
        assert default_compare(("t",), ("t",)) == 0.0

    def test_none_against_blank_sentence_is_two(self):
        """``None`` is at distance 2 from any value, blank strings included,
        for sentence labels as for every other label."""
        registry = default_match_config().registry
        for blank in ("", "   "):
            assert default_compare(None, blank) == 2.0
            assert registry.compare(None, blank, label="S") == 2.0
            assert registry.compare(blank, None, label="S") == 2.0
        # two blank sentences are still identical
        assert registry.compare("", "  ", label="S") == 0.0


class TestCompareRegistry:
    def test_label_routing(self):
        registry = CompareRegistry()
        registry.register("price", numeric_compare)
        assert registry.compare(10, 5, label="price") == pytest.approx(0.5)
        # default for unknown label: word distance for strings
        assert registry.compare("a b", "a c", label="S") == pytest.approx(1.0)

    def test_comparator_for_default(self):
        registry = CompareRegistry(default=exact_compare)
        assert registry.comparator_for("anything") is exact_compare
