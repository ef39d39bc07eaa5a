"""Tests for the LCS package: Myers O(ND), bit-parallel length, DP reference,
diff opcodes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lcs import (
    OpCode,
    diff_opcodes,
    dp_lcs,
    dp_lcs_indices,
    dp_lcs_length,
    lcs_length,
    myers_lcs,
    myers_lcs_indices,
    shortest_edit_distance,
    unified_hunks,
)


def is_common_subsequence(pairs, s1, s2):
    """Pairs must be strictly increasing in both indices and pair equal items."""
    last_i = last_j = -1
    for i, j in pairs:
        if i <= last_i or j <= last_j:
            return False
        if s1[i] != s2[j]:
            return False
        last_i, last_j = i, j
    return True


class TestMyersBasics:
    def test_identical_sequences(self):
        s = list("abcdef")
        assert lcs_length(s, s) == 6
        assert myers_lcs(s, s) == list(zip(s, s))

    def test_disjoint_sequences(self):
        assert myers_lcs("abc", "xyz") == []
        assert shortest_edit_distance("abc", "xyz") == 6

    def test_empty_inputs(self):
        assert myers_lcs("", "abc") == []
        assert myers_lcs("abc", "") == []
        assert myers_lcs("", "") == []

    def test_classic_example(self):
        # Myers' paper example: ABCABBA vs CBABAC has LCS length 4.
        assert lcs_length("ABCABBA", "CBABAC") == 4

    def test_single_element(self):
        assert myers_lcs("a", "a") == [("a", "a")]
        assert myers_lcs("a", "b") == []

    def test_prefix_suffix(self):
        assert lcs_length("abcdef", "abcxyz") == 3
        assert lcs_length("abcdef", "xyzdef") == 3

    def test_interleaved(self):
        pairs = myers_lcs_indices("axbycz", "abc")
        assert is_common_subsequence(pairs, "axbycz", "abc")
        assert len(pairs) == 3

    def test_custom_equality(self):
        equal = lambda a, b: a.lower() == b.lower()
        assert len(myers_lcs_indices("AbC", "abc", equal)) == 3

    def test_result_is_valid_subsequence(self):
        s1, s2 = "abcabba", "cbabac"
        pairs = myers_lcs_indices(s1, s2)
        assert is_common_subsequence(pairs, s1, s2)


class TestDpReference:
    def test_matches_known_lengths(self):
        assert dp_lcs_length("ABCABBA", "CBABAC") == 4
        assert dp_lcs_length("", "x") == 0

    def test_dp_pairs_valid(self):
        s1, s2 = "abcabba", "cbabac"
        pairs = dp_lcs_indices(s1, s2)
        assert is_common_subsequence(pairs, s1, s2)
        assert len(pairs) == 4

    def test_dp_lcs_items(self):
        assert dp_lcs("abc", "abc") == [("a", "a"), ("b", "b"), ("c", "c")]

    def test_dp_length_asymmetric_sizes(self):
        # exercises the swap branch of the O(min) space version
        assert dp_lcs_length("ab", "xxxaxxxbxxx") == 2
        assert dp_lcs_length("xxxaxxxbxxx", "ab") == 2

    def test_dp_length_with_custom_equal(self):
        equal = lambda a, b: a % 3 == b % 3
        assert dp_lcs_length([1, 2, 3], [4, 5, 6], equal) == 3


class TestMyersAgainstDp:
    @given(
        st.lists(st.integers(0, 5), max_size=30),
        st.lists(st.integers(0, 5), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_lengths_agree_with_dp(self, s1, s2):
        expected = dp_lcs_length(s1, s2)
        assert len(myers_lcs_indices(s1, s2)) == expected
        assert lcs_length(s1, s2) == expected

    @given(
        st.lists(st.integers(0, 3), max_size=20),
        st.lists(st.integers(0, 3), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_myers_pairs_are_valid_subsequences(self, s1, s2):
        pairs = myers_lcs_indices(s1, s2)
        assert is_common_subsequence(pairs, s1, s2)

    def test_random_long_sequences(self):
        rng = random.Random(7)
        for _ in range(25):
            s1 = [rng.randint(0, 9) for _ in range(rng.randint(0, 120))]
            s2 = [rng.randint(0, 9) for _ in range(rng.randint(0, 120))]
            expected = dp_lcs_length(s1, s2)
            assert len(myers_lcs_indices(s1, s2)) == expected
            assert lcs_length(s1, s2) == expected


class TestBitParallelLength:
    """``lcs_length`` is the bit-parallel kernel; ``dp_lcs_length`` is its oracle."""

    def test_heavy_duplication_across_limbs(self):
        # Small vocabularies make many equal items; lengths up to 200 make
        # the bit vectors span several 64-bit limbs.
        rng = random.Random(1996)
        for _ in range(300):
            vocab = rng.randint(1, 5)
            s1 = [rng.randrange(vocab) for _ in range(rng.randint(0, 200))]
            s2 = [rng.randrange(vocab) for _ in range(rng.randint(0, 200))]
            expected = dp_lcs_length(s1, s2)
            assert lcs_length(s1, s2) == expected
            assert lcs_length(s2, s1) == expected


class TestDiffOpcodes:
    def test_equal_only(self):
        ops = diff_opcodes("abc", "abc")
        assert [op.tag for op in ops] == ["equal"]

    def test_pure_insert(self):
        ops = diff_opcodes("", "abc")
        assert [op.tag for op in ops] == ["insert"]
        assert ops[0].j2 - ops[0].j1 == 3

    def test_pure_delete(self):
        ops = diff_opcodes("abc", "")
        assert [op.tag for op in ops] == ["delete"]

    def test_opcodes_cover_both_sequences(self):
        rng = random.Random(3)
        for _ in range(50):
            s1 = [rng.randint(0, 4) for _ in range(rng.randint(0, 40))]
            s2 = [rng.randint(0, 4) for _ in range(rng.randint(0, 40))]
            ops = diff_opcodes(s1, s2)
            covered1 = sum(op.i2 - op.i1 for op in ops if op.tag != "insert")
            covered2 = sum(op.j2 - op.j1 for op in ops if op.tag != "delete")
            assert covered1 == len(s1)
            assert covered2 == len(s2)

    def test_opcodes_reconstruct_target(self):
        rng = random.Random(4)
        for _ in range(50):
            s1 = [rng.randint(0, 4) for _ in range(rng.randint(0, 30))]
            s2 = [rng.randint(0, 4) for _ in range(rng.randint(0, 30))]
            ops = diff_opcodes(s1, s2)
            rebuilt = []
            for op in ops:
                if op.tag == "equal":
                    rebuilt.extend(s1[op.i1:op.i2])
                elif op.tag == "insert":
                    rebuilt.extend(s2[op.j1:op.j2])
            assert rebuilt == s2

    def test_opcode_is_frozen(self):
        op = OpCode("equal", 0, 1, 0, 1)
        with pytest.raises(AttributeError):
            op.tag = "delete"


class TestUnifiedHunks:
    def test_markers(self):
        lines = unified_hunks(["a", "b", "c"], ["a", "x", "c"])
        assert "-b" in lines and "+x" in lines and " a" in lines

    def test_long_equal_runs_elided(self):
        same = [f"line {i}" for i in range(20)]
        lines = unified_hunks(same + ["old"], same + ["new"], context=2)
        assert any(line.startswith("@@") for line in lines)
