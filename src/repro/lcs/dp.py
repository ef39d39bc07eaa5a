"""Classic dynamic-programming LCS, used as a reference implementation.

``O(nm)`` time and space. The test suite checks Myers' algorithm and the
bit-parallel length against this oracle on random inputs; it is also the
clearer implementation to read when studying the alignment step of the paper.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Sequence, Tuple, TypeVar

S = TypeVar("S")
T = TypeVar("T")


def dp_lcs_indices(
    s1: Sequence[S],
    s2: Sequence[T],
    equal: Callable[[S, T], bool] = operator.eq,
) -> List[Tuple[int, int]]:
    """Return index pairs of an LCS via the textbook DP table."""
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        return []
    # table[i][j] = |LCS(s1[:i], s2[:j])|
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row = table[i]
        prev = table[i - 1]
        a = s1[i - 1]
        for j in range(1, m + 1):
            if equal(a, s2[j - 1]):
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    pairs: List[Tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        if equal(s1[i - 1], s2[j - 1]) and table[i][j] == table[i - 1][j - 1] + 1:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def dp_lcs(
    s1: Sequence[S],
    s2: Sequence[T],
    equal: Callable[[S, T], bool] = operator.eq,
) -> List[Tuple[S, T]]:
    """Return element pairs of an LCS computed by dynamic programming."""
    return [(s1[i], s2[j]) for i, j in dp_lcs_indices(s1, s2, equal)]


def dp_lcs_length(
    s1: Sequence[S],
    s2: Sequence[T],
    equal: Callable[[S, T], bool] = operator.eq,
) -> int:
    """Return the LCS length only, using O(min(n, m)) space."""
    if len(s1) < len(s2):
        # Keep the inner loop over the longer sequence for cache friendliness
        # and the DP row over the shorter one for memory.
        s1, s2 = s2, s1
        flipped = True
    else:
        flipped = False
    m = len(s2)
    if m == 0:
        return 0
    row = [0] * (m + 1)
    for a in s1:
        prev_diag = 0
        for j in range(1, m + 1):
            saved = row[j]
            b = s2[j - 1]
            matched = equal(b, a) if flipped else equal(a, b)
            if matched:
                row[j] = prev_diag + 1
            elif row[j - 1] > row[j]:
                row[j] = row[j - 1]
            prev_diag = saved
    return row[m]
