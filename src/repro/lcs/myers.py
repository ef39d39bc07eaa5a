"""Myers' O(ND) longest common subsequence / shortest edit script algorithm.

The paper (Section 4.2) treats the LCS routine as a three-argument procedure
``LCS(S1, S2, equal)`` where ``equal`` is an arbitrary equality predicate —
node partnership for AlignChildren, value proximity for FastMatch's chain
LCS. The standard UNIX diff LCS cannot be used because it requires
inequality (hashing/ordering) comparisons; Myers' algorithm needs only
equality, which is why the paper (and we) use it wherever index pairs are
needed. Sentence comparison needs only the LCS length under exact word
equality; it uses the bit-parallel kernel in :mod:`repro.lcs.bitparallel`.

Complexity is ``O(ND)`` where ``N = |S1| + |S2|`` and
``D = N - 2|LCS(S1, S2)|`` is the length of the shortest edit script.

Note on non-transitive predicates: when ``equal`` is a similarity threshold
(as in FastMatch's leaf matching) rather than true equality, the result is
still a valid common subsequence under the predicate, but maximality is only
guaranteed for genuine equivalence relations. The paper makes the same
trade-off ("a modified version of the LCS algorithm from [Mye86]").
"""

from __future__ import annotations

import operator
from typing import Callable, List, Sequence, Tuple, TypeVar

S = TypeVar("S")
T = TypeVar("T")

EqualFn = Callable[[S, T], bool]

_UNREACHED = -1


def myers_lcs_indices(
    s1: Sequence[S],
    s2: Sequence[T],
    equal: EqualFn = operator.eq,
) -> List[Tuple[int, int]]:
    """Return index pairs ``(i, j)`` of an LCS of *s1* and *s2*.

    The returned pairs are strictly increasing in both components, realizing
    conditions (1)-(3) of the paper's LCS definition.
    """
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        return []

    # Forward pass: find the depth D of the shortest edit script. The
    # frontier V lives in a list offset by n + m + 1, so diagonal k is
    # v[off + k]; before each depth d we snapshot the band -d-1..d+1 that
    # the backtrack at depth d reads.
    off = n + m + 1
    v = [_UNREACHED] * (2 * off + 1)
    v[off + 1] = 0
    trace: List[List[int]] = []
    found_d = -1
    for d in range(n + m + 1):
        trace.append(v[off - d - 1 : off + d + 2])
        for i in range(off - d, off + d + 1, 2):
            if i == off - d or (i != off + d and v[i - 1] < v[i + 1]):
                x = v[i + 1]  # move down (insert from s2)
            else:
                x = v[i - 1] + 1  # move right (delete from s1)
            y = x - (i - off)
            while x < n and y < m and equal(s1[x], s2[y]):
                x += 1
                y += 1
            v[i] = x
            if x >= n and y >= m:
                found_d = d
                break
        if found_d >= 0:
            break
    if found_d < 0:  # pragma: no cover - unreachable: D <= n + m always
        raise AssertionError("Myers LCS failed to terminate")

    # Backward pass: walk the trace from (n, m) back to (0, 0), collecting
    # diagonal (match) steps.
    pairs: List[Tuple[int, int]] = []
    x, y = n, m
    for d in range(found_d, -1, -1):
        if d == 0:
            # Depth 0: the remaining path is pure diagonal down to (0, 0).
            while x > 0 and y > 0:
                pairs.append((x - 1, y - 1))
                x -= 1
                y -= 1
            break
        snapshot = trace[d]  # snapshot[j] is diagonal j - d - 1
        k = x - y
        j = k + d + 1
        if k == -d or (k != d and snapshot[j - 1] < snapshot[j + 1]):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = snapshot[prev_k + d + 1]
        prev_y = prev_x - prev_k
        # Follow the snake (diagonal run) back to where the edit happened.
        while x > prev_x and y > prev_y:
            pairs.append((x - 1, y - 1))
            x -= 1
            y -= 1
        # Undo the single horizontal or vertical edit step.
        x, y = prev_x, prev_y
    pairs.reverse()
    return pairs


def myers_lcs(
    s1: Sequence[S],
    s2: Sequence[T],
    equal: EqualFn = operator.eq,
) -> List[Tuple[S, T]]:
    """Return element pairs of an LCS, mirroring the paper's ``LCS(S1, S2, equal)``."""
    return [(s1[i], s2[j]) for i, j in myers_lcs_indices(s1, s2, equal)]

