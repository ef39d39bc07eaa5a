"""Bit-parallel LCS length (Allison–Dix 1986, in Hyyrö's 2004 form).

The paper's leaf ``compare`` (Section 7) counts the words outside the LCS of
two sentences, so Criterion 1 needs only ``|LCS|``, never the pairs. This
kernel computes that length with one machine-word-style step per item of
the second sequence, over plain Python ints used as bit vectors:

* ``masks[w]`` has bit ``i`` set iff ``s1[i] == w``;
* ``v`` starts all ones over ``len(s1)`` bits; for each item ``w`` of
  ``s2``, with ``u = v & masks[w]``, ``v = ((v + u) | (v - u))`` truncated
  to ``len(s1)`` bits;
* the zero bits of ``v`` count the LCS: ``|LCS| = len(s1) - popcount(v)``.

:func:`match_masks` builds the ``masks`` table and :func:`lcs_scan` runs
the steps over ``s2``; :func:`lcs_length` is their composition. A caller
that compares one sequence against many keeps its table and calls the scan.
Items are compared by hashing and ``==``, which is what sentence words
need. Callers with a custom equality predicate, or that need the index
pairs, use :func:`repro.lcs.myers.myers_lcs_indices`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence


def match_masks(s1: Sequence[Hashable]) -> Dict[Hashable, int]:
    """Return the match-mask table of *s1*: bit ``i`` of ``masks[w]`` is set
    iff ``s1[i] == w`` (the ``Peq`` table of Myers 1999 and Hyyrö 2004)."""
    masks: Dict[Hashable, int] = {}
    bit = 1
    for item in s1:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks


def lcs_scan(masks: Dict[Hashable, int], n: int, s2: Iterable[Hashable]) -> int:
    """Return ``|LCS(S1, S2)|`` from the match masks of an *n*-item ``S1``."""
    full = (1 << n) - 1
    v = full
    get = masks.get
    for item in s2:
        m = get(item)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    # int.bit_count needs Python 3.10; this package supports 3.9.
    return n - bin(v).count("1")


def lcs_length(s1: Sequence[Hashable], s2: Sequence[Hashable]) -> int:
    """Return ``|LCS(S1, S2)|`` under ``==``."""
    if not s1 or not s2:
        return 0
    return lcs_scan(match_masks(s1), len(s1), s2)


def shortest_edit_distance(s1: Sequence[Hashable], s2: Sequence[Hashable]) -> int:
    """Return ``D = |S1| + |S2| - 2 |LCS|``, the shortest edit script length."""
    return len(s1) + len(s2) - 2 * lcs_length(s1, s2)
