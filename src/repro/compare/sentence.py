"""Word-level sentence comparison (the paper's leaf ``compare`` function).

Section 7: "Our comparison function for leaf nodes — which are sentences —
first computes the LCS of the words in the sentences, then counts the number
of words not in the LCS." We normalize that count to the required ``[0, 2]``
range (Section 3.2) as::

    compare(v1, v2) = (|w1| + |w2| - 2 |LCS(w1, w2)|) / max(|w1|, |w2|)

which is 0 for identical sentences, at most 1 when at least half the words of
the longer sentence survive, and 2 when nothing matches. A value below 1
means "move + update is cheaper than delete + insert", exactly the
consistency property the cost model asks for.

:func:`word_lcs_distance` is the one sentence distance: the default
comparator routes every pair of strings to it, whatever the label. Words are
case-sensitive and keep their punctuation; a sentence is tokenized once and
the words are memoized, since matching compares each sentence against many
candidates. Only ``|LCS|`` is needed, so it comes from the bit-parallel
kernel (:func:`repro.lcs.bitparallel.lcs_length`), not from an alignment.

Matching asks only whether this distance is at most ``f``. For two strings
under the default comparator,
:meth:`repro.matching.criteria.CriteriaContext.leaves_equal` answers that
itself, with the same tokenizer and kernel, without calling this function.
This function stays the definition that the verify oracles and the tests
check that answer against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from ..lcs.bitparallel import lcs_length


def tokenize_words(text: str) -> List[str]:
    """Split a sentence into whitespace-delimited words.

    ``str.split()`` breaks on exactly the code points ``re``'s ``\\s``
    matches: those where ``str.isspace()`` holds.
    """
    return text.split()


@lru_cache(maxsize=4096)
def _words(text: str) -> Tuple[str, ...]:
    return tuple(tokenize_words(text))


def word_lcs_distance(a: Optional[str], b: Optional[str]) -> float:
    """Distance in ``[0, 2]`` between two sentence values.

    ``None`` values compare as empty sentences; two empty sentences are at
    distance 0.
    """
    words_a = _words(a) if a else ()
    words_b = _words(b) if b else ()
    if not words_a and not words_b:
        return 0.0
    if not words_a or not words_b:
        return 2.0
    if words_a == words_b:
        return 0.0
    common = lcs_length(words_a, words_b)
    return (len(words_a) + len(words_b) - 2 * common) / max(
        len(words_a), len(words_b)
    )
