"""Value comparison functions (the paper's ``compare`` in ``[0, 2]``)."""

from .generic import (
    CompareRegistry,
    Comparator,
    default_compare,
    exact_compare,
    numeric_compare,
)
from .sentence import tokenize_words, word_lcs_distance

__all__ = [
    "Comparator",
    "CompareRegistry",
    "default_compare",
    "exact_compare",
    "numeric_compare",
    "tokenize_words",
    "word_lcs_distance",
]
