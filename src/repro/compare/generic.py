"""Generic value comparators and a per-label comparator registry.

The paper's cost model (Section 3.2) is parameterized by a ``compare``
function returning a distance in ``[0, 2]``; the "right" function depends on
the node's label (sentences vs. numeric attributes vs. opaque blobs). The
:class:`CompareRegistry` routes each label to its comparator, defaulting to
the word-LCS sentence distance for strings and exact comparison otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .sentence import word_lcs_distance

Comparator = Callable[[Any, Any], float]


def exact_compare(a: Any, b: Any) -> float:
    """0.0 for equal values, 2.0 otherwise (keys, ids, opaque payloads)."""
    return 0.0 if a == b else 2.0


def numeric_compare(a: Any, b: Any) -> float:
    """Relative numeric distance scaled to ``[0, 2]``.

    ``|a - b| / max(|a|, |b|)`` clipped to 2; equal values (including both
    zero) are at distance 0. Non-numeric inputs fall back to exact
    comparison.
    """
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return exact_compare(a, b)
    if fa == fb:
        return 0.0
    scale = max(abs(fa), abs(fb))
    if scale == 0.0:
        return 0.0
    return min(2.0, abs(fa - fb) / scale)


def default_compare(a: Any, b: Any) -> float:
    """Dispatch on value type: strings by word LCS, numbers relatively.

    ``None`` pairs with ``None`` at distance 0 and with anything else at
    distance 2.
    """
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return 2.0
    if isinstance(a, str) and isinstance(b, str):
        return word_lcs_distance(a, b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return numeric_compare(a, b)
    return exact_compare(a, b)


class CompareRegistry:
    """Map node labels to comparators, with a configurable default.

    Example::

        registry = CompareRegistry()
        registry.register("price", numeric_compare)
        distance = registry.compare(old_price, new_price, label="price")
    """

    def __init__(self, default: Comparator = default_compare) -> None:
        self._default = default
        self._by_label: Dict[str, Comparator] = {}

    def register(self, label: str, comparator: Comparator) -> None:
        """Route values of nodes labeled *label* through *comparator*."""
        self._by_label[label] = comparator

    def comparator_for(self, label: Optional[str]) -> Comparator:
        """Return the comparator used for a given label."""
        if label is not None and label in self._by_label:
            return self._by_label[label]
        return self._default

    def compare(self, a: Any, b: Any, label: Optional[str] = None) -> float:
        """Compare two raw values under the (optional) label's comparator."""
        return self.comparator_for(label)(a, b)
