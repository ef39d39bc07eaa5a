"""Baseline change-detection algorithms the paper compares against (§2)."""

from .flat_diff import (
    FlatDiffResult,
    flat_diff,
    flat_diff_text,
    flatten_tree,
    undetected_moves,
)
from .zhang_shasha import (
    ZsOperation,
    zhang_shasha_distance,
    zhang_shasha_mapping,
    zhang_shasha_operations,
)

__all__ = [
    "FlatDiffResult",
    "ZsOperation",
    "flat_diff",
    "flat_diff_text",
    "flatten_tree",
    "undetected_moves",
    "zhang_shasha_distance",
    "zhang_shasha_mapping",
    "zhang_shasha_operations",
]
