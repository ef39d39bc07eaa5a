"""Baseline change-detection algorithms the paper compares against (§2)."""

from .flat_diff import (
    FlatDiffResult,
    flat_diff,
    flat_diff_text,
    flatten_tree,
    undetected_moves,
)
from .zhang_shasha import zhang_shasha_distance

__all__ = [
    "FlatDiffResult",
    "flat_diff",
    "flat_diff_text",
    "flatten_tree",
    "undetected_moves",
    "zhang_shasha_distance",
]
