"""Longest-common-subsequence algorithms: Myers pairs, bit-parallel length."""

from .bitparallel import lcs_length, shortest_edit_distance
from .dp import dp_lcs, dp_lcs_indices, dp_lcs_length
from .myers import myers_lcs, myers_lcs_indices
from .sequences import OpCode, diff_opcodes, unified_hunks

__all__ = [
    "OpCode",
    "diff_opcodes",
    "dp_lcs",
    "dp_lcs_indices",
    "dp_lcs_length",
    "lcs_length",
    "myers_lcs",
    "myers_lcs_indices",
    "shortest_edit_distance",
    "unified_hunks",
]
