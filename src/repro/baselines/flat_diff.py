"""Flat line-based diff baseline (GNU diff / [Mye86]).

Section 2 explains why flat diff is insufficient for structured documents:
it has no notion of hierarchy (an item can be matched to a section heading)
and "moves are always reported as deletions and insertions". This baseline
makes those drawbacks measurable: documents are flattened to one sentence
per line and diffed with Myers' algorithm, and the analysis helpers count
how much larger the flat delta is than the structure-aware one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.tree import Tree
from ..lcs.sequences import OpCode, diff_opcodes, unified_hunks


@dataclass
class FlatDiffResult:
    """Line-level diff statistics between two flattened documents."""

    opcodes: List[OpCode]
    deleted_lines: int
    inserted_lines: int
    unchanged_lines: int

    @property
    def total_changes(self) -> int:
        """Flat edit cost: one per deleted or inserted line."""
        return self.deleted_lines + self.inserted_lines


def flatten_tree(tree: Tree) -> List[str]:
    """Flatten a document tree to lines the way a text dump would.

    Headings render as ``\\section{...}``-style lines and leaves as their
    values, so the flat baseline sees the same content as the tree differ —
    this is what "diffing the source" approximates.
    """
    lines: List[str] = []
    for node in tree.preorder():
        if node.is_leaf and node.value is not None:
            lines.append(str(node.value))
        elif node.value is not None:
            lines.append(f"[{node.label}] {node.value}")
    return lines


def flat_diff(t1: Tree, t2: Tree) -> FlatDiffResult:
    """Line diff of the flattened trees."""
    lines1 = flatten_tree(t1)
    lines2 = flatten_tree(t2)
    opcodes = diff_opcodes(lines1, lines2)
    deleted = sum(op.i2 - op.i1 for op in opcodes if op.tag == "delete")
    inserted = sum(op.j2 - op.j1 for op in opcodes if op.tag == "insert")
    unchanged = sum(op.i2 - op.i1 for op in opcodes if op.tag == "equal")
    return FlatDiffResult(
        opcodes=opcodes,
        deleted_lines=deleted,
        inserted_lines=inserted,
        unchanged_lines=unchanged,
    )


def flat_diff_text(t1: Tree, t2: Tree, context: int = 1) -> str:
    """Unified-diff style rendering of the flat baseline's output."""
    return "\n".join(unified_hunks(flatten_tree(t1), flatten_tree(t2), context))


def undetected_moves(t1: Tree, t2: Tree) -> int:
    """Lines the flat diff reports as delete+insert that are really moves.

    A line counts as a missed move when it occurs among both the deleted
    and the inserted lines (same text leaving one place and appearing in
    another). This is the paper's §2 drawback quantified.
    """
    result = flat_diff(t1, t2)
    lines1 = flatten_tree(t1)
    lines2 = flatten_tree(t2)
    deleted: List[str] = []
    inserted: List[str] = []
    for op in result.opcodes:
        if op.tag == "delete":
            deleted.extend(lines1[op.i1 : op.i2])
        elif op.tag == "insert":
            inserted.extend(lines2[op.j1 : op.j2])
    moved = 0
    remaining = list(inserted)
    for line in deleted:
        if line in remaining:
            remaining.remove(line)
            moved += 1
    return moved
