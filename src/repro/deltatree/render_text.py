"""Plain-text rendering of delta trees.

One node per line, indented by depth, with the annotation tag in brackets.
Intended for terminals, logs, and tests; the LaTeX and HTML renderers follow
the paper's Table 2 conventions instead. The walk keeps an explicit stack,
so any depth renders.
"""

from __future__ import annotations

from typing import List, Tuple

from .annotations import Mov, Mrk, Upd
from .builder import DeltaNode, DeltaTree


def render_text(delta: DeltaTree, show_values: bool = True) -> str:
    """Render the delta tree as indented annotated text."""
    lines: List[str] = []
    stack: List[Tuple[DeltaNode, int]] = [(delta.root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + _describe(node, show_values))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def _describe(node: DeltaNode, show_values: bool) -> str:
    annotation = node.annotation
    parts = [node.label]
    if isinstance(annotation, Upd):
        parts.append(f"[UPD {_short(annotation.old_value)} -> {_short(node.value)}]")
    elif isinstance(annotation, Mov):
        tag = "MOV+UPD" if annotation.updated else "MOV"
        parts.append(f"[{tag} from {annotation.marker}]")
        if show_values and node.value is not None:
            parts.append(_short(node.value))
    elif isinstance(annotation, Mrk):
        parts.append(f"[MRK {annotation.marker}]")
    elif annotation.tag() != "IDN":
        parts.append(f"[{annotation.tag()}]")
    if (
        show_values
        and node.value is not None
        and not isinstance(annotation, (Upd, Mov))
    ):
        parts.append(_short(node.value))
    return " ".join(parts)


def _short(value: object, limit: int = 48) -> str:
    text = str(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return repr(text)


def change_summary(delta: DeltaTree) -> str:
    """One-line human summary: '2 inserted, 1 deleted, 1 moved, 3 updated'."""
    counts = delta.counts()
    fragments = []
    for tag, noun in (
        ("INS", "inserted"),
        ("DEL", "deleted"),
        ("MOV", "moved"),
        ("UPD", "updated"),
    ):
        if counts.get(tag):
            fragments.append(f"{counts[tag]} {noun}")
    return ", ".join(fragments) if fragments else "no changes"
