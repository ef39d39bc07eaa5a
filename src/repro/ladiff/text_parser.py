"""Plain-text parsing into document trees.

The simplest front end: blank-line separated paragraphs of sentences under a
single document root (labels ``D`` / ``P`` / ``S``). Useful both as a LaDiff
input format and as the flat-diff baseline's structured counterpart.
"""

from __future__ import annotations

from typing import List

from ..core.tree import Tree
from ..deltatree.units import document_units
from .document import DocumentBuilder


def parse_text(source: str) -> Tree:
    """Parse plain text: paragraphs split on blank lines, then sentences."""
    builder = DocumentBuilder()
    for line in source.split("\n"):
        if line.strip():
            builder.add_text(line)
        else:
            builder.end_paragraph()
    return builder.finish()


def write_text(tree: Tree) -> str:
    """Render a document tree as plain text, one paragraph per unit.

    A heading's title and each block's sentences become one paragraph each,
    and a bare sentence its own paragraph, so every unit's text is kept.
    """
    paragraphs: List[str] = []
    units = document_units(tree.root) if tree.root is not None else ()
    for kind, node, _, sentences in units:
        if kind == "heading" and node.value is not None:
            paragraphs.append(str(node.value))
        elif kind == "block" and sentences:
            paragraphs.append(" ".join(str(child.value) for child, _ in sentences))
        elif kind == "sentence":
            paragraphs.append(str(node.value))
    return "\n\n".join(paragraphs) + ("\n" if paragraphs else "")
