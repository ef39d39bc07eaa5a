r"""Serialization of document trees back to LaTeX source.

The inverse of :mod:`repro.ladiff.latex_parser` for the supported subset:
used by round-trip tests and by workload tooling that needs materialized
``.tex`` versions of synthetic documents. The layout is the one walk the
delta-tree renderers use (:func:`repro.deltatree.units.document_units`),
without any change mark-up.
"""

from __future__ import annotations

from typing import List

from ..core.tree import Tree
from ..deltatree.units import HEADING_LABELS, document_units


def write_latex(tree: Tree, full_document: bool = False) -> str:
    """Render a document tree (labels D/Sec/SubSec/P/list/item/S) as LaTeX."""
    lines: List[str] = []
    units = document_units(tree.root) if tree.root is not None else ()
    for kind, node, _, sentences in units:
        if kind == "heading":
            command = "sub" * (HEADING_LABELS[node.label] - 1) + "section"
            lines += [f"\\{command}{{{node.value or ''}}}", ""]
        elif kind == "block":
            text = " ".join(str(child.value) for child, _ in sentences)
            if node.label == "item":
                lines.append("\\item " + text)
            else:
                lines += [text, ""]
        elif kind == "sentence":
            lines += [str(node.value), ""]
        elif kind == "list":
            lines.append("\\begin{itemize}")
        else:
            lines += ["\\end{itemize}", ""]
    body = "\n".join(lines).strip("\n") + "\n"
    if full_document:
        return (
            "\\documentclass{article}\n\\begin{document}\n\n"
            + body
            + "\n\\end{document}\n"
        )
    return body
