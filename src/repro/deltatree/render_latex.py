r"""LaTeX mark-up of delta trees following the paper's Table 2 conventions.

==============  =============  ============  ============  =====================
Textual unit    Insert         Delete        Update        Move
==============  =============  ============  ============  =====================
Sentence        bold font      small font    italic font   footnote + label
Paragraph       marginal note  marg. note    marg. note    marginal note + label
Item            marginal note  marg. note    marg. note    marginal note + label
Subsection      ``(ins)`` / ``(del)`` / ``(upd)`` / ``(mov)`` in the heading
Section         ``(ins)`` / ``(del)`` / ``(upd)`` / ``(mov)`` in the heading
==============  =============  ============  ============  =====================

Moved units are shown twice: a small-font, labeled copy at the old position
(the tombstone) and the real content at the new position referencing that
label — e.g. a sentence gains ``\footnote{Moved from S1}`` while the
tombstone reads ``S1:[...]``, exactly like Figure 16 of the paper.

The layout comes from :func:`repro.deltatree.units.document_units`, the
one walk the HTML renderer and :func:`repro.ladiff.write_latex` share;
this module supplies only the markup.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .annotations import Ins, Mov, Mrk, Upd
from .builder import DeltaNode, DeltaTree
from .units import HEADING_LABELS, SENTENCE_LABELS, document_units

LATEX_PREAMBLE = "\n".join(
    [
        r"\documentclass{article}",
        r"\setlength{\marginparwidth}{1.2in}",
        r"\begin{document}",
        "",
    ]
)
LATEX_POSTAMBLE = "\n" + r"\end{document}" + "\n"


def render_latex(delta: DeltaTree, full_document: bool = False) -> str:
    """Render a delta tree as marked-up LaTeX.

    With ``full_document=True`` the output is a compilable standalone
    document; otherwise only the body is returned.
    """
    keys = _assign_display_keys(delta)
    lines: List[str] = []
    for kind, node, deleted, sentences in document_units(delta.root):
        if kind == "heading":
            command = "sub" * (HEADING_LABELS[node.label] - 1) + "section"
            title = _escape(str(node.value)) if node.value is not None else ""
            lines += [f"\\{command}{{{_heading_note(node, deleted)}{title}}}", ""]
        elif kind == "block":
            lines += [_block_markup(node, deleted, sentences, keys), ""]
        elif kind == "sentence":
            # A bare sentence directly under a section/document.
            lines += [_sentence_markup(node, deleted, keys), ""]
        elif kind == "list":
            lines.append(r"\begin{itemize}")
        else:
            lines += [r"\end{itemize}", ""]
    text = "\n".join(lines)
    # Collapse runs of blank lines introduced by block handling.
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    body = text.strip("\n") + "\n"
    if full_document:
        return LATEX_PREAMBLE + body + LATEX_POSTAMBLE
    return body


def _heading_note(node: DeltaNode, deleted: bool) -> str:
    annotation = node.annotation
    if deleted:
        return "(del) "
    if isinstance(annotation, Ins):
        return "(ins) "
    if isinstance(annotation, Upd):
        return "(upd) "
    if isinstance(annotation, (Mov, Mrk)):
        return "(mov) "
    return ""


def _block_markup(
    node: DeltaNode,
    deleted: bool,
    sentences: Sequence[Tuple[DeltaNode, bool]],
    keys: Dict[str, str],
) -> str:
    annotation = node.annotation
    noun = "para" if node.label == "P" else "item"
    prefix = "\\item " if node.label == "item" else ""
    if isinstance(annotation, Mrk):
        return f"{prefix}{keys[annotation.marker]}:[{{\\small moved {noun}}}]"
    margin = ""
    if deleted:
        margin = f"\\marginpar{{Deleted {noun}}}"
    elif isinstance(annotation, Ins):
        margin = f"\\marginpar{{Inserted {noun}}}"
    elif isinstance(annotation, Upd):
        margin = f"\\marginpar{{Updated {noun}}}"
    elif isinstance(annotation, Mov):
        margin = f"\\marginpar{{Moved from {keys[annotation.marker]}}}"
    marked = (_sentence_markup(child, gone, keys) for child, gone in sentences)
    body = " ".join(text for text in marked if text)
    return (prefix + margin + body).strip()


def _sentence_markup(node: DeltaNode, deleted: bool, keys: Dict[str, str]) -> str:
    text = _escape(str(node.value)) if node.value is not None else ""
    annotation = node.annotation
    if isinstance(annotation, Mrk):
        return f"{keys[annotation.marker]}:[{{\\small {text}}}]"
    if deleted:
        return f"{{\\small {text}}}"
    if isinstance(annotation, Mov):
        if annotation.updated:
            text = f"\\textit{{{text}}}"
        return f"{text}\\footnote{{Moved from {keys[annotation.marker]}}}"
    if isinstance(annotation, Upd):
        return f"\\textit{{{text}}}"
    if isinstance(annotation, Ins):
        return f"\\textbf{{{text}}}"
    return text


def _assign_display_keys(delta: DeltaTree) -> Dict[str, str]:
    """Re-key markers per textual unit: S1, S2, ... / P1, ... / L1, ...

    The builder assigns opaque keys (M1, M2, ...); the paper's output labels
    moved sentences S1.. and moved paragraphs P1.., numbered in document
    order of their tombstones.
    """
    counters: Dict[str, int] = {}
    keys: Dict[str, str] = {}
    for node in delta.preorder():
        if not isinstance(node.annotation, Mrk):
            continue
        if node.label in SENTENCE_LABELS:
            family = "S"
        elif node.label == "P":
            family = "P"
        elif node.label == "item":
            family = "I"
        else:
            family = "X"
        counters[family] = counters.get(family, 0) + 1
        keys[node.annotation.marker] = f"{family}{counters[family]}"
    # Moves whose tombstone was dropped (vanished parent) keep opaque keys.
    for node in delta.preorder():
        if isinstance(node.annotation, Mov):
            keys.setdefault(node.annotation.marker, node.annotation.marker)
    return keys


def _escape(text: str) -> str:
    """Escape LaTeX special characters in plain text."""
    # Stash backslashes first so later escapes don't mangle them, and
    # restore them last so their replacement's braces survive.
    text = text.replace("\\", "\x00")
    for old, new in [
        ("&", r"\&"),
        ("%", r"\%"),
        ("$", r"\$"),
        ("#", r"\#"),
        ("_", r"\_"),
        ("{", r"\{"),
        ("}", r"\}"),
        ("~", r"\textasciitilde{}"),
        ("^", r"\textasciicircum{}"),
    ]:
        text = text.replace(old, new)
    return text.replace("\x00", r"\textbackslash{}")
