"""HTML rendering of delta trees.

The paper's introduction motivates web-page change tracking: "a paragraph
that has moved could be marked with a tombstone in its old position and be
highlighted in its new position." This renderer produces that view:

* inserted text  — ``<ins>`` (typically rendered underlined/green),
* deleted text   — ``<del>`` (struck through),
* updated text   — ``<em class="upd">``,
* moved text     — highlighted ``<span class="mov">`` with an anchor link
  back to a ``<span class="mrk">`` tombstone at the old position.

The layout (which nodes are headings, blocks, sentences and lists, and
which are deleted) comes from :func:`repro.deltatree.units.document_units`,
the walk the LaTeX writers share; this module only supplies the markup.
"""

from __future__ import annotations

import html
from typing import List

from .annotations import Ins, Mov, Mrk, Upd
from .builder import DeltaNode, DeltaTree
from .units import HEADING_LABELS, document_units

HTML_STYLE = """\
<style>
ins { background: #dcfce7; text-decoration: none; }
del { background: #fee2e2; }
em.upd { background: #fef9c3; }
span.mov { background: #dbeafe; }
span.mrk { color: #9ca3af; font-size: smaller; }
span.margin { float: right; color: #6b7280; font-size: smaller; }
</style>
"""


def render_html(delta: DeltaTree, full_document: bool = False) -> str:
    """Render a delta tree as annotated HTML (body only by default)."""
    lines: List[str] = []
    for kind, node, deleted, sentences in document_units(delta.root):
        if kind == "heading":
            tag = f"h{HEADING_LABELS[node.label] + 1}"
            title = html.escape(str(node.value)) if node.value is not None else ""
            lines.append(f"<{tag}>{_note(node, deleted)}{title}</{tag}>")
        elif kind == "block":
            tag = "p" if node.label == "P" else "li"
            text = " ".join(_sentence(child, gone) for child, gone in sentences)
            lines.append(f"<{tag}>{_margin(node, deleted)}{text}</{tag}>")
        elif kind == "sentence":
            lines.append(f"<p>{_sentence(node, deleted)}</p>")
        else:
            lines.append("<ul>" if kind == "list" else "</ul>")
    body = "\n".join(lines) + "\n"
    if full_document:
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
            + HTML_STYLE
            + "</head><body>\n"
            + body
            + "</body></html>\n"
        )
    return body


def _note(node: DeltaNode, deleted: bool) -> str:
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


def _margin(node: DeltaNode, deleted: bool) -> str:
    annotation = node.annotation
    noun = "paragraph" if node.label == "P" else "item"
    if deleted:
        return f'<span class="margin">deleted {noun}</span>'
    if isinstance(annotation, Ins):
        return f'<span class="margin">inserted {noun}</span>'
    if isinstance(annotation, Upd):
        return f'<span class="margin">updated {noun}</span>'
    if isinstance(annotation, Mov):
        return (
            f'<span class="margin">moved {noun} '
            f'(from <a href="#{annotation.marker}">here</a>)</span>'
        )
    if isinstance(annotation, Mrk):
        return f'<span class="margin" id="{annotation.marker}">moved away</span>'
    return ""


def _sentence(node: DeltaNode, deleted: bool) -> str:
    text = html.escape(str(node.value)) if node.value is not None else ""
    annotation = node.annotation
    if isinstance(annotation, Mrk):
        return (
            f'<span class="mrk" id="{annotation.marker}">[moved: {text}]</span>'
        )
    if deleted:
        return f"<del>{text}</del>"
    if isinstance(annotation, Mov):
        inner = f'<em class="upd">{text}</em>' if annotation.updated else text
        return (
            f'<span class="mov">{inner}'
            f'<sup><a href="#{annotation.marker}">moved</a></sup></span>'
        )
    if isinstance(annotation, Upd):
        return f'<em class="upd">{text}</em>'
    if isinstance(annotation, Ins):
        return f"<ins>{text}</ins>"
    return text
