"""One walk that lays a document tree out as the paper's Table 2 units.

Table 2 marks changes per textual unit: sentences, paragraphs and items,
and section headings. :func:`document_units` decides once how a tree lays
out as those units; the HTML and LaTeX renderers and
:func:`repro.ladiff.write_latex` only supply the markup. The walk reads
``label``, ``children`` and any ``annotation``, so delta trees and plain
trees both go through it, and it keeps an explicit stack, so document depth
is not bounded by the recursion limit.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Tuple

from .annotations import Del, Ins, Mov, Mrk, Upd

#: Labels treated as sentence-level (font changes).
SENTENCE_LABELS = {"S"}
#: Labels treated as block-level (marginal notes).
BLOCK_LABELS = {"P", "item"}
#: Labels annotated inside their headings, with their nesting level.
HEADING_LABELS = {"Sec": 1, "SubSec": 2}


class Unit(NamedTuple):
    #: ``heading``, ``block``, ``sentence``, ``list`` or ``end_list``.
    kind: str
    node: Any
    #: The node or one of its ancestors is annotated ``Del``.
    deleted: bool
    #: A block's sentence children, each with its own deleted flag.
    sentences: Tuple[Tuple[Any, bool], ...] = ()


def document_units(root: Any) -> Iterator[Unit]:
    """Yield the units under *root*, the document container, in order.

    A block's other children (a list nested in an item, ...) are walked
    after the block. Any other label is transparent.
    """
    end = object()  # stack entry that closes a list
    deleted = _is_deleted(root, False)
    stack: List[Tuple[Any, bool]] = [(c, deleted) for c in reversed(root.children)]
    while stack:
        node, deleted = stack.pop()
        if node is end:
            yield Unit("end_list", None, False)
            continue
        deleted = _is_deleted(node, deleted)
        if node.label in SENTENCE_LABELS:
            yield Unit("sentence", node, deleted)
            continue
        children = node.children
        if node.label in HEADING_LABELS:
            yield Unit("heading", node, deleted)
        elif node.label in BLOCK_LABELS:
            sentences = [c for c in children if c.label in SENTENCE_LABELS]
            marked = tuple((c, _is_deleted(c, deleted)) for c in sentences)
            yield Unit("block", node, deleted, marked)
            children = [c for c in children if c.label not in SENTENCE_LABELS]
        elif node.label == "list":
            yield Unit("list", node, deleted)
            stack.append((end, False))
        stack.extend((child, deleted) for child in reversed(children))


def heading_note(node: Any, deleted: bool) -> str:
    """The change note both renderers put before a heading's title."""
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


def _is_deleted(node: Any, inherited: bool) -> bool:
    return inherited or isinstance(getattr(node, "annotation", None), Del)
