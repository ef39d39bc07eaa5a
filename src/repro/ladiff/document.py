"""The LaDiff document schema, built once for every front end (Section 7).

LaDiff's documents are trees labeled D/Sec/SubSec/P/list/item/S. The LaTeX,
HTML and plain-text parsers only tokenize their input; each feeds the same
:class:`DocumentBuilder`, which decides where every node goes:

* ``Sec`` goes under ``D``; ``SubSec`` under the nearest ``Sec`` or ``D``;
* a ``list`` opens in the innermost open container, and an ``item`` closes
  any open item first;
* a paragraph's sentences go directly under an open ``item`` (the paper's
  schema), and otherwise under a new ``P``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..core.arena import ArenaBuilder
from ..core.tree import Tree

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> List[str]:
    """Split a paragraph's text into sentences on ``.``/``!``/``?`` + space."""
    text = " ".join(text.split())
    if not text:
        return []
    return [part for part in _SENTENCE_SPLIT.split(text) if part]


class DocumentBuilder:
    """Preorder construction of one document tree from parser events.

    Text accumulates until the paragraph ends; every structural call ends
    it first. The stack of open containers is always a prefix of the
    tree's rightmost path, so nodes are created in preorder and get the
    ids 1..n in creation order.
    """

    def __init__(self) -> None:
        self._arena = ArenaBuilder()
        #: ``(preorder position, label)`` of the open containers, innermost last.
        self._open: List[Tuple[int, str]] = []
        self._text: List[str] = []
        self._push("D", None)

    def add_text(self, text: str) -> None:
        """Append text to the pending paragraph."""
        self._text.append(text)

    def end_paragraph(self) -> None:
        """Turn the pending text into sentences under an item or a new ``P``."""
        sentences = split_sentences(" ".join(self._text))
        self._text = []
        if not sentences:
            return
        parent, label = self._open[-1]
        if label != "item":
            parent = self._add(parent, "P", None)
        for sentence in sentences:
            self._add(parent, "S", sentence)

    def open_section(self, label: str, title: Optional[str]) -> None:
        """Open a ``Sec`` or ``SubSec`` titled *title*."""
        self.end_paragraph()
        if label == "Sec":
            del self._open[1:]
        else:
            while self._open[-1][1] not in ("Sec", "D"):
                self._open.pop()
        self._push(label, title)

    def open_list(self) -> None:
        """Open a ``list`` in the innermost open container."""
        self.end_paragraph()
        self._push("list", None)

    def close_list(self) -> None:
        """Close the open items and the list holding them, if one is open."""
        self.end_paragraph()
        self._close_items()
        if self._open[-1][1] == "list":
            self._open.pop()

    def open_item(self) -> None:
        """Open an ``item``, closing any open item first."""
        self.end_paragraph()
        self._close_items()
        self._push("item", None)

    def close_item(self) -> None:
        """Close the innermost container if it is an item."""
        self.end_paragraph()
        if self._open[-1][1] == "item":
            self._open.pop()

    def in_list(self) -> bool:
        """Whether the innermost open container, past any items, is a list."""
        labels = [label for _, label in self._open if label != "item"]
        return labels[-1] == "list"

    def finish(self) -> Tree:
        """End the pending paragraph; return the arena-backed tree."""
        self.end_paragraph()
        return Tree.from_arena(self._arena.finish())

    def _close_items(self) -> None:
        while self._open[-1][1] == "item":
            self._open.pop()

    def _push(self, label: str, value: Optional[str]) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append((self._add(parent, label, value), label))

    def _add(self, parent: int, label: str, value: Optional[str]) -> int:
        return self._arena.add(parent, len(self._arena.node_ids) + 1, label, value)
