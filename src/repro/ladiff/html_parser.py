"""HTML parsing into document trees.

The paper's future-work section plans "extending [LaDiff] to HTML and SGML
documents"; this module provides that extension for HTML. The element
mapping mirrors the LaTeX subset:

* ``<h1>``/``<h2>``  -> ``Sec``  (heading text as value)
* ``<h3>``-``<h6>``  -> ``SubSec``
* ``<p>``            -> ``P``
* ``<ul>``/``<ol>``/``<dl>`` -> ``list`` (merged label, as for LaTeX lists)
* ``<li>``/``<dd>``  -> ``item``
* text               -> ``S`` sentences

Unknown elements are transparent: their text participates in the enclosing
block, so arbitrary real-world pages degrade gracefully instead of failing.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional

from ..core.tree import Tree
from .document import DocumentBuilder

_SECTION_TAGS = {"h1": "Sec", "h2": "Sec", "h3": "SubSec", "h4": "SubSec",
                 "h5": "SubSec", "h6": "SubSec"}
_LIST_TAGS = {"ul", "ol", "dl"}
_ITEM_TAGS = {"li", "dd", "dt"}
_SKIP_TAGS = {"script", "style", "head", "title"}


def parse_html(source: str) -> Tree:
    """Parse an HTML document into a D/Sec/SubSec/P/list/item/S tree."""
    parser = _HtmlEvents()
    parser.feed(source)
    parser.close()
    return parser.document.finish()


class _HtmlEvents(HTMLParser):
    """Turns tags and text into :class:`DocumentBuilder` calls."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.document = DocumentBuilder()
        self.heading: Optional[str] = None  # label while inside <h*>
        self.heading_parts: List[str] = []
        self.skip_depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth += 1
            return
        if self.skip_depth:
            return
        if tag in _SECTION_TAGS:
            self.document.end_paragraph()
            self.heading = _SECTION_TAGS[tag]
            self.heading_parts = []
        elif tag in _LIST_TAGS:
            self.document.open_list()
        elif tag in _ITEM_TAGS:
            self.document.open_item()
        elif tag == "p" or tag == "br":
            self.document.end_paragraph()

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth = max(0, self.skip_depth - 1)
            return
        if self.skip_depth:
            return
        if tag in _SECTION_TAGS and self.heading is not None:
            title = " ".join(" ".join(self.heading_parts).split()) or None
            self.document.open_section(self.heading, title)
            self.heading = None
        elif tag in _LIST_TAGS:
            self.document.close_list()
        elif tag in _ITEM_TAGS:
            self.document.close_item()
        elif tag == "p":
            self.document.end_paragraph()

    def handle_data(self, data: str) -> None:
        if self.skip_depth:
            return
        if self.heading is not None:
            self.heading_parts.append(data)
        else:
            self.document.add_text(data)
