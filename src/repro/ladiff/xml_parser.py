"""XML parsing into label-value trees (the SGML plan of paper §9).

The paper closes with "extending [LaDiff] to HTML and SGML documents"; this
is the SGML-descendant (XML) front end, and the encoding that descendants
of this paper (xmldiff, DaisyDiff, GumTree) use in practice:

* an element becomes a node labeled with its tag;
* each attribute becomes a child node labeled ``@<name>`` whose value is
  the attribute value (attributes sort by name so attribute order — which
  XML deems insignificant — cannot masquerade as a change);
* text content becomes ``#text`` leaves, split out around child elements
  (i.e. mixed content is preserved in document order).

The inverse, :func:`write_xml`, serializes a tree in this encoding back to
XML; ``parse -> write -> parse`` is the identity on the supported subset
(attribute order normalized, whitespace-only text dropped).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List, Optional, Tuple, Union
from xml.sax.saxutils import escape, quoteattr

from ..core.arena import ArenaBuilder
from ..core.errors import ParseError
from ..core.node import Node
from ..core.tree import Tree

ATTRIBUTE_PREFIX = "@"
TEXT_LABEL = "#text"


def parse_xml(source: str) -> Tree:
    """Parse an XML document into a label-value tree."""
    try:
        root_element = ET.fromstring(source)
    except ET.ParseError as exc:
        raise ParseError(f"invalid XML: {exc}") from None
    builder = ArenaBuilder()

    def add(parent: int, label: str, value: Optional[str]) -> int:
        return builder.add(parent, len(builder.node_ids) + 1, label, value)

    # A stack entry is an element, or the stripped text of a tail.
    stack: List[Tuple[Union[ET.Element, str], int]] = [(root_element, -1)]
    while stack:
        entry, parent = stack.pop()
        if isinstance(entry, str):
            add(parent, TEXT_LABEL, entry)
            continue
        pos = add(parent, entry.tag, None)
        for name in sorted(entry.attrib):
            add(pos, ATTRIBUTE_PREFIX + name, entry.attrib[name])
        if entry.text and entry.text.strip():
            add(pos, TEXT_LABEL, entry.text.strip())
        content: List[Union[ET.Element, str]] = []
        for child in entry:
            content.append(child)
            if child.tail and child.tail.strip():
                content.append(child.tail.strip())
        stack.extend((item, pos) for item in reversed(content))
    return Tree.from_arena(builder.finish())


def write_xml(tree: Tree, indent: int = 2) -> str:
    """Serialize a tree in the XML encoding back to XML text."""
    if tree.root is None:
        return ""
    lines: List[str] = []
    # A stack entry is an element still to write at its depth, or a line
    # (a closing tag, a text line) already formatted.
    stack: List[Union[Tuple[Node, int], str]] = [(tree.root, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        node, depth = entry
        if node.label.startswith(ATTRIBUTE_PREFIX) or node.label == TEXT_LABEL:
            raise ParseError(
                f"node {node.label!r} is not an element; attribute and text "
                f"nodes may only appear under an element"
            )
        if node.value is not None:
            raise ParseError(
                f"element {node.label!r} carries a value; element content "
                f"must be {TEXT_LABEL!r} children"
            )
        pad = " " * (depth * indent)
        attributes = [
            child
            for child in node.children
            if child.label.startswith(ATTRIBUTE_PREFIX)
        ]
        content = [
            child
            for child in node.children
            if not child.label.startswith(ATTRIBUTE_PREFIX)
        ]
        attr_text = "".join(
            f" {child.label[len(ATTRIBUTE_PREFIX):]}={quoteattr(str(child.value))}"
            for child in attributes
        )
        if not content:
            lines.append(f"{pad}<{node.label}{attr_text}/>")
            continue
        if len(content) == 1 and content[0].label == TEXT_LABEL:
            text = escape(str(content[0].value))
            lines.append(f"{pad}<{node.label}{attr_text}>{text}</{node.label}>")
            continue
        lines.append(f"{pad}<{node.label}{attr_text}>")
        stack.append(f"{pad}</{node.label}>")
        for child in reversed(content):
            if child.label == TEXT_LABEL:
                stack.append(f"{pad}{' ' * indent}{escape(str(child.value))}")
            else:
                stack.append((child, depth + 1))
    return "\n".join(lines) + "\n"
