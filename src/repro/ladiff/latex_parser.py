r"""LaTeX parsing into the paper's document trees (Section 7).

LaDiff "parses a subset of Latex consisting of sentences, paragraphs,
subsections, sections, lists, items, and document". This parser covers that
subset:

* ``\section{...}`` / ``\subsection{...}`` — labeled ``Sec`` / ``SubSec``
  with the heading text as the node value;
* ``itemize`` / ``enumerate`` / ``description`` environments — all mapped to
  the single label ``list`` (the paper's cycle-merging example: the three
  list kinds are semantically similar and would otherwise create a label
  cycle);
* ``\item`` — label ``item``, sentences as children;
* blank-line separated paragraphs — label ``P``;
* sentences — label ``S`` with the sentence text as value, split on
  ``.``/``!``/``?`` boundaries.

Everything between ``\begin{document}`` and ``\end{document}`` is parsed
(the whole input when no document environment is present); comments are
stripped; unknown commands are kept verbatim as sentence text so no content
is silently dropped.
"""

from __future__ import annotations

import re

from ..core.errors import ParseError
from ..core.tree import Tree
from .document import DocumentBuilder

#: Environments merged into the single ``list`` label.
LIST_ENVIRONMENTS = ("itemize", "enumerate", "description")

_LISTS = "|".join(LIST_ENVIRONMENTS)
_COMMENT = re.compile(r"(?<!\\)%.*$", re.MULTILINE)
#: The recognized constructs; any other text is paragraph text. A heading
#: title may hold brace groups one level deep, as in ``\emph{...}``.
_CONSTRUCT = re.compile(
    r"\\(?P<heading>section|subsection)\*?\{(?P<title>(?:[^{}]|\{[^{}]*\})*)\}"
    rf"|(?P<begin>\\begin\{{(?:{_LISTS})\}})"
    rf"|(?P<end>\\end\{{(?:{_LISTS})\}})"
    r"|\\item\b\s*"
)


def parse_latex(source: str) -> Tree:
    """Parse LaTeX source into a document tree (labels D/Sec/SubSec/P/list/item/S)."""
    body = _COMMENT.sub("", _extract_body(source))
    builder = DocumentBuilder()
    for line in body.split("\n"):
        _consume_line(builder, line.strip())
    return builder.finish()


def _extract_body(source: str) -> str:
    begin = source.find(r"\begin{document}")
    if begin < 0:
        return source
    begin += len(r"\begin{document}")
    end = source.find(r"\end{document}", begin)
    if end < 0:
        raise ParseError(r"\begin{document} without matching \end{document}")
    return source[begin:end]


def _consume_line(builder: DocumentBuilder, line: str) -> None:
    if not line:
        builder.end_paragraph()
        return
    position = 0
    while position < len(line):
        construct = _CONSTRUCT.match(line, position)
        if construct is None:
            # Plain text runs up to the next recognized construct.
            found = _CONSTRUCT.search(line, position + 1)
            end = found.start() if found else len(line)
            builder.add_text(line[position:end])
            position = end
            continue
        position = construct.end()
        if construct.group("heading"):
            label = "Sec" if construct.group("heading") == "section" else "SubSec"
            builder.open_section(label, construct.group("title").strip() or None)
        elif construct.group("begin"):
            builder.open_list()
        elif construct.group("end"):
            if not builder.in_list():
                raise ParseError(r"\end{itemize}-style close without open list")
            builder.close_list()
        else:
            if not builder.in_list():
                raise ParseError(r"\item outside of a list environment")
            builder.open_item()
