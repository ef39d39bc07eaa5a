"""Golden digests of the trees the LaDiff parsers build.

Each case hashes, with SHA-256, the ``(node_ids, labels, values, parent)``
arrays of every tree that ``parse_latex``, ``parse_html`` and ``parse_text``
build for a fixed set of inputs, and the message of every ``ParseError``
they raise. A change to how the parsers build documents that alters any
node id, label, value, parent or error message changes a digest here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.core import ParseError
from repro.deltatree import render_html
from repro.deltatree.annotations import Idn
from repro.deltatree.builder import DeltaNode, DeltaTree
from repro.ladiff import parse_html, parse_latex, parse_text, write_latex
from repro.ladiff.fixtures import NEW_TEXBOOK, OLD_TEXBOOK
from repro.workload import DocumentSpec, generate_document

REPO_ROOT = Path(__file__).resolve().parent.parent

PARSERS = {"latex": parse_latex, "html": parse_html, "text": parse_text}

EDGE_CASES = [
    ("latex", ""),
    ("html", ""),
    ("text", ""),
    ("text", "\n\n   \n"),
    # nested lists
    ("latex", "\\begin{itemize}\n\\item Outer one.\n\\begin{enumerate}\n"
              "\\item Inner one. Inner two.\n\\item Inner three.\n"
              "\\end{enumerate}\nStill outer.\n\\item Outer two.\n"
              "\\end{itemize}\nAfter the list."),
    ("html", "<ul><li>Outer one.<ul><li>Inner one.</li><li>Inner two."
             "</ul>Still outer.</li><li>Outer two.</li></ul><p>After.</p>"),
    # <li> outside a list, and unbalanced closers
    ("html", "<p>Intro text.</p><li>Stray item. Two.</li><p>After.</p>"),
    ("html", "<h2>S</h2><li>Stray.<li>Another.</ul></ul><p>Tail.</p>"),
    # tags inside headings, skipped tags, line breaks
    ("html", "<h2>Intro <em>to</em> <a href='#x'>it</a></h2><p>Body one."
             " Body two.</p><h3>Sub <b>head</b></h3>Loose text.<br>More."
             "<script>var x = 1.</script><style>p {}</style><h4></h4>"),
    ("html", "<html><head><title>T.</title></head><body><h1>A</h1>"
             "<dl><dt>Term.</dt><dd>Def one. Def two.</dd></dl>"
             "<ol><li>One.</li></ol><h5>Deep</h5><p>x &amp; y.</p>"),
    # % comments
    ("latex", "Kept text. % a comment. Gone.\nNext line 10\\% up.\n"
              "% whole-line comment\n\n\\section{A} % trailing\nBody."),
    # headings in odd places
    ("latex", "\\subsection{Early}\nText before any section.\n"
              "\\section*{Star}\n\\begin{itemize}\\item In list.\n"
              "\\subsection{Inside}\nText.\n\\section{}\nEmpty title."),
    ("latex", "\\documentclass{article}\n\\begin{document}\n"
              "\\section{One}Inline body. \\textbf{kept} command.\n"
              "\\begin{description}\\item A. \\item B.\\end{description}"
              " tail.\n\\end{document}\nignored."),
    ("text", "Para one. Still one!\nSame para?\n\n\n  Para two.  \n\nThree"),
    # errors
    ("latex", "\\item stray item"),
    ("latex", "\\end{itemize}"),
    ("latex", "\\begin{itemize}\\item A.\\end{itemize}\\end{enumerate}"),
    ("latex", "\\begin{document}\nunclosed"),
]

#: A heading title holding a brace group; kept apart from EDGE_CASES so
#: that digest stays the one recorded before such titles parsed.
BRACED_TITLE_CASES = [
    ("latex", "\\section{Intro to \\emph{trees}}\n\nBody text."),
]


def _record(kind, source):
    try:
        tree = PARSERS[kind](source)
    except ParseError as exc:
        return repr((kind, "ParseError", str(exc)))
    arena = tree.to_arena()
    return repr((
        kind,
        list(arena.node_ids),
        [arena.label_of(pos) for pos in range(arena.n)],
        [arena.value_of(pos) for pos in range(arena.n)],
        list(arena.parent),
    ))


def _digest(cases):
    sha = hashlib.sha256()
    for kind, source in cases:
        sha.update(_record(kind, source).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _identity_delta(tree):
    def convert(node):
        out = DeltaNode(node.label, node.value, Idn())
        out.children = [convert(child) for child in node.children]
        return out

    return DeltaTree(convert(tree.root))


def _generated_documents():
    spec = DocumentSpec(
        sections=3,
        paragraphs_per_section=3,
        sentences_per_paragraph=3,
        words_per_sentence=6,
        subsection_probability=0.25,
        list_probability=0.3,
    )
    return [generate_document(seed, spec) for seed in range(50)]


def _html_monitor_snapshots():
    path = REPO_ROOT / "examples" / "html_change_monitor.py"
    spec = importlib.util.spec_from_file_location("html_change_monitor", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module.SNAPSHOT_MONDAY, module.SNAPSHOT_TUESDAY]


def _appendix_a_cases():
    return [(kind, source) for source in (OLD_TEXBOOK, NEW_TEXBOOK)
            for kind in ("latex", "text")]


def _html_monitor_cases():
    return [(kind, source) for source in _html_monitor_snapshots()
            for kind in ("html", "text")]


def _generated_latex_cases():
    cases = []
    for doc in _generated_documents():
        source = write_latex(doc)
        cases += [("latex", source), ("text", source)]
    return cases


def _generated_html_cases():
    cases = []
    for doc in _generated_documents():
        source = render_html(_identity_delta(doc), full_document=True)
        cases += [("html", source), ("text", source)]
    return cases


GOLDEN = {
    "appendix_a": (
        _appendix_a_cases,
        "23bef9a1636e05836c0778d9f282c2b968020d02204c5ab84b61e4bf210fa9d2",
    ),
    "html_monitor": (
        _html_monitor_cases,
        "6677a79399847b85e61ed5a8d64df09dda3d24f97f0ac808786f779b0091fe38",
    ),
    "generated_latex": (
        _generated_latex_cases,
        "1d18374d219105a77b1ae8f1dc1cea214e051ac837da2d7e1f1d56809df5dc68",
    ),
    "generated_html": (
        _generated_html_cases,
        "a9e104c2d899ba88c201c2ea0f316252146c9c72416a8ec605acd2a5c4a98a0d",
    ),
    "edge_cases": (
        lambda: EDGE_CASES,
        "1bcda255880a02b8c19ce09c53f6afd9664cb5253ce8737d11ca2c5c700f54a1",
    ),
    "braced_title": (
        lambda: BRACED_TITLE_CASES,
        "dd8a7e53492ccd01fee2c8c73781c50ddf5deb959409105bf0dcfee97d6198ba",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_parsed_trees_match_golden_digest(name):
    cases, expected = GOLDEN[name]
    assert _digest(cases()) == expected


def test_braced_section_title_opens_a_section():
    tree = parse_latex(BRACED_TITLE_CASES[0][1])
    assert tree.to_obj() == (
        "D", None, [("Sec", "Intro to \\emph{trees}", [("P", None, [("S", "Body text.", [])])])]
    )


def test_generated_documents_exercise_subsections_and_lists():
    labels = {node.label for doc in _generated_documents() for node in doc.preorder()}
    assert {"Sec", "SubSec", "P", "list", "item", "S"} <= labels
