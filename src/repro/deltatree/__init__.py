"""Delta trees: annotated change overlays and their renderers (Section 6)."""

from .annotations import Annotation, Del, Idn, Ins, Mov, Mrk, Upd
from .builder import DeltaNode, DeltaTree, build_delta_tree
from .correctness import assert_delta_tree, check_delta_tree
from .render_html import render_html
from .render_latex import render_latex
from .render_text import change_summary, render_text

__all__ = [
    "Annotation",
    "Del",
    "DeltaNode",
    "DeltaTree",
    "Idn",
    "Ins",
    "Mov",
    "Mrk",
    "Upd",
    "assert_delta_tree",
    "build_delta_tree",
    "check_delta_tree",
    "change_summary",
    "render_html",
    "render_latex",
    "render_text",
]
