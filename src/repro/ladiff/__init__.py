"""LaDiff: change detection and mark-up for structured documents (§7)."""

from .document import split_sentences
from .html_parser import parse_html
from .latex_parser import parse_latex
from .latex_writer import write_latex
from .markup import EXPECTED_LATEX_MARKERS, LABEL_TO_UNIT, MARKUP_CONVENTIONS
from .pipeline import LaDiffResult, default_match_config, ladiff, ladiff_files, parse_document
from .text_parser import parse_text, write_text
from .xml_parser import parse_xml, write_xml

__all__ = [
    "EXPECTED_LATEX_MARKERS",
    "LABEL_TO_UNIT",
    "LaDiffResult",
    "MARKUP_CONVENTIONS",
    "default_match_config",
    "ladiff",
    "ladiff_files",
    "parse_document",
    "parse_html",
    "parse_latex",
    "parse_text",
    "parse_xml",
    "split_sentences",
    "write_latex",
    "write_text",
    "write_xml",
]
