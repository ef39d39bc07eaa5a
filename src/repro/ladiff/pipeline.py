"""The LaDiff pipeline (paper Section 7).

End-to-end change detection for structured documents:

1. parse the old and new sources into document trees,
2. FastMatch (+ Section 8 post-processing) to find the matching,
3. Algorithm EditScript for the minimum conforming edit script,
4. build the delta tree,
5. render the marked-up output (LaTeX per Table 2, HTML, or text).

The paper's LaDiff "takes the match threshold t as a parameter"; pass a
custom :class:`~repro.matching.MatchConfig` to control ``t`` (and ``f``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigError
from ..core.tree import Tree
from ..deltatree.builder import DeltaTree
from ..deltatree.render_text import change_summary
from ..matching.criteria import MatchConfig
from ..pipeline import DiffConfig, DiffPipeline, DiffResult
from .html_parser import parse_html
from .latex_parser import parse_latex
from .text_parser import parse_text
from .xml_parser import parse_xml

_PARSERS = {
    "latex": parse_latex,
    "html": parse_html,
    "text": parse_text,
    "xml": parse_xml,
}


def parse_document(source: str, format: str) -> Tree:
    """Parse a document *source* written in the input *format*.

    *format* is one of ``"latex"``, ``"html"``, ``"text"`` or ``"xml"``;
    any other name raises :class:`~repro.core.errors.ConfigError` (a
    ``ValueError``).
    """
    try:
        parser = _PARSERS[format]
    except KeyError:
        raise ConfigError(
            f"unknown input format {format!r}; expected one of {sorted(_PARSERS)}"
        ) from None
    return parser(source)


@dataclass
class LaDiffResult:
    """Everything one LaDiff run produces."""

    old_tree: Tree
    new_tree: Tree
    diff: DiffResult
    delta: DeltaTree
    output: str

    @property
    def script(self):
        return self.diff.script

    def summary(self) -> str:
        """Human one-liner, e.g. '2 inserted, 1 moved'."""
        return change_summary(self.delta)


def default_match_config(t: float = 0.5, f: float = 0.6) -> MatchConfig:
    """LaDiff's matching configuration: thresholds *t* and *f*.

    No comparator is registered: the default one already sends sentence
    (string) values to the word-LCS distance of Section 7, and any other
    value type to its own comparator.
    """
    return MatchConfig(f=f, t=t)


def ladiff(
    old_source: str,
    new_source: str,
    format: str = "latex",
    config: Optional[MatchConfig] = None,
    output: str = "latex",
) -> LaDiffResult:
    """Run the full LaDiff pipeline on two document sources.

    Parameters
    ----------
    old_source, new_source:
        The two document versions, as text.
    format:
        Input format: ``"latex"``, ``"html"``, ``"text"`` or ``"xml"``
        (see :func:`parse_document`).
    config:
        Matching thresholds; :func:`default_match_config` when omitted.
    output:
        Output mark-up: ``"latex"`` (Table 2 conventions), ``"html"``, or
        ``"text"`` (indented annotation dump).
    """
    old_tree = parse_document(old_source, format)
    new_tree = parse_document(new_source, format)
    config = config if config is not None else default_match_config()
    # One DiffPipeline run covers steps 2-5: match, postprocess, edit
    # script, delta tree, and rendering (validated up front by DiffConfig).
    pipeline = DiffPipeline(DiffConfig(match=config, render=output))
    diff = pipeline.run(old_tree, new_tree)
    return LaDiffResult(
        old_tree=old_tree,
        new_tree=new_tree,
        diff=diff,
        delta=diff.delta,
        output=diff.rendered,
    )


def ladiff_files(
    old_path: str,
    new_path: str,
    format: str = "latex",
    config: Optional[MatchConfig] = None,
    output: str = "latex",
) -> LaDiffResult:
    """File-based convenience wrapper around :func:`ladiff`."""
    with open(old_path, encoding="utf-8") as handle:
        old_source = handle.read()
    with open(new_path, encoding="utf-8") as handle:
        new_source = handle.read()
    return ladiff(old_source, new_source, format=format, config=config, output=output)
