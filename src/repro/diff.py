"""Top-level change-detection API.

:func:`tree_diff` is a thin compatibility wrapper over
:class:`repro.pipeline.DiffPipeline`, which wires the paper's two
subproblems together: find a good matching (FastMatch by default),
optionally repair it (Section 8 post-processing), then generate the minimum
conforming edit script (Algorithm EditScript). This is the function most
applications need; the pieces remain individually importable for custom
pipelines, and the pipeline itself (with its staged :class:`Trace`
instrumentation and shared per-tree indexes) is the extension point for
everything else.
"""

from __future__ import annotations

from typing import Optional

from .core.tree import Tree
from .matching.criteria import MatchConfig
from .matching.matching import Matching
from .pipeline import DiffConfig, DiffPipeline, DiffResult

__all__ = ["DiffResult", "tree_diff"]


def tree_diff(
    t1: Tree,
    t2: Tree,
    config: Optional[MatchConfig] = None,
    matching: Optional[Matching] = None,
    algorithm: str = "fast",
    postprocess: bool = True,
) -> DiffResult:
    """Compute the delta between an old tree and a new tree.

    Parameters
    ----------
    t1, t2:
        The old and new versions. Neither tree is mutated.
    config:
        Matching thresholds and comparators (:class:`MatchConfig`).
    matching:
        A pre-computed matching (e.g. from keys); when given, the matching
        algorithms are skipped entirely.
    algorithm:
        ``"fast"`` (FastMatch, default) or ``"simple"`` (Algorithm Match).
    postprocess:
        Run the Section 8 top-down repair pass after matching.

    Returns
    -------
    DiffResult
        The matching used, the edit script result, instrumentation, and
        the pipeline :class:`~repro.pipeline.Trace`.

    Raises
    ------
    repro.core.errors.ConfigError
        Immediately — before any work is done — when *algorithm* or any
        threshold is invalid.
    """
    pipeline = DiffPipeline(
        DiffConfig(
            algorithm=algorithm,
            match=config,
            postprocess=postprocess,
        )
    )
    return pipeline.run(t1, t2, matching=matching)
