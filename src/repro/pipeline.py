"""The staged diff pipeline every front end runs on.

The paper's algorithm is a fixed sequence of stages — build each tree's
structure tables, find a good matching (§5), optionally repair it (§8),
generate the minimum conforming edit script (§4), and (for document front
ends) build and render the delta tree (§6). :class:`DiffPipeline` runs
exactly those named stages:

    ``index → match → postprocess → editscript → deltatree``

configured by one :class:`DiffConfig` and instrumented by one
:class:`Trace` per run. Each stage is a :mod:`repro.obs` span opened under
the parent span the caller passes to :meth:`DiffPipeline.run` (the
engine's, in the serving layer), so stages carry measured start and end
times on the parent's clock and nest inside it by construction. Their
annotations (``pairs``, ``repairs``, ``operations``, node counts) are the
span metadata; the trace adds the §8 comparison counters (``r1``/``r2``)
and index-cache hits. Without a traced parent the stages are
:class:`~repro.obs.trace.NullSpan` children: timed, never recorded.

Every entry point in the repository — :func:`repro.diff.tree_diff`, the
CLI, :class:`repro.service.DiffEngine`, :class:`repro.store.VersionStore`,
:func:`repro.merge.three_way_merge`, and :func:`repro.ladiff.pipeline.ladiff` —
routes through this module, so there is one place to cache, one place to
measure, and one place to add backends.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .core.errors import ConfigError
from .core.tree import Tree
from .editscript.generator import EditScriptResult, generate_edit_script
from .editscript.script import EditScript
from .matching.criteria import CriteriaContext, MatchConfig, MatchingStats
from .matching.fastmatch import fast_match
from .matching.matching import Matching
from .matching.postprocess import postprocess_matching
from .matching.simple import match as simple_match
from .obs.trace import AnySpan, NullSpan, Span  # noqa: F401 - Span is re-exported
from .simtest.clock import SYSTEM_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deltatree.builder import DeltaTree

#: Stage names, in execution order.
STAGES = ("index", "match", "postprocess", "editscript", "deltatree")

#: Recognized matcher choices.
ALGORITHMS = ("fast", "simple")

#: Recognized delta-tree renderers.
RENDER_FORMATS = ("latex", "html", "text")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass
class DiffConfig:
    """Everything that parameterizes one diff, validated up front.

    Attributes
    ----------
    algorithm:
        ``"fast"`` (FastMatch, Figure 11) or ``"simple"`` (Match, Figure 10).
    match:
        Matching thresholds and comparators (:class:`MatchConfig`);
        defaults are the paper's ``f=0.6, t=0.5``.
    postprocess:
        Run the §8 top-down repair pass after matching.
    build_delta:
        Run the ``deltatree`` stage (§6) and attach the result.
    render:
        Render the delta tree (``"latex"``, ``"html"`` or ``"text"``);
        implies ``build_delta``.

    All validation happens here, in ``__post_init__``, so every front end
    rejects a bad configuration with one typed :class:`ConfigError` before
    any stage runs.
    """

    algorithm: str = "fast"
    match: Optional[MatchConfig] = None
    postprocess: bool = True
    build_delta: bool = False
    render: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown matching algorithm {self.algorithm!r}; "
                f"expected one of {list(ALGORITHMS)}"
            )
        if self.render is not None:
            if self.render not in RENDER_FORMATS:
                raise ConfigError(
                    f"unknown output format {self.render!r}; "
                    f"expected one of {list(RENDER_FORMATS)}"
                )
            self.build_delta = True
        if self.match is not None and not isinstance(self.match, MatchConfig):
            raise ConfigError(
                f"match must be a MatchConfig, got {type(self.match).__name__}"
            )


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class Trace:
    """Per-run instrumentation: one span per stage plus scalar counters.

    Counters always present after a run: ``nodes_t1`` / ``nodes_t2``,
    ``leaf_compares`` (the paper's ``r1``), ``partner_checks`` (``r2``),
    ``lcs_calls``, ``postprocess_repairs``, ``operations``, and
    ``index_cache_hits``.
    """

    __slots__ = ("spans", "counters", "_parent", "_listeners")

    def __init__(
        self, parent: AnySpan, listeners: Tuple[Callable[[AnySpan], None], ...] = ()
    ) -> None:
        self.spans: List[AnySpan] = []
        self.counters: Dict[str, int] = {}
        self._parent = parent
        self._listeners = tuple(listeners)

    @contextmanager
    def span(self, name: str) -> Iterator[AnySpan]:
        """Run one named stage as a child span; listeners see it closed."""
        span = self._parent.child(name, kind="stage")
        try:
            with span:
                yield span
        finally:
            self.spans.append(span)
            for listener in self._listeners:
                listener(span)

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stage_ms(self) -> Dict[str, float]:
        """Wall milliseconds per stage, in execution order."""
        return {span.name: span.wall_ms for span in self.spans}

    def total_ms(self) -> float:
        return sum(span.wall_ms for span in self.spans)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly export (used by ``repro-diff batch --json``)."""
        return {
            "stages": [
                {"name": s.name, "wall_ms": round(s.wall_ms, 3), **s.meta}
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }

    def render(self) -> str:
        """Human-readable block (used by ``repro-diff script --trace``)."""
        lines = ["-- trace --"]
        for span in self.spans:
            extra = "".join(f" {k}={v}" for k, v in sorted(span.meta.items()))
            lines.append(f"{span.name + ':':<14}{span.wall_ms:9.3f} ms{extra}")
        lines.append(f"{'total:':<14}{self.total_ms():9.3f} ms")
        for name in sorted(self.counters):
            lines.append(f"{name + ':':<22}{self.counters[name]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------
@dataclass
class DiffResult:
    """Everything produced by one end-to-end diff.

    The always-present core — the matching used, the edit-script bundle,
    and the §8 counters — plus the run's :class:`Trace` and, when the
    configuration asked for them, the §6 delta tree and its rendering.
    """

    matching: Matching
    edit: EditScriptResult
    match_stats: MatchingStats = field(default_factory=MatchingStats)
    postprocess_repairs: int = 0
    trace: Optional[Trace] = None
    delta: Optional["DeltaTree"] = None
    rendered: Optional[str] = None

    @property
    def script(self) -> EditScript:
        """The minimum conforming edit script."""
        return self.edit.script

    def cost(self) -> float:
        return self.edit.cost()

    def verify(self, t1: Tree, t2: Tree) -> bool:
        """Replay the script on *t1* and compare against *t2*."""
        return self.edit.verify(t1, t2)

    def oracle_report(self, t1: Tree, t2: Tree, config=None):
        """Run the full :mod:`repro.verify` oracle battery on this result.

        Returns a :class:`~repro.verify.oracles.VerifyReport`; pass the
        :class:`~repro.matching.criteria.MatchConfig` the diff ran with to
        also check the matching criteria. (Lazy import: ``repro.verify``
        depends on this module.)
        """
        from .verify.oracles import verify_result

        return verify_result(t1, t2, self, config=config)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------
class DiffPipeline:
    """Run the paper's staged diff under one configuration.

    A pipeline object is cheap and stateless between runs (all per-run
    state lives in the :class:`Trace`), so one instance can serve many
    calls — including concurrently from the service layer's worker threads.

    Parameters
    ----------
    config:
        The :class:`DiffConfig`; defaults throughout when omitted.
    listeners:
        Callables handed each stage span as it closes (it has ``name``,
        ``wall_ms`` and ``meta``).
    clock:
        The :class:`~repro.simtest.clock.Clock` stages are timed on when
        :meth:`run` gets no parent span; the simulation harness passes its
        virtual clock.
    """

    def __init__(
        self,
        config: Optional[DiffConfig] = None,
        listeners: Tuple[Callable[[AnySpan], None], ...] = (),
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.config = config if config is not None else DiffConfig()
        self._listeners = tuple(listeners)
        self._clock = clock

    # ------------------------------------------------------------------
    def run(
        self,
        t1: Tree,
        t2: Tree,
        matching: Optional[Matching] = None,
        parent: Optional[AnySpan] = None,
    ) -> DiffResult:
        """Diff *t1* against *t2*; neither tree is mutated.

        A precomputed *matching* (e.g. from keys) skips the ``match`` and
        ``postprocess`` stages entirely, exactly as the legacy
        ``tree_diff(matching=...)`` did. Stages open as children of
        *parent* (an untraced :class:`~repro.obs.trace.NullSpan` on the
        pipeline's clock when omitted).
        """
        config = self.config
        if parent is None:
            parent = NullSpan("pipeline", self._clock)
        trace = Trace(parent, self._listeners)
        stats = MatchingStats()
        repairs = 0

        with trace.span("index") as span:
            # The tables live on each tree's snapshot, so a tree (or a copy
            # sharing its snapshot) that was diffed before reuses them.
            reused = t1.to_arena().build_tables() + t2.to_arena().build_tables()
            span.annotate(nodes_t1=len(t1), nodes_t2=len(t2))
        trace.counters["index_cache_hits"] = reused
        trace.counters["nodes_t1"] = len(t1)
        trace.counters["nodes_t2"] = len(t2)

        context = CriteriaContext(t1, t2, config.match, stats)
        if matching is None:
            with trace.span("match") as span:
                if config.algorithm == "fast":
                    matching = fast_match(t1, t2, config.match, stats, context=context)
                else:
                    matching = simple_match(
                        t1, t2, config.match, stats, context=context
                    )
                span.annotate(pairs=len(matching))
            if config.postprocess:
                with trace.span("postprocess") as span:
                    repairs = postprocess_matching(
                        t1, t2, matching, config.match, stats, context=context
                    )
                    span.annotate(repairs=repairs)

        with trace.span("editscript") as span:
            edit = generate_edit_script(t1, t2, matching)
            span.annotate(operations=len(edit.script))

        result = DiffResult(
            matching=matching,
            edit=edit,
            match_stats=stats,
            postprocess_repairs=repairs,
            trace=trace,
        )
        if config.build_delta:
            with trace.span("deltatree"):
                result.delta = self._build_delta(t1, t2, edit)
                if config.render is not None:
                    result.rendered = _render_delta(result.delta, config.render)

        trace.counters.update(
            leaf_compares=stats.leaf_compares,
            partner_checks=stats.partner_checks,
            lcs_calls=stats.lcs_calls,
            postprocess_repairs=repairs,
            operations=len(edit.script),
        )
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _build_delta(t1: Tree, t2: Tree, edit: EditScriptResult) -> "DeltaTree":
        from .deltatree.builder import build_delta_tree

        return build_delta_tree(t1, t2, edit)


def _render_delta(delta: "DeltaTree", output: str) -> str:
    if output == "latex":
        from .deltatree.render_latex import render_latex

        return render_latex(delta)
    if output == "html":
        from .deltatree.render_html import render_html

        return render_html(delta)
    from .deltatree.render_text import render_text

    return render_text(delta)
