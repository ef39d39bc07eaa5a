"""repro.obs — request-scoped distributed tracing for the serve stack.

A trace is a tree of spans keyed by a ``trace_id``.  Each layer of the
serving stack (client attempt, router proxy leg, worker admission,
engine) opens a span, annotates it, and closes it; the pipeline opens
one measured child span per stage under the engine's.  The
:class:`Tracer` records closed spans in a bounded ring buffer that can
be queried (``GET /v1/trace/<id>``), exported as sorted-keys JSONL, or
streamed to a callback (the simtest event log).  An unsampled request
carries a :class:`NullSpan`: the same calls, timed but never recorded.

Everything is driven by an injectable :class:`repro.simtest.clock.Clock`
and an injectable ``random.Random`` so simulation scenarios produce
byte-identical trace trees per seed.
"""

from repro.obs.trace import (
    MAX_SPAN_ID_LEN,
    MAX_TRACE_ID_LEN,
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    AnySpan,
    NullSpan,
    Span,
    SpanRecord,
    Tracer,
    extract_trace_context,
    inject_trace_headers,
    is_valid_span_id,
    is_valid_trace_id,
)
from repro.obs.export import (
    build_span_tree,
    load_spans_jsonl,
    merge_spans,
    render_span_tree,
    spans_to_jsonl,
    validate_trace,
)

__all__ = [
    "MAX_SPAN_ID_LEN",
    "MAX_TRACE_ID_LEN",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "AnySpan",
    "NullSpan",
    "Span",
    "SpanRecord",
    "Tracer",
    "build_span_tree",
    "extract_trace_context",
    "inject_trace_headers",
    "is_valid_span_id",
    "is_valid_trace_id",
    "load_spans_jsonl",
    "merge_spans",
    "render_span_tree",
    "spans_to_jsonl",
    "validate_trace",
]
