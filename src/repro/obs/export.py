"""Trace assembly, validation, JSONL export, and the tree pretty-printer.

These helpers operate on *span dicts* (the :meth:`SpanRecord.to_dict`
shape) rather than live records, so they work identically on spans
pulled from a tracer, fetched from ``/v1/trace/<id>``, merged across
shards, or loaded back from a JSONL export.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Slack for float comparisons on span boundaries (seconds).
_EPS = 1e-6


def _span_key(span: Dict[str, Any]) -> Tuple[float, str, str]:
    return (span.get("start", 0.0), span.get("trace", ""), span.get("span", ""))


def merge_spans(*span_lists: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge span dicts from several sources, deduped and stably ordered."""
    seen = set()
    merged: List[Dict[str, Any]] = []
    for spans in span_lists:
        for span in spans:
            key = (span.get("trace"), span.get("span"))
            if key in seen:
                continue
            seen.add(key)
            merged.append(span)
    merged.sort(key=_span_key)
    return merged


def build_span_tree(
    spans: Iterable[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, List[Dict[str, Any]]]]:
    """Return ``(roots, children_by_span_id)`` for a set of span dicts.

    A root is any span whose parent is absent from the set — a partial
    trace (e.g. one shard's view) can legitimately have several.
    """
    spans = sorted(spans, key=_span_key)
    by_id = {span["span"]: span for span in spans}
    children: Dict[str, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    return roots, children


def validate_trace(spans: List[Dict[str, Any]]) -> List[str]:
    """Structural checks on one trace; returns human-readable violations.

    Checked: unique span ids, every span closed with ``end >= start``,
    exactly one root, child intervals nested inside their parent, and the
    sum of stage-kind children bounded by the enclosing span.
    """
    violations: List[str] = []
    if not spans:
        return ["trace has no spans"]
    ids = [span.get("span") for span in spans]
    if len(set(ids)) != len(ids):
        violations.append("duplicate span ids")
    traces = {span.get("trace") for span in spans}
    if len(traces) != 1:
        violations.append(f"spans belong to {len(traces)} traces, expected 1")
    for span in spans:
        if span.get("end") is None:
            violations.append(f"span {span.get('span')} ({span.get('name')}) never closed")
        elif span["end"] + _EPS < span["start"]:
            violations.append(f"span {span.get('span')} ends before it starts")
    roots, children = build_span_tree(spans)
    if len(roots) != 1:
        names = [f"{r.get('name')}({r.get('span')})" for r in roots]
        violations.append(f"expected a single root, found {len(roots)}: {names}")
    by_id = {span["span"]: span for span in spans}
    for parent_id, kids in children.items():
        parent = by_id[parent_id]
        if parent.get("end") is None:
            continue
        stage_sum = 0.0
        for kid in kids:
            if kid.get("end") is None:
                continue
            if kid["start"] + _EPS < parent["start"] or kid["end"] > parent["end"] + _EPS:
                violations.append(
                    f"span {kid['span']} ({kid.get('name')}) "
                    f"[{kid['start']:.6f}, {kid['end']:.6f}] escapes parent "
                    f"{parent.get('name')} [{parent['start']:.6f}, {parent['end']:.6f}]"
                )
            if kid.get("kind") == "stage":
                stage_sum += kid["end"] - kid["start"]
        parent_wall = parent["end"] - parent["start"]
        if stage_sum > parent_wall + _EPS:
            violations.append(
                f"stage spans under {parent.get('name')} sum to {stage_sum:.6f}s "
                f"> enclosing {parent_wall:.6f}s"
            )
    return violations


def spans_to_jsonl(spans: Iterable[Dict[str, Any]]) -> str:
    """Serialize span dicts to deterministic sorted-keys JSONL."""
    ordered = sorted(spans, key=lambda s: (s.get("trace", ""),) + _span_key(s))
    return "".join(
        json.dumps(span, sort_keys=True, separators=(",", ":")) + "\n"
        for span in ordered
    )


def load_spans_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse spans back out of a JSONL export."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _label(span: Dict[str, Any]) -> str:
    wall = span.get("wall_ms")
    status = span.get("status", "ok")
    parts = [span.get("name", "?")]
    if wall is not None:
        parts.append(f"{wall:.3f}ms")
    parts.append(status)
    meta = span.get("meta") or {}
    keys = ("attempt", "worker", "decision", "source", "position",
            "pairs", "repairs", "operations")
    notes = [f"{k}={meta[k]}" for k in keys if k in meta]
    if notes:
        parts.append("[" + " ".join(notes) + "]")
    return " ".join(str(p) for p in parts)


def render_span_tree(
    spans: List[Dict[str, Any]], trace_id: Optional[str] = None
) -> str:
    """ASCII tree of one trace, suitable for terminal output."""
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace") == trace_id]
    if not spans:
        return "(no spans)"
    tid = spans[0].get("trace", "?")
    roots, children = build_span_tree(spans)
    total = max((s.get("end") or s["start"]) for s in spans) - min(
        s["start"] for s in spans
    )
    lines = [f"trace {tid} ({len(spans)} spans, {total * 1000.0:.3f}ms)"]

    def entries(siblings: List[Dict[str, Any]], prefix: str) -> List[Any]:
        """Stack entries for *siblings*, the first one on top."""
        last = len(siblings) - 1
        return [(span, prefix, i == last) for i, span in enumerate(siblings)][::-1]

    stack = entries(roots, "")
    while stack:
        span, prefix, last = stack.pop()
        lines.append(prefix + ("`- " if last else "|- ") + _label(span))
        kids = children.get(span["span"], [])
        stack += entries(kids, prefix + ("   " if last else "|  "))
    return "\n".join(lines)
