"""Traced in-process replay: the per-layer half of the latency ledger.

The replay feeds a workload's request bodies, in order, through the same
public functions the server calls for ``POST /v1/diff``, and times each
call from outside: client encode, ``parse_body``, ``require_pair``,
``cached_digests``, ``ScriptCache.get``, ``instantiate_script``,
``DiffPipeline.run`` (whose ``Trace`` listener reports the index / match /
postprocess / editscript stages as they close), ``canonicalize_script``,
``ScriptCache.put``, ``job_result_to_dict`` + ``dumps``, and client
decode. Nothing inside ``src/`` is instrumented.

Criterion-1 leaf compares are timed by wrapping the server's own
comparators in a fresh :class:`CompareRegistry`. Their time is attached to
the enclosing stage span as an aggregate (``leaf_compare_s``); one span
per compare would cost more than the compares.

Spans are kept in memory as dicts (``rid``, ``sid``, ``parent``, ``name``,
``start``, ``end`` in seconds since the replay began, plus attributes) and
written as JSONL only when the caller asks.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.compare.generic import CompareRegistry
from repro.editscript.script import EditScript
from repro.ladiff.pipeline import default_match_config
from repro.matching.criteria import MatchConfig
from repro.pipeline import DiffConfig, DiffPipeline, Span
from repro.serve.protocol import dumps, job_result_to_dict, parse_body, require_pair
from repro.service.cache import ScriptCache, canonicalize_script, instantiate_script
from repro.service.digest import cached_digests
from repro.service.engine import JobResult, config_key

from workloads import Workload, walk

#: Leaf layers, in request order. Their times partition a request except
#: for the container spans' own gaps, reported as ``other``.
LAYERS = (
    "client.encode",
    "protocol.decode",
    "protocol.build",
    "digest",
    "cache.lookup",
    "cache.instantiate",
    "index",
    "match",
    "postprocess",
    "editscript",
    "cache.canonicalize",
    "cache.store",
    "protocol.encode",
    "client.decode",
)
#: What ``repro-diff serve`` runs with by default.
SERVER_ALGORITHM = "fast"
SERVER_POSTPROCESS = True
SERVER_CACHE_SIZE = 256


class CompareTimer:
    """Accumulates time, calls and accepts (distance <= f) of comparators."""

    def __init__(self, f: float) -> None:
        self.f = f
        self.seconds = 0.0
        self.calls = 0
        self.accepts = 0

    def wrap(self, comparator: Callable[[Any, Any], float]) -> Callable[[Any, Any], float]:
        def timed(a: Any, b: Any) -> float:
            start = time.perf_counter()
            distance = comparator(a, b)
            self.seconds += time.perf_counter() - start
            self.calls += 1
            if distance <= self.f:
                self.accepts += 1
            return distance

        return timed

    def mark(self) -> Tuple[float, int, int]:
        return self.seconds, self.calls, self.accepts


def timed_match_config(base: MatchConfig, labels: List[str], timer: CompareTimer) -> MatchConfig:
    """*base* with every comparator it would use on *labels* wrapped."""
    default = base.registry.comparator_for(None)
    registry = CompareRegistry(default=timer.wrap(default))
    for label in labels:
        comparator = base.registry.comparator_for(label)
        if comparator is not default:
            registry.register(label, timer.wrap(comparator))
    return MatchConfig(
        f=base.f,
        t=base.t,
        registry=registry,
        match_empty_internals=base.match_empty_internals,
        always_match_roots=base.always_match_roots,
    )


def _labels(workload: Workload) -> List[str]:
    return sorted({
        node["label"]
        for body in workload.bodies
        for tree in (body["old"], body["new"])
        for node in walk(tree)
    })


class Replayer:
    """One server's worth of state (cache, pipeline) and the span log."""

    def __init__(self, workload: Workload) -> None:
        server_config = default_match_config()
        self.timer = CompareTimer(server_config.f)
        self.pipeline = DiffPipeline(
            DiffConfig(
                algorithm=SERVER_ALGORITHM,
                match=timed_match_config(server_config, _labels(workload), self.timer),
                postprocess=SERVER_POSTPROCESS,
            ),
            listeners=(self._stage_closed,),
        )
        self.config_key = config_key(server_config, SERVER_ALGORITHM, SERVER_POSTPROCESS)
        self.cache = ScriptCache(SERVER_CACHE_SIZE)
        self.spans: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self._stage_parent: Optional[Dict[str, Any]] = None
        self._compare_mark = self.timer.mark()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, rid: int, parent: Optional[Dict[str, Any]] = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "rid": rid,
            "sid": len(self.spans),
            "parent": parent["sid"] if parent is not None else None,
            "name": name,
            "start": self._now(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self._now()

    def _stage_closed(self, stage: Span) -> None:
        """Pipeline listener: a stage just ended, ``stage.wall_ms`` ago it began."""
        end = self._now()
        parent = self._stage_parent
        assert parent is not None, "pipeline stage outside a replayed request"
        record = {
            "rid": parent["rid"],
            "sid": len(self.spans),
            "parent": parent["sid"],
            "name": stage.name,
            "start": end - stage.wall_ms / 1000.0,
            "end": end,
        }
        mark = self.timer.mark()
        if stage.name == "match":
            record["leaf_compare_s"] = mark[0] - self._compare_mark[0]
            record["leaf_compares"] = mark[1] - self._compare_mark[1]
            record["leaf_accepts"] = mark[2] - self._compare_mark[2]
        self._compare_mark = mark
        self.spans.append(record)

    # ------------------------------------------------------------------
    def request(self, rid: int, body: Dict[str, Any], phase: str) -> Dict[str, Any]:
        """Replay one request; return the decoded response body."""
        with self.span("request", rid, phase=phase) as root:
            with self.span("client.encode", rid, root):
                raw = json.dumps(body, sort_keys=True).encode("utf-8")
            with self.span("protocol.decode", rid, root):
                data = parse_body(raw)
            with self.span("protocol.build", rid, root) as build:
                old, new = require_pair(data)
                build["nodes"] = len(old) + len(new)
            with self.span("engine", rid, root) as engine:
                result = self._engine(rid, engine, old, new)
            with self.span("protocol.encode", rid, root):
                out = dumps(job_result_to_dict(result))
            with self.span("client.decode", rid, root):
                return json.loads(out.decode("utf-8"))

    def _engine(self, rid: int, parent: Dict[str, Any], old, new) -> JobResult:
        """``DiffEngine._diff_into`` step by step, each step its own span."""
        started = time.perf_counter()
        result = JobResult(job_id=f"replay-{rid}")
        with self.span("digest", rid, parent):
            old_index = cached_digests(old)
            new_index = cached_digests(new)
        result.old_digest = old_index.root_hex
        result.new_digest = new_index.root_hex
        if old_index.root == new_index.root:
            result.source = "digest"
            result.script = EditScript()
            result.summary = result.script.summary()
        else:
            key = (result.old_digest, result.new_digest, self.config_key)
            with self.span("cache.lookup", rid, parent):
                payload = self.cache.get(key)
            if payload is not None:
                result.source = "cache"
            else:
                with self.span("pipeline", rid, parent) as pipeline:
                    self._stage_parent = pipeline
                    diffed = self.pipeline.run(old, new)
                    self._stage_parent = None
                    pipeline.update(diffed.trace.counters)
                result.stage_ms = diffed.trace.stage_ms()
                result.attempts = 1
                result.source = "computed"
                with self.span("cache.canonicalize", rid, parent):
                    payload = canonicalize_script(
                        diffed.script, old, diffed.edit.wrapped, diffed.edit.dummy_t1_id
                    )
            with self.span("cache.instantiate", rid, parent):
                script, wrapped, dummy_id = instantiate_script(payload, old)
            if result.source == "computed":
                with self.span("cache.store", rid, parent):
                    self.cache.put(key, payload)
            result.script = script
            result.wrapped = wrapped
            result.dummy_id = dummy_id
            result.operations = len(script)
            result.cost = payload["cost"]
            result.summary = dict(payload["summary"])
        result.wall_ms = (time.perf_counter() - started) * 1000.0
        return result


def replay(workload: Workload, count: int) -> Tuple[Replayer, int]:
    """Replay the warm-up pass, then the first *count* timed requests.

    Returns the replayer (its spans) and how many timed requests came
    back from another source than the one the workload expects.
    """
    replayer = Replayer(workload)
    rid = 0
    for index in workload.warmup:
        replayer.request(rid, workload.bodies[index], "warmup")
        rid += 1
    mismatches = 0
    for seq in range(count):
        index = workload.timed[seq % len(workload.timed)]
        decoded = replayer.request(rid, workload.bodies[index], "timed")
        mismatches += decoded["source"] != workload.expected_source(index)
        rid += 1
    return replayer, mismatches


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer means over the timed requests of a replay.

    ``<layer>.ms`` is mean milliseconds per timed request and
    ``<layer>.share`` its part of the summed request time; ``other`` is
    what no leaf layer covers. ``match.leaf_compare`` is nested inside
    ``match``, so its share is not part of the partition.
    """
    timed = {s["rid"] for s in spans if s["name"] == "request" and s["phase"] == "timed"}
    seconds: Dict[str, float] = {}
    counters = {"leaf_compares": 0, "partner_checks": 0, "lcs_calls": 0,
                "postprocess_repairs": 0, "operations": 0}
    compare_s = 0.0
    compares = accepts = pipeline_nodes = built_nodes = 0
    for s in spans:
        if s["rid"] not in timed:
            continue
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + (s["end"] - s["start"])
        if s["name"] == "match":
            compare_s += s["leaf_compare_s"]
            compares += s["leaf_compares"]
            accepts += s["leaf_accepts"]
        elif s["name"] == "pipeline":
            for name in counters:
                counters[name] += s[name]
            pipeline_nodes += s["nodes_t1"] + s["nodes_t2"]
        elif s["name"] == "protocol.build":
            built_nodes += s["nodes"]
    n = len(timed)
    total = seconds.get("request", 0.0)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.ms"] = seconds.get(layer, 0.0) / n * 1000.0
        out[f"{layer}.share"] = seconds.get(layer, 0.0) / total
    other = total - sum(seconds.get(layer, 0.0) for layer in LAYERS)
    out["other.ms"] = other / n * 1000.0
    out["other.share"] = other / total
    out["match.leaf_compare.ms"] = compare_s / n * 1000.0
    out["match.leaf_compare.share"] = compare_s / total
    out["match.leaf_compare.accept_ratio"] = accepts / compares if compares else 0.0
    out["match.us_per_node"] = (
        seconds.get("match", 0.0) / pipeline_nodes * 1e6 if pipeline_nodes else 0.0
    )
    out["protocol.build.us_per_node"] = seconds.get("protocol.build", 0.0) / built_nodes * 1e6
    out["match.r1"] = counters["leaf_compares"]
    out["match.r2"] = counters["partner_checks"]
    out["match.lcs_calls"] = counters["lcs_calls"]
    out["postprocess.repairs"] = counters["postprocess_repairs"]
    out["editscript.ops"] = counters["operations"]
    out["engine.replay_ms"] = seconds.get("engine", 0.0) / n * 1000.0
    return out
