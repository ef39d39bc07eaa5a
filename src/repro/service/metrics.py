"""Counters and latency histograms for the serving layer.

The §8 instrumentation (:class:`repro.matching.criteria.MatchingStats`)
counts algorithmic work inside one diff; this module measures the *service*
around it: jobs processed, cache effectiveness, digest short-circuits,
operations emitted, and wall-time percentiles. Everything is thread-safe
(the engine records from worker threads) and exports a plain-dict
:meth:`ServiceMetrics.snapshot` consumed by the CLI and the benchmarks.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..simtest.clock import SYSTEM_CLOCK, Clock
from ..verify.oracles import VerifyReport

#: Counter names the engine maintains; unknown names are allowed (the
#: metrics object is schemaless) but these are always present in snapshots.
STANDARD_COUNTERS = (
    "jobs_submitted",
    "jobs_succeeded",
    "jobs_failed",
    "jobs_timed_out",
    "jobs_retried",
    "cache_hits",
    "cache_misses",
    "digest_short_circuits",
    "ops_emitted",
    "verify_checks",
    "verify_failures",
)


class LatencyHistogram:
    """Wall-time samples with percentile export.

    Keeps a bounded ring of recent samples (plus exact count/total so the
    mean never loses precision); percentiles are computed over the retained
    window, which is the standard recent-window approximation.
    """

    def __init__(
        self,
        max_samples: int = 4096,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self._max = max_samples
        self._samples: List[float] = []
        self._next = 0  # ring cursor once the window is full
        self.count = 0
        self.total = 0.0
        self._clock = clock
        #: Monotonic stamps of the first/last observation (None until one
        #: lands) — under an injected clock these are virtual times, which
        #: is how the simulation harness asserts *when* latency was seen.
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def observe(self, value: float) -> None:
        now = self._clock.monotonic()
        if self.first_at is None:
            self.first_at = now
        self.last_at = now
        self.count += 1
        self.total += value
        if len(self._samples) < self._max:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._max

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0-100) of the retained window."""
        if not self._samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._samples)
        # Nearest-rank on the retained window.
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[int(rank)]


class ServiceMetrics:
    """Thread-safe counters + wall-time histograms for the diff engine.

    Besides the whole-job ``wall_ms`` histogram, the metrics keep one
    histogram per pipeline stage (``index``, ``match``, ``postprocess``,
    ``editscript``, ``deltatree``), fed either directly by the engine from
    each job's :class:`~repro.pipeline.Trace` or by subscribing
    :meth:`stage_listener` to a :class:`~repro.pipeline.DiffPipeline`.
    """

    def __init__(self, max_samples: int = 4096, clock: Clock = SYSTEM_CLOCK) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in STANDARD_COUNTERS}
        self._max_samples = max_samples
        # Drives the first_at/last_at stamps on every histogram.
        self._clock = clock
        self.wall_ms = LatencyHistogram(max_samples, clock=self._clock)
        self._stages: Dict[str, LatencyHistogram] = {}
        self.verify = VerifyReport()

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def observe_wall(self, milliseconds: float) -> None:
        with self._lock:
            self.wall_ms.observe(milliseconds)

    def observe_stage(self, stage: str, milliseconds: float) -> None:
        """Record one pipeline-stage wall time under its stage name."""
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = LatencyHistogram(
                    self._max_samples, clock=self._clock
                )
            histogram.observe(milliseconds)

    def stage_listener(self):
        """A span listener wiring a pipeline's trace into these metrics.

        Pass the result to :class:`~repro.pipeline.DiffPipeline` (the
        ``listeners`` argument or ``subscribe``): every stage span is then
        recorded here as it closes.
        """

        def on_span(span) -> None:
            self.observe_stage(span.name, span.wall_ms)

        return on_span

    def absorb_verify_report(self, report: VerifyReport) -> None:
        """Fold a :class:`~repro.verify.oracles.VerifyReport` into the
        metrics (the engine's ``verify_fraction`` spot checks, or any
        external battery run against served results)."""
        with self._lock:
            self.verify.merge(report)

    def stage_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-stage latency stats (count/mean/p50/p95/p99), JSON-friendly."""
        with self._lock:
            return {
                name: {
                    "count": hist.count,
                    "mean_ms": round(hist.mean(), 3),
                    "p50_ms": round(hist.percentile(50), 3),
                    "p95_ms": round(hist.percentile(95), 3),
                    "p99_ms": round(hist.percentile(99), 3),
                }
                for name, hist in sorted(self._stages.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._counters = {name: 0 for name in STANDARD_COUNTERS}
            self.wall_ms = LatencyHistogram(self.wall_ms._max, clock=self._clock)
            self._stages = {}
            self.verify = VerifyReport()

    def timestamps(self) -> Dict[str, Optional[float]]:
        """First/last observation stamps (clock-relative, virtual under sim)."""
        with self._lock:
            out: Dict[str, Optional[float]] = {
                "wall_first_at": self.wall_ms.first_at,
                "wall_last_at": self.wall_ms.last_at,
            }
            for name, hist in sorted(self._stages.items()):
                out[f"{name}_last_at"] = hist.last_at
            return out

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Export counters and latency stats as a JSON-friendly dict."""
        with self._lock:
            counters = dict(self._counters)
            wall = {
                "count": self.wall_ms.count,
                "mean_ms": round(self.wall_ms.mean(), 3),
                "p50_ms": round(self.wall_ms.percentile(50), 3),
                "p95_ms": round(self.wall_ms.percentile(95), 3),
                "p99_ms": round(self.wall_ms.percentile(99), 3),
                "max_ms": round(self.wall_ms.percentile(100), 3),
            }
        with self._lock:
            verify = self.verify.to_dict()
        return {
            "counters": counters,
            "wall_time": wall,
            "stages": self.stage_snapshot(),
            "verify": verify,
        }

    @staticmethod
    def merge_snapshots(
        snapshots: Dict[str, Dict[str, object]]
    ) -> Dict[str, object]:
        """Module-level :func:`merge_snapshots` exposed on the class."""
        return merge_snapshots(snapshots)

    def render(self, cache_stats: Optional[Dict[str, int]] = None) -> str:
        """Human-readable summary block (used by ``repro-diff batch``)."""
        snap = self.snapshot()
        counters = snap["counters"]
        wall = snap["wall_time"]
        lines = ["-- service metrics --"]
        for name in STANDARD_COUNTERS:
            lines.append(f"{name + ':':<24}{counters.get(name, 0)}")
        for name in sorted(set(counters) - set(STANDARD_COUNTERS)):
            lines.append(f"{name + ':':<24}{counters[name]}")
        lines.append(
            "wall time (ms):         "
            f"n={wall['count']} mean={wall['mean_ms']} "
            f"p50={wall['p50_ms']} p95={wall['p95_ms']} p99={wall['p99_ms']}"
        )
        for stage, stats in snap["stages"].items():
            lines.append(
                f"stage {stage + ':':<18}"
                f"n={stats['count']} mean={stats['mean_ms']} "
                f"p50={stats['p50_ms']} p95={stats['p95_ms']} p99={stats['p99_ms']}"
            )
        verify = snap["verify"]
        if verify["oracles"]:
            status = "ok" if verify["ok"] else "FAIL"
            checked = sum(o["pass"] + o["fail"] for o in verify["oracles"].values())
            failed = sum(o["fail"] for o in verify["oracles"].values())
            lines.append(
                f"verify:                 checks={checked} failures={failed} [{status}]"
            )
        if cache_stats is not None:
            lines.append(
                "cache:                  "
                f"size={cache_stats['size']}/{cache_stats['capacity']} "
                f"hits={cache_stats['hits']} misses={cache_stats['misses']} "
                f"evictions={cache_stats['evictions']}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-process aggregation (the cluster's /metrics endpoint)
# ---------------------------------------------------------------------------
def _merge_histogram_stats(stats_list):
    """Merge per-worker histogram *snapshots* (not raw samples).

    Counts sum exactly and means merge exactly (count-weighted). True
    percentiles are not recoverable from per-worker percentiles, so p50/p95/
    p99 merge as the count-weighted average — the standard snapshot-level
    approximation — while ``max_ms`` merges exactly as the max.
    """
    total = sum(int(stats.get("count", 0)) for stats in stats_list)
    keys = sorted({key for stats in stats_list for key in stats if key != "count"})
    merged = {"count": total}
    for key in keys:
        values = [
            (int(stats.get("count", 0)), float(stats.get(key, 0.0)))
            for stats in stats_list
            if key in stats
        ]
        if key == "max_ms":
            merged[key] = round(max((v for _, v in values), default=0.0), 3)
        elif total == 0:
            merged[key] = 0.0
        else:
            merged[key] = round(
                sum(count * value for count, value in values) / total, 3
            )
    return merged


def merge_snapshots(snapshots):
    """Merge per-worker :meth:`ServiceMetrics.snapshot` dicts into one view.

    *snapshots* maps a worker id to that worker's snapshot (the payload of
    its ``/metrics`` endpoint, or its final ``METRICS`` dump). The result
    mirrors the single-process snapshot shape — counters summed, wall-time
    and per-stage histograms merged, verify oracle tallies summed, cache
    stats summed — and additionally tags every input under ``workers`` so
    per-shard numbers stay inspectable.
    """
    ordered = {worker_id: snapshots[worker_id] for worker_id in sorted(snapshots)}
    counters: Dict[str, int] = {}
    for snap in ordered.values():
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)

    wall = _merge_histogram_stats(
        [snap.get("wall_time") or {} for snap in ordered.values()]
    )
    stage_names = sorted(
        {name for snap in ordered.values() for name in (snap.get("stages") or {})}
    )
    stages = {
        name: _merge_histogram_stats(
            [
                (snap.get("stages") or {}).get(name)
                for snap in ordered.values()
                if name in (snap.get("stages") or {})
            ]
        )
        for name in stage_names
    }

    verify_ok = True
    oracle_names: Dict[str, Dict[str, int]] = {}
    for snap in ordered.values():
        verify = snap.get("verify") or {}
        if not verify.get("ok", True):
            verify_ok = False
        for name, tally in (verify.get("oracles") or {}).items():
            merged_tally = oracle_names.setdefault(name, {"pass": 0, "fail": 0})
            merged_tally["pass"] += int(tally.get("pass", 0))
            merged_tally["fail"] += int(tally.get("fail", 0))

    cache: Optional[Dict[str, int]] = None
    for snap in ordered.values():
        worker_cache = snap.get("cache")
        if not isinstance(worker_cache, dict):
            continue
        if cache is None:
            cache = {key: 0 for key in worker_cache}
        for key, value in worker_cache.items():
            if isinstance(value, (int, float)):
                cache[key] = cache.get(key, 0) + int(value)

    trace: Optional[Dict[str, int]] = None
    for snap in ordered.values():
        worker_trace = snap.get("trace")
        if not isinstance(worker_trace, dict):
            continue
        if trace is None:
            trace = {}
        for key, value in worker_trace.items():
            if isinstance(value, (int, float)):
                trace[key] = trace.get(key, 0) + int(value)

    merged = {
        "counters": counters,
        "wall_time": wall,
        "stages": stages,
        "verify": {"ok": verify_ok, "oracles": oracle_names},
        "cache": cache,
        "workers": ordered,
    }
    if trace is not None:
        merged["trace"] = trace
    return merged
