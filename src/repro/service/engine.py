"""DiffEngine: concurrent, cached, measured tree diffing.

The paper's warehouse scenario (§1) receives periodic snapshot dumps and
must compute deltas for *many* pairs, most of them near-identical. The
engine wraps one shared :class:`repro.pipeline.DiffPipeline` with the three
things that workload needs:

1. **Merkle short-circuits** — equal root digests mean the snapshots are
   isomorphic, so the job completes with an empty script without running
   any matching (:mod:`repro.service.digest`).
2. **Result caching** — scripts are canonicalized and cached by content
   digests, so re-diffing content the service has already seen is a
   dictionary lookup (:mod:`repro.service.cache`).
3. **Fan-out with isolation** — a :class:`DiffJob` splits where the
   engine knows whether it has to match. Its :meth:`~DiffJob.lookup`
   (digests, short-circuit, one cache get) is linear in the input, so a
   caller may run it inline: the HTTP server answers digest and cache
   hits on its event loop, and computes a lone job there too when
   :meth:`DiffJob.small` holds. Other matching and sampled spot checks
   run on a thread pool with a batch deadline and per-job error capture:
   one malformed document fails its own job, never the batch.

CPython's GIL serializes pure-Python compute, so the thread pool overlaps
only digesting/caching with compute; multi-core scaling is the cluster's
job (``repro-diff serve --workers N``, one engine per process).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.tree import Tree
from ..editscript.script import EditScript
from ..matching.criteria import MatchConfig
from ..obs.trace import AnySpan, Tracer, sampled
from ..pipeline import DiffConfig, DiffPipeline, Trace
from .cache import ScriptCache, canonicalize_script, instantiate_script
from ..simtest.clock import SYSTEM_CLOCK, Clock
from .digest import cached_digests
from .metrics import SECTION8_COUNTERS, ServiceMetrics

#: A job input: a materialized tree, or a zero-argument loader called inside
#: the job so that parse failures are captured per-job.
TreeSource = Union[Tree, Callable[[], Tree]]

#: A :class:`ScriptCache` key: the two root digests and :func:`config_key`.
CacheKey = Tuple[Optional[str], Optional[str], str]

#: The largest ``len(old) + len(new)`` whose compute the HTTP server runs on
#: its event loop instead of the pool (see :meth:`DiffJob.small`). Matching
#: is quadratic in the leaves of one label at worst, so this bound caps the
#: loop's stall. The worst pair found at the two bounds, 63 sentences a side
#: that each pass the word-set filter and then fail the LCS test, diffs in
#: about 40 ms on a 2-vCPU VM, where a typical small document pair takes
#: under 1 ms.
INLINE_MAX_NODES = 128
#: The largest number of words, both trees' string values together, of a
#: pair computed on the loop. Each leaf compare can scan every word of both
#: sentences, so within :data:`INLINE_MAX_NODES` alone the stall grows with
#: the sentences: the pair above with 32 words a sentence took 144 ms.
INLINE_MAX_WORDS = 512


@dataclass
class JobResult:
    """Outcome of one diff job, including provenance and timing."""

    job_id: str
    status: str = "ok"  #: ``"ok"`` | ``"error"`` | ``"timeout"``
    #: Where the script came from: ``"computed"``, ``"cache"``, ``"digest"``
    #: (short-circuit on equal fingerprints), or ``None`` on failure.
    source: Optional[str] = None
    script: Optional[EditScript] = None
    wrapped: bool = False
    dummy_id: Any = None
    operations: int = 0
    cost: float = 0.0
    wall_ms: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    old_digest: Optional[str] = None
    new_digest: Optional[str] = None
    summary: Dict[str, int] = field(default_factory=dict)
    #: Per-pipeline-stage wall milliseconds for computed jobs (empty for
    #: cache/digest hits and failures); from the pipeline's Trace.
    stage_ms: Dict[str, float] = field(default_factory=dict)
    #: Outcome of the engine's oracle spot check: ``True``/``False`` when
    #: this job was sampled (``verify_fraction``), ``None`` when it wasn't.
    verified: Optional[bool] = None
    #: Trace id of the request this job ran under (``None`` when untraced).
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def apply_to(self, old_tree: Tree) -> Tree:
        """Replay the script on a copy of *old_tree* (handles dummy roots)."""
        if self.script is None:
            raise ValueError(f"job {self.job_id} has no script (status={self.status})")
        return self.script.apply_to(old_tree, dummy_id=self.dummy_id)


def config_key(
    config: Optional[MatchConfig], algorithm: str, postprocess: bool
) -> str:
    """Stable cache-key component for the matching configuration."""
    config = config if config is not None else MatchConfig()
    return (
        f"f={config.f};t={config.t}"
        f";mei={config.match_empty_internals};amr={config.always_match_roots}"
        f";reg={type(config.registry).__name__}"
        f";alg={algorithm};post={postprocess}"
    )


class DiffEngine:
    """Serving layer: fan tree pairs out, memoize, and measure.

    Parameters
    ----------
    workers:
        Concurrent jobs (the thread-pool width).
    config, algorithm, postprocess:
        The :class:`~repro.pipeline.DiffConfig` parameters applied to every
        job; validated eagerly (a bad algorithm raises
        :class:`~repro.core.errors.ConfigError` here, not per job).
    cache:
        A :class:`ScriptCache`, an int capacity for a fresh one, or ``None``
        to disable result caching (digest short-circuits still apply).
    metrics:
        Shared :class:`ServiceMetrics`; a fresh one is created when omitted.
    timeout:
        Seconds :meth:`map_pairs` waits for a whole batch; a job not done
        by then is reported as ``status="timeout"``. A queued job is
        cancelled; a running one is not killed, and counts once, as timed out.
    verify_fraction:
        Fraction of successful jobs (0.0–1.0) to re-check with the
        script-level oracles from :mod:`repro.verify.oracles`
        (:func:`~repro.verify.oracles.check_replay` and
        :func:`~repro.verify.oracles.check_cost_accounting`, the same
        functions the full battery runs). Sampling is
        deterministic — job ``n`` is checked when ``floor(n * fraction)``
        crosses an integer — and outcomes land on
        :attr:`JobResult.verified`, the ``verify_checks`` /
        ``verify_failures`` counters, and the metrics' ``verify`` section.
    clock:
        The :class:`~repro.simtest.clock.Clock` job and stage timings are
        read from (the simulation harness passes its virtual clock).
    """

    def __init__(
        self,
        workers: int = 4,
        config: Optional[MatchConfig] = None,
        algorithm: str = "fast",
        postprocess: bool = True,
        cache: Union[ScriptCache, int, None] = 256,
        metrics: Optional[ServiceMetrics] = None,
        timeout: Optional[float] = None,
        verify_fraction: float = 0.0,
        tracer: Optional[Tracer] = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0.0, 1.0], got {verify_fraction}"
            )
        self.workers = workers
        self.config = config
        self.algorithm = algorithm
        self.postprocess = postprocess
        self.clock = clock
        # One pipeline serves every job: run() keeps all per-run state in
        # its Trace, so concurrent worker threads can share the instance.
        # Raises ConfigError up front on a bad algorithm/config.
        self._pipeline = DiffPipeline(
            DiffConfig(algorithm=algorithm, match=config, postprocess=postprocess),
            clock=clock,
        )
        if isinstance(cache, int):
            cache = ScriptCache(cache) if cache > 0 else None
        self.cache = cache
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.timeout = timeout
        self._config_key = config_key(config, algorithm, postprocess)
        self._pool: Optional[ThreadPoolExecutor] = None
        self.verify_fraction = verify_fraction
        self._verify_lock = threading.Lock()
        self._verify_seen = 0
        #: The :class:`repro.obs.Tracer`; jobs that carry a trace context
        #: open an ``engine`` span with the pipeline's stage spans under it
        #: (an idle one on the engine's clock when none is passed).
        self.tracer = tracer if tracer is not None else Tracer(clock=clock)
        #: Fallback trace context applied when a job carries none (the CLI
        #: uses this to hang a whole batch under one root span).
        self.default_trace: Optional[Tuple[str, Optional[str]]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "DiffEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def pool(self) -> ThreadPoolExecutor:
        """The engine's worker pool (created on first use)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-diff"
            )
        return self._pool

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def diff(
        self,
        old: TreeSource,
        new: TreeSource,
        job_id: str = "diff",
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> JobResult:
        """Run one job, lookup and compute alike, in the calling thread.

        The server instead runs :meth:`DiffJob.lookup` on its event loop
        and only what is left on :meth:`pool`.
        """
        return DiffJob(self, old, new, job_id, trace)()

    def map_pairs(
        self,
        pairs: Iterable[Union[Tuple[TreeSource, TreeSource], Tuple[TreeSource, TreeSource, str]]],
    ) -> List[JobResult]:
        """Diff every ``(old, new[, job_id])`` pair; one result per pair, in order.

        Every pair yields exactly one :class:`JobResult`; malformed inputs
        or compute failures surface as ``status="error"`` results rather
        than exceptions. ``timeout`` is one deadline for the whole batch: a
        job still queued then is cancelled and never runs, and one still
        running is counted once, as timed out; both come back
        ``status="timeout"``.
        """
        jobs: List[Tuple[str, TreeSource, TreeSource]] = []
        for index, pair in enumerate(pairs):
            if len(pair) == 3:
                old, new, job_id = pair  # type: ignore[misc]
            else:
                old, new = pair  # type: ignore[misc]
                job_id = f"pair-{index}"
            jobs.append((str(job_id), old, new))
        if not jobs:
            return []
        pool = self.pool()
        calls = [DiffJob(self, old, new, job_id) for job_id, old, new in jobs]
        futures = [pool.submit(job) for job in calls]
        # One deadline for the whole batch, not one wait per job.
        done, _ = wait(futures, timeout=self.timeout)
        results: List[JobResult] = []
        for job, future in zip(calls, futures):
            if future.cancel():  # still queued: it never runs
                job.abandon()
                results.append(job.result)
            elif future in done or not job.expire():
                results.append(future.result())
            else:
                results.append(
                    JobResult(
                        job_id=job.result.job_id,
                        status="timeout",
                        wall_ms=(self.timeout or 0.0) * 1000.0,
                        error=f"job exceeded {self.timeout}s collection timeout",
                    )
                )
        return results

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _should_verify(self) -> bool:
        """Deterministic sampling: check job *n* when ``floor(n·f)`` steps."""
        if self.verify_fraction <= 0.0:
            return False
        with self._verify_lock:
            self._verify_seen += 1
            n = self._verify_seen
        return sampled(n, self.verify_fraction)

    def _spot_check(self, result: JobResult, old_tree: Tree, new_tree: Tree) -> bool:
        """The battery's script-level oracles on a served result.

        Cache and digest hits carry no matching, so only replay and cost
        accounting run here, through the same functions as
        :func:`~repro.verify.oracles.verify_result`.
        """
        from ..verify.oracles import VerifyReport, check_cost_accounting, check_replay

        script = result.script
        report = VerifyReport()
        report.record(
            "replay_isomorphism",
            check_replay(old_tree, new_tree, script, result.dummy_id),
        )
        report.record(
            "cost_accounting",
            check_cost_accounting(old_tree, new_tree, script, result.cost),
        )
        self.metrics.absorb_verify_report(report)
        self.metrics.incr("verify_checks")
        if not report.ok:
            self.metrics.incr("verify_failures")
        return report.ok

    def _lookup(
        self, result: JobResult, old_tree: Tree, new_tree: Tree
    ) -> Optional[CacheKey]:
        """Answer *result* from the digests or the cache if it can be.

        Returns ``None`` when it is answered, else the cache key that
        :meth:`_compute_into` stores the computed script under.
        """
        old_index = cached_digests(old_tree)
        new_index = cached_digests(new_tree)
        result.old_digest = old_index.root_hex
        result.new_digest = new_index.root_hex

        # 1. Merkle short-circuit: identical snapshots need no matching.
        if old_index.root == new_index.root:
            self.metrics.incr("digest_short_circuits")
            result.source = "digest"
            result.script = EditScript()
            result.summary = result.script.summary()
            result.attempts = 0
            return None

        # 2. One cache lookup by content digests + config.
        key = (result.old_digest, result.new_digest, self._config_key)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                self.metrics.incr("cache_hits")
                script, wrapped, dummy_id = instantiate_script(payload, old_tree)
                result.source = "cache"
                result.script = script
                result.wrapped = wrapped
                result.dummy_id = dummy_id
                result.operations = len(script)
                result.cost = payload.get("cost", script.cost())
                result.summary = dict(payload.get("summary", script.summary()))
                return None
            self.metrics.incr("cache_misses")
        return key

    def _compute_into(
        self,
        result: JobResult,
        old_tree: Tree,
        new_tree: Tree,
        key: CacheKey,
        span: AnySpan,
    ) -> None:
        """Step 3 of a job: compute once, then populate the cache.

        A diff is deterministic (the same input would fail the same way
        again), so a failure is not retried.
        """
        result.attempts = 1
        payload, trace = self._compute(old_tree, new_tree, span)

        result.stage_ms = trace.stage_ms()
        for stage, milliseconds in result.stage_ms.items():
            self.metrics.observe_stage(stage, milliseconds)
        for counter in SECTION8_COUNTERS:
            self.metrics.incr(counter, trace.counters[counter])
        script, wrapped, dummy_id = instantiate_script(payload, old_tree)
        result.source = "computed"
        result.script = script
        result.wrapped = wrapped
        result.dummy_id = dummy_id
        result.operations = len(script)
        result.cost = payload["cost"]
        result.summary = dict(payload["summary"])
        if self.cache is not None:
            self.cache.put(key, payload)

    def _compute(
        self, old_tree: Tree, new_tree: Tree, span: AnySpan
    ) -> Tuple[Dict[str, Any], Trace]:
        """Produce ``(canonical payload, pipeline trace)`` for one pair.

        The trace travels beside the payload, never inside it: the payload
        is what gets cached, and a cache entry must not embed one
        particular run's latencies. The pipeline's scripts name only T1
        ids, the dummy root and fresh insert ids, so canonicalization
        cannot fail on them; if it ever does, the job fails uncached.
        """
        diffed = self._pipeline.run(old_tree, new_tree, parent=span)
        payload = canonicalize_script(
            diffed.script,
            old_tree,
            diffed.edit.wrapped,
            diffed.edit.dummy_t1_id,
        )
        return payload, diffed.trace


class DiffJob:
    """One engine job, split where the engine knows whether it has to match.

    :meth:`lookup` is the first leg: it loads and digests both trees and
    answers the job from the Merkle short-circuit or one cache get. It is
    linear in the input, so a caller may run it where matching must not
    run (the HTTP server runs it on its event loop). Calling the job runs
    the rest, and the whole job when :meth:`lookup` never ran: matching
    on a miss, the spot check on a sampled job. ``wall_ms`` adds up the
    two legs and leaves out any wait between them; the ``engine`` span
    opens in the first leg and closes when the job is answered.
    """

    def __init__(
        self,
        engine: DiffEngine,
        old: TreeSource,
        new: TreeSource,
        job_id: str = "diff",
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> None:
        self.engine = engine
        self.result = JobResult(job_id=job_id)
        #: True once the job is closed (metrics counted, span closed).
        self.done = False
        self._sources = (old, new)
        self._trace = trace
        self._span: Optional[AnySpan] = None  #: set when the first leg starts
        self._trees: Tuple[Tree, ...] = ()
        self._miss: Optional[CacheKey] = None  #: a cache miss's key: compute left
        self._verify = False
        self._elapsed = 0.0
        #: Makes closing the job, by its own thread or by expire(), happen once.
        self._lock = threading.Lock()

    def lookup(self) -> bool:
        """Run the first leg; True when it answered the job."""
        engine, result = self.engine, self.result
        start = engine.clock.monotonic()
        with self._lock:
            if self.done:  # expired before its thread got here
                return True
            self._start()
        try:
            old, new = self._sources
            old_tree = old() if callable(old) else old
            new_tree = new() if callable(new) else new
            if not isinstance(old_tree, Tree) or not isinstance(new_tree, Tree):
                raise TypeError("job inputs must be Tree objects or loaders returning them")
            self._trees = (old_tree, new_tree)
            self._miss = engine._lookup(result, old_tree, new_tree)
            if self._miss is None:
                self._verify = engine._should_verify()
        except Exception as exc:
            _fail(result, exc)
        self._elapsed = engine.clock.monotonic() - start
        if result.status != "ok" or (self._miss is None and not self._verify):
            self._finish()
        return self.done

    def small(self) -> bool:
        """Whether the pair :meth:`lookup` loaded is within both inline
        bounds, :data:`INLINE_MAX_NODES` and :data:`INLINE_MAX_WORDS`."""
        if sum(map(len, self._trees)) > INLINE_MAX_NODES:
            return False
        words = 0
        for tree in self._trees:
            arena = tree.to_arena()
            pool = arena.value_pool
            for index in arena.values:
                value = pool[index]
                if type(value) is str:
                    words += len(value.split())
        return words <= INLINE_MAX_WORDS

    def __call__(self) -> JobResult:
        """Run what is left of the job and return its result."""
        if self._span is None:
            self.lookup()
        if self.done:
            return self.result
        engine, result, span = self.engine, self.result, self._span
        assert span is not None
        start = engine.clock.monotonic()
        old_tree, new_tree = self._trees
        try:
            if self._miss is not None:
                engine._compute_into(result, old_tree, new_tree, self._miss, span)
                self._verify = engine._should_verify()
            if self._verify:
                result.verified = engine._spot_check(result, old_tree, new_tree)
        except Exception as exc:
            _fail(result, exc)
        self._elapsed += engine.clock.monotonic() - start
        self._finish()
        return self.result

    def abandon(self) -> None:
        """Close, as timed out, a job whose compute will never run."""
        self.result.status = "timeout"
        self.result.error = "abandoned before its compute started"
        self.expire()

    def expire(self) -> bool:
        """Close the job as timed out now; False when it had closed already.

        Its thread may still be running it: that thread then skips any
        compute not yet started and counts nothing more. The caller reports
        the timeout, since the thread may still write to :attr:`result`.
        """
        with self._lock:
            if self.done:
                return False
            if self._span is None:  # its lookup has not started
                self._start()
            self._close("timeout")
            return True

    def _start(self) -> None:
        """Count the job as submitted and open its ``engine`` span."""
        engine = self.engine
        engine.metrics.incr("jobs_submitted")
        self._span = engine.tracer.span(
            "engine",
            kind="engine",
            ctx=self._trace or engine.default_trace,
            meta={"job": self.result.job_id},
        )
        self.result.trace_id = self._span.trace_id

    def _finish(self) -> None:
        with self._lock:
            if not self.done:  # else expire() closed it already
                self._close(self.result.status)

    def _close(self, status: str) -> None:
        """Count the job's outcome and close its span; under ``_lock``."""
        engine, result, span = self.engine, self.result, self._span
        assert span is not None
        result.wall_ms = self._elapsed * 1000.0
        if status == "ok":
            engine.metrics.incr("jobs_succeeded")
            engine.metrics.incr("ops_emitted", result.operations)
        elif status == "timeout":
            engine.metrics.incr("jobs_timed_out")
        else:
            engine.metrics.incr("jobs_failed")
        if status != "timeout":
            engine.metrics.observe_wall(result.wall_ms)
        span.annotate(source=result.source, job_status=status)
        span.close("ok" if status == "ok" else "error")
        self.done = True


def _fail(result: JobResult, exc: Exception) -> None:
    result.status = "error"
    result.source = None
    result.script = None
    result.error = f"{type(exc).__name__}: {exc}"
