"""Command-line interface: structured diffing from the shell.

Subcommands
-----------
``ladiff``   Diff two document files (LaTeX/HTML/text) and emit marked-up
             output — the LaDiff program of paper §7 as a CLI.
``script``   Diff two tree files (s-expression or JSON dict format) and
             print the edit script in paper notation (or JSON).
``stats``    Diff two document files and report the §8 measurements:
             d, e, e/d, comparison counts, and the analytical bound.
``batch``    Diff a manifest of old/new tree-file pairs through the
             concurrent :class:`repro.service.DiffEngine` and print a
             service-metrics summary.
``verify``   Run the conformance-oracle battery: either on one pair of
             tree files, or as a seeded sweep over generated workloads.
``fuzz``     Seeded differential fuzzing with shrinking: on a violation,
             minimize the failing pair, write a JSON repro file, exit 1.
``serve``    Run the asyncio HTTP diff service (:mod:`repro.serve`):
             admission control, backpressure, graceful SIGTERM drain.
             ``--workers N`` (N >= 2) runs the sharded multi-process
             cluster with cache-affinity routing, failover, and SIGHUP
             rolling restarts (:mod:`repro.serve.cluster`).

Examples::

    repro-diff ladiff old.tex new.tex -o marked_up.tex
    repro-diff script old.sexpr new.sexpr --json
    repro-diff stats old.tex new.tex
    repro-diff batch pairs.manifest --workers 8 --save-cache warm.json
    repro-diff verify --seed 42 --iterations 500
    repro-diff verify old.json new.json
    repro-diff fuzz --seed 1 --iterations 1000 --repro-dir repros/
    repro-diff serve --port 8765 --threads 4 --queue-depth 16
    repro-diff serve --port 8765 --workers 4     # 4-process sharded cluster

All ``--json`` output is serialized with sorted keys, so byte-identical
inputs produce byte-identical output across runs and Python versions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional

from . import __version__
from .analysis import fastmatch_bound, result_distances, tree_pair_sizes
from .core.errors import ConfigError
from .core.serialization import tree_from_dict, tree_from_sexpr
from .core.tree import Tree
from .ladiff.pipeline import default_match_config, ladiff, parse_document
from .matching.criteria import MatchConfig
from .pipeline import DiffConfig, DiffPipeline
from .service.engine import DiffEngine
from .verify.fuzz import (
    INJECTED_BUGS,
    FuzzConfig,
    check_pair,
    default_runner,
    run_fuzz,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diff",
        description="Change detection in hierarchically structured information "
        "(Chawathe et al., SIGMOD 1996).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    p_ladiff = sub.add_parser("ladiff", help="diff two documents, emit mark-up")
    p_ladiff.add_argument("old", help="old document file")
    p_ladiff.add_argument("new", help="new document file")
    p_ladiff.add_argument(
        "--format", choices=("latex", "html", "text"), default="latex",
        help="input format (default: latex)",
    )
    p_ladiff.add_argument(
        "--output-format", choices=("latex", "html", "text"), default=None,
        help="output mark-up (default: same as input format)",
    )
    _add_thresholds(p_ladiff)
    p_ladiff.add_argument(
        "-o", "--out", default=None, help="write output here instead of stdout"
    )
    p_ladiff.add_argument(
        "--summary", action="store_true", help="also print a change summary"
    )

    p_script = sub.add_parser("script", help="diff two tree files, emit edit script")
    p_script.add_argument("old", help="old tree file (.sexpr or .json)")
    p_script.add_argument("new", help="new tree file (.sexpr or .json)")
    p_script.add_argument(
        "--json", action="store_true", help="emit the script as JSON"
    )
    p_script.add_argument(
        "--algorithm", choices=("fast", "simple"), default="fast",
        help="matching algorithm (default: fast)",
    )
    p_script.add_argument(
        "--trace", action="store_true",
        help="print per-stage pipeline timings and counters to stderr",
    )
    p_script.add_argument(
        "--trace-fraction", type=float, default=0.0,
        help="sample this fraction of runs into a span tree; sampled --json "
             "output gains a trace_id field (default 0)",
    )
    p_script.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="append recorded spans to PATH as sorted-keys JSONL",
    )
    _add_thresholds(p_script)

    p_stats = sub.add_parser("stats", help="diff two documents, report measurements")
    p_stats.add_argument("old")
    p_stats.add_argument("new")
    p_stats.add_argument(
        "--format", default="latex",
        help="input format: latex, html, text or xml (default: latex)",
    )

    p_batch = sub.add_parser(
        "batch", help="diff a manifest of tree-file pairs through the DiffEngine"
    )
    p_batch.add_argument(
        "manifest",
        help="file with one 'OLD NEW' pair of tree files (.sexpr/.json) per "
        "line; '#' starts a comment; paths are relative to the manifest",
    )
    p_batch.add_argument(
        "--workers", type=int, default=4, help="concurrent jobs (default 4)"
    )
    p_batch.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache capacity; 0 disables caching (default 256)",
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None,
        help="seconds to wait for the whole batch; jobs not done by then time out",
    )
    p_batch.add_argument(
        "--warm-cache", default=None, metavar="PATH",
        help="load a cache spill file before diffing",
    )
    p_batch.add_argument(
        "--save-cache", default=None, metavar="PATH",
        help="spill the cache to PATH after diffing (for warm restarts)",
    )
    p_batch.add_argument(
        "--json", action="store_true",
        help="emit job results and metrics as JSON instead of text",
    )
    p_batch.add_argument(
        "--trace-fraction", type=float, default=0.0,
        help="sample this fraction of batch runs into one span tree rooted "
             "at cli.batch; sampled jobs carry trace_id in --json (default 0)",
    )
    p_batch.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="append recorded spans to PATH as sorted-keys JSONL",
    )
    _add_thresholds(p_batch)

    p_verify = sub.add_parser(
        "verify",
        help="run the conformance-oracle battery (one pair, or a seeded sweep)",
    )
    p_verify.add_argument(
        "old", nargs="?", default=None, help="old tree file (.sexpr or .json)"
    )
    p_verify.add_argument(
        "new", nargs="?", default=None, help="new tree file (.sexpr or .json)"
    )
    _add_fuzz_options(p_verify, iterations=100)
    p_verify.add_argument(
        "--json", action="store_true", help="emit the verify report as JSON"
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing with shrinking and JSON repro files",
    )
    _add_fuzz_options(p_fuzz, iterations=200)
    p_fuzz.add_argument(
        "--repro-dir", default=".", metavar="DIR",
        help="directory for shrunk JSON repro files (default: current dir)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="emit the original failing pair without minimizing it",
    )
    p_fuzz.add_argument(
        "--max-failures", type=int, default=1,
        help="stop after this many distinct failing pairs (default 1)",
    )
    p_fuzz.add_argument(
        "--inject-bug", choices=sorted(INJECTED_BUGS), default=None,
        help="fuzz a deliberately broken pipeline (harness self-test)",
    )
    p_fuzz.add_argument(
        "--json", action="store_true", help="emit the fuzz report as JSON"
    )

    p_serve = sub.add_parser(
        "serve", help="run the HTTP diff service (repro.serve) until SIGTERM"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 binds an ephemeral port (default 8765)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker PROCESSES; >= 2 runs the sharded cluster with "
             "cache-affinity routing, 0/1 the single-process server (default 1)",
    )
    p_serve.add_argument(
        "--threads", type=int, default=4,
        help="engine worker threads per process (default 4)",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=64,
        help="virtual nodes per worker on the cluster hash ring (default 64)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache capacity; 0 disables caching (default 256)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="max in-flight compute requests before 429 (default 16)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=0.0,
        help="per-client requests/second; 0 disables rate limiting (default 0)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=10.0,
        help="per-client token-bucket burst capacity (default 10)",
    )
    p_serve.add_argument(
        "--max-body-kb", type=int, default=1024,
        help="request-body cap in KiB before 413 (default 1024)",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=30_000.0,
        help="default per-request deadline before 504 (default 30000)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to flush in-flight work on SIGTERM (default 30)",
    )
    p_serve.add_argument(
        "--verify-fraction", type=float, default=0.0,
        help="fraction of served diffs to spot-check with the oracles (default 0)",
    )
    p_serve.add_argument(
        "--trace-fraction", type=float, default=0.0,
        help="sample this fraction of headerless requests into span trees; "
             "requests carrying X-Trace-Id are always traced (default 0)",
    )
    p_serve.add_argument(
        "--trace-buffer", type=int, default=2048,
        help="ring-buffer capacity for closed spans (default 2048)",
    )
    p_serve.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="write buffered spans to PATH as sorted-keys JSONL on drain",
    )
    p_serve.add_argument(
        "--algorithm", choices=("fast", "simple"), default="fast",
        help="matching algorithm (default: fast)",
    )
    _add_thresholds(p_serve)

    p_simtest = sub.add_parser(
        "simtest",
        help="deterministic fault-injection scenarios for the serve stack",
    )
    p_simtest.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed; the same seed produces a byte-identical "
             "event log (default 0)",
    )
    p_simtest.add_argument(
        "--scenario", default="all", metavar="NAME",
        help="one scenario name, or 'all' for the full matrix (default: all); "
             "see --list",
    )
    p_simtest.add_argument(
        "--list", action="store_true", help="print scenario names and exit"
    )
    p_simtest.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="write the combined JSONL event log here (byte-identical per seed)",
    )
    p_simtest.add_argument(
        "--shrink", action="store_true",
        help="on failure, greedily minimize the fault plan to a minimal repro",
    )
    p_simtest.add_argument(
        "--json", action="store_true", help="emit the run summary as JSON"
    )
    p_simtest.add_argument(
        "--trace-fraction", type=float, default=1.0,
        help="fraction of simulated requests traced into span trees "
             "(default 1.0; spans land in the event log)",
    )

    p_trace = sub.add_parser(
        "trace", help="pretty-print a recorded span tree (file or live server)"
    )
    p_trace.add_argument(
        "trace_id", nargs="?", default=None,
        help="16-hex trace id; omit with --file to render every trace",
    )
    p_trace.add_argument(
        "--file", default=None, metavar="PATH",
        help="read spans from a --trace-export JSONL file",
    )
    p_trace.add_argument(
        "--url", default=None, metavar="URL",
        help="fetch GET /v1/trace/<id> from a running server "
             "(e.g. http://127.0.0.1:8765)",
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="emit the merged spans as sorted-keys JSON instead of the tree",
    )
    return parser


def _add_thresholds(parser: argparse.ArgumentParser) -> None:
    """The matching thresholds -t and -f, defaulting as :class:`MatchConfig` does."""
    defaults = MatchConfig()
    parser.add_argument(
        "-t", type=float, default=defaults.t,
        help=f"match threshold t (default {defaults.t})",
    )
    parser.add_argument(
        "-f", type=float, default=defaults.f,
        help=f"leaf threshold f (default {defaults.f})",
    )


def _add_fuzz_options(parser: argparse.ArgumentParser, iterations: int) -> None:
    """Options shared by the ``verify`` sweep and the ``fuzz`` loop."""
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--iterations", type=int, default=iterations,
        help=f"generated pairs to check (default {iterations})",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=60,
        help="node ceiling per generated tree (default 60)",
    )
    parser.add_argument(
        "--max-zs-nodes", type=int, default=20,
        help="Zhang-Shasha reference ceiling per tree (default 20)",
    )
    parser.add_argument(
        "--algorithm", choices=("fast", "simple", "both"), default="both",
        help="matching algorithm(s) under test (default: both)",
    )
    parser.add_argument(
        "--no-differential", action="store_true",
        help="skip the Match-vs-FastMatch-vs-baseline crosschecks",
    )
    _add_thresholds(parser)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "ladiff":
            return _cmd_ladiff(args)
        if args.command == "script":
            return _cmd_script(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "simtest":
            return _cmd_simtest(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except ConfigError as exc:
        # One typed error covers every invalid-configuration path (bad
        # thresholds, unknown algorithm/format) across all subcommands.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cmd_ladiff(args) -> int:
    config = default_match_config(t=args.t, f=args.f)
    result = ladiff(
        _read(args.old),
        _read(args.new),
        format=args.format,
        config=config,
        output=args.output_format or args.format,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.output)
        print(f"wrote {args.out}")
    else:
        print(result.output)
    if args.summary:
        print(f"summary: {result.summary()}", file=sys.stderr)
    return 0


def _load_tree(path: str) -> Tree:
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return tree_from_dict(json.loads(text))
    return tree_from_sexpr(text)


def _cli_root_span(fraction: float, name: str, **meta: Any):
    """A ``(tracer, root span)`` pair for a CLI run (sampled at *fraction*)."""
    from .obs.trace import Tracer

    tracer = Tracer(fraction=fraction)
    return tracer, tracer.root_span(name, kind="client", meta=meta)


def _export_spans(tracer, path: Optional[str]) -> None:
    spans = tracer.export_jsonl()
    if path is None or not spans:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(spans)


def _cmd_script(args) -> int:
    pipeline = DiffPipeline(
        DiffConfig(
            algorithm=args.algorithm,
            match=default_match_config(t=args.t, f=args.f),
        )
    )
    old = _load_tree(args.old)
    new = _load_tree(args.new)
    tracer, root = _cli_root_span(
        args.trace_fraction, "cli.script",
        old=os.path.basename(args.old), new=os.path.basename(args.new),
    )
    trace_id = root.trace_id
    with root:
        result = pipeline.run(old, new, parent=root)
    if not result.verify(old, new):  # pragma: no cover - guard
        print("internal error: script failed verification", file=sys.stderr)
        return 1
    _export_spans(tracer, args.trace_export)
    if args.json:
        if trace_id is not None:
            payload = {"script": result.script.to_dicts(), "trace_id": trace_id}
        else:
            payload = result.script.to_dicts()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for op in result.script:
            print(op)
        print(f"# cost = {result.cost():.2f}", file=sys.stderr)
        if trace_id is not None:
            print(f"# trace = {trace_id}", file=sys.stderr)
    if args.trace:
        print(result.trace.render(), file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    # The §8 measurements instrument FastMatch itself, so the repair pass
    # stays off — same counters the paper reports, now read off the trace.
    pipeline = DiffPipeline(
        DiffConfig(match=default_match_config(), postprocess=False)
    )
    old = parse_document(_read(args.old), args.format)
    new = parse_document(_read(args.new), args.format)
    diffed = pipeline.run(old, new)
    stats = diffed.match_stats
    distances = result_distances(old, diffed.edit)
    sizes = tree_pair_sizes(old, new)
    bound = fastmatch_bound(sizes, distances.weighted)
    measured = stats.leaf_compares + stats.partner_checks
    print(f"nodes (old/new):      {len(old)} / {len(new)}")
    print(f"leaves total (n):     {sizes.leaves}")
    print(f"unweighted dist (d):  {distances.unweighted}")
    print(f"weighted dist (e):    {distances.weighted:.1f}")
    print(f"e/d:                  {distances.ratio:.2f}")
    print(f"leaf compares (r1):   {stats.leaf_compares}")
    print(f"partner checks (r2):  {stats.partner_checks}")
    print(f"measured total:       {measured}")
    print(f"analytical bound:     {bound:.0f}")
    if measured:
        print(f"bound/measured:       {bound / measured:.1f}x")
    return 0


def _parse_manifest(path: str) -> List[tuple]:
    """Read ``OLD NEW`` pairs; returns ``(old_path, new_path, job_id)`` rows."""
    base = os.path.dirname(os.path.abspath(path))
    rows: List[tuple] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'OLD NEW', got {line!r}"
                )
            old_path, new_path = (
                part if os.path.isabs(part) else os.path.join(base, part)
                for part in parts
            )
            job_id = f"{lineno}:{os.path.basename(parts[0])}->{os.path.basename(parts[1])}"
            rows.append((old_path, new_path, job_id))
    return rows


def _tree_loader(path: str):
    """A zero-arg loader; deferring the parse keeps failures inside the job."""
    return lambda: _load_tree(path)


def _cmd_batch(args) -> int:
    try:
        rows = _parse_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = default_match_config(t=args.t, f=args.f)
    try:
        engine = DiffEngine(
            workers=args.workers,
            config=config,
            cache=args.cache_size,
            timeout=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One trace for the whole batch: every engine job span hangs off a
    # single cli.batch root, so the export renders as one tree.
    tracer, root = _cli_root_span(
        args.trace_fraction, "cli.batch",
        manifest=os.path.basename(args.manifest), jobs=len(rows),
    )
    engine.tracer = tracer
    engine.default_trace = root.context
    try:
        if args.warm_cache and engine.cache is not None:
            engine.cache.warm(args.warm_cache)
        results = engine.map_pairs(
            (_tree_loader(old), _tree_loader(new), job_id)
            for old, new, job_id in rows
        )
        if args.save_cache and engine.cache is not None:
            engine.cache.save(args.save_cache)
    finally:
        engine.close()
        root.close()
        _export_spans(tracer, args.trace_export)

    failed = sum(1 for r in results if not r.ok)
    if args.json:
        print(json.dumps(
            {
                "jobs": [
                    {
                        "job_id": r.job_id,
                        "status": r.status,
                        "source": r.source,
                        "operations": r.operations,
                        "cost": r.cost,
                        "wall_ms": round(r.wall_ms, 3),
                        "stage_ms": {
                            stage: round(ms, 3) for stage, ms in r.stage_ms.items()
                        },
                        "trace_id": r.trace_id,
                        "error": r.error,
                    }
                    for r in results
                ],
                "metrics": engine.metrics.snapshot(),
                "cache": engine.cache.stats() if engine.cache is not None else None,
            },
            indent=2,
            sort_keys=True,
        ))
        return 1 if failed else 0

    for r in results:
        line = (
            f"{r.job_id:<32} {r.status:<8} "
            f"{(r.source or '-'):<9} ops={r.operations:<4} "
            f"cost={r.cost:<8.1f} {r.wall_ms:8.1f}ms"
        )
        if r.error:
            line += f"  {r.error}"
        print(line)
    cache_stats = engine.cache.stats() if engine.cache is not None else None
    print(engine.metrics.render(cache_stats))
    if failed:
        print(f"{failed} of {len(results)} jobs failed", file=sys.stderr)
    return 1 if failed else 0


def _serve_config(args):
    """``serve``'s flags as a ServeConfig; cluster workers read back
    :func:`repro.serve.cluster.worker_argv` through it."""
    from .serve.app import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.threads,
        cache_size=args.cache_size,
        algorithm=args.algorithm,
        match=default_match_config(t=args.t, f=args.f),
        verify_fraction=args.verify_fraction,
        queue_capacity=args.queue_depth,
        rate=args.rate,
        burst=args.burst,
        max_body_bytes=args.max_body_kb * 1024,
        deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
        trace_fraction=args.trace_fraction,
        trace_buffer=args.trace_buffer,
        trace_export=args.trace_export,
    )


def _cmd_serve(args) -> int:
    from .serve.app import DiffServer
    from .serve.cluster import ClusterConfig, ClusterServer
    from .serve.lifecycle import run_server

    def announce(url: str) -> None:
        print(f"repro-diff serve: listening on {url}", flush=True)

    try:
        if args.workers < 0:
            raise ValueError(f"workers must be >= 0, got {args.workers}")
        serve_config = _serve_config(args)
        if args.workers >= 2:
            front = ClusterServer(
                ClusterConfig(
                    host=args.host,
                    port=args.port,
                    workers=args.workers,
                    replicas=args.replicas,
                    drain_timeout=args.drain_timeout,
                    serve=serve_config,
                )
            )
        else:
            front = DiffServer(serve_config)
        return run_server(front, announce=announce)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _fuzz_config(args, **overrides) -> FuzzConfig:
    algorithms = (
        ("fast", "simple") if args.algorithm == "both" else (args.algorithm,)
    )
    options = dict(
        seed=args.seed,
        iterations=args.iterations,
        max_nodes=args.max_nodes,
        max_zs_nodes=args.max_zs_nodes,
        algorithms=algorithms,
        match=default_match_config(t=args.t, f=args.f),
        differential=not args.no_differential,
    )
    options.update(overrides)
    return FuzzConfig(**options)


def _cmd_verify(args) -> int:
    if (args.old is None) != (args.new is None):
        print("error: verify needs both OLD and NEW (or neither)", file=sys.stderr)
        return 2
    config = _fuzz_config(args, shrink=False)
    if args.old is not None:
        # Single-pair mode: the full battery on two tree files.
        report = check_pair(
            _load_tree(args.old), _load_tree(args.new), config, default_runner
        )
    else:
        fuzzed = run_fuzz(config)
        report = fuzzed.report
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    config = _fuzz_config(
        args,
        shrink=not args.no_shrink,
        repro_dir=args.repro_dir,
        max_failures=max(1, args.max_failures),
    )
    runner = INJECTED_BUGS[args.inject_bug] if args.inject_bug else None
    fuzzed = run_fuzz(config, runner=runner)
    if args.json:
        print(json.dumps(
            {
                "ok": fuzzed.ok,
                "iterations": fuzzed.iterations_run,
                "report": fuzzed.report.to_dict(),
                "failures": [
                    {
                        "iteration": f.iteration,
                        "workload": f.workload,
                        "violations": f.violations,
                        "original_nodes": f.original_nodes,
                        "shrunk_nodes": f.shrunk_nodes,
                        "repro": f.repro_path,
                    }
                    for f in fuzzed.failures
                ],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0 if fuzzed.ok else 1
    print(fuzzed.report.render())
    print(f"{fuzzed.iterations_run} iterations, {len(fuzzed.failures)} failing pair(s)")
    for failure in fuzzed.failures:
        print(
            f"FAIL iter {failure.iteration} ({failure.workload}): "
            f"shrunk {failure.original_nodes} -> {failure.shrunk_nodes} nodes",
            file=sys.stderr,
        )
        for violation in failure.violations[:5]:
            print(f"  {violation}", file=sys.stderr)
        if failure.repro_path:
            print(f"  repro: {failure.repro_path}", file=sys.stderr)
    return 0 if fuzzed.ok else 1


def _cmd_trace(args) -> int:
    from .obs.export import load_spans_jsonl, render_span_tree, spans_to_jsonl

    if (args.file is None) == (args.url is None):
        print("error: trace needs exactly one of --file or --url", file=sys.stderr)
        return 2
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                spans = load_spans_jsonl(handle.read())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace_id is not None:
            wanted = args.trace_id.lower()
            spans = [span for span in spans if span.get("trace") == wanted]
    else:
        if args.trace_id is None:
            print("error: --url needs a TRACE_ID to fetch", file=sys.stderr)
            return 2
        spans = _fetch_trace_spans(args.url, args.trace_id)
        if spans is None:
            return 1
    if not spans:
        print("no spans found", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    print(render_span_tree(spans), end="")
    # The JSONL line count doubles as a span count for scripting.
    count = spans_to_jsonl(spans).count("\n")
    print(f"# {count} span(s)", file=sys.stderr)
    return 0


def _fetch_trace_spans(url: str, trace_id: str):
    """GET /v1/trace/<id> from a worker or router front; None on failure."""
    import http.client
    from urllib.parse import urlsplit

    from .serve.client import DiffServiceClient

    parts = urlsplit(url if "//" in url else f"//{url}")
    client = DiffServiceClient(
        host=parts.hostname or "127.0.0.1", port=parts.port or 8765, timeout=10.0
    )
    try:
        with client:
            status, payload, _ = client.request_once("GET", f"/v1/trace/{trace_id}")
    except (OSError, http.client.HTTPException) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if status != 200:
        print(f"error: HTTP {status}: {payload.get('message', payload)}", file=sys.stderr)
        return None
    return payload.get("spans", [])


def _cmd_simtest(args) -> int:
    # Imported here: the scenario layer pulls in the whole serve stack,
    # which the document-diffing subcommands should not pay for.
    from .simtest.scenario import run_scenario, shrink_plan
    from .simtest.scenarios import SCENARIOS, build_scenario

    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.scenario == "all":
        names = sorted(SCENARIOS)
    elif args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        raise ConfigError(
            f"unknown scenario {args.scenario!r}; choose from "
            f"{sorted(SCENARIOS)} or 'all'"
        )

    results = {}
    shrunk_plans = {}
    chunks = []
    for name in names:
        spec = build_scenario(
            name, seed=args.seed, trace_fraction=args.trace_fraction
        )
        result = run_scenario(spec)
        if not result.ok and args.shrink and spec.plan is not None:
            small, result = shrink_plan(spec)
            shrunk_plans[name] = small.plan.describe() if small.plan else []
        results[name] = result
        chunks.append(result.event_jsonl())
    if args.event_log:
        with open(args.event_log, "w", encoding="utf-8") as handle:
            handle.write("".join(chunks))
    failures = [name for name, result in results.items() if not result.ok]

    if args.json:
        print(json.dumps(
            {
                "seed": args.seed,
                "ok": not failures,
                "scenarios": {n: r.summary() for n, r in results.items()},
                "shrunk_plans": shrunk_plans,
            },
            indent=2,
            sort_keys=True,
        ))
        return 1 if failures else 0
    for name, result in results.items():
        status = "PASS" if result.ok else "FAIL"
        print(
            f"{status} {name} (seed {args.seed}): "
            f"{len(result.records)} request(s), {len(result.log)} event(s), "
            f"{result.stats['faults_fired']} fault(s), "
            f"virtual {result.stats['virtual_elapsed_s']:.3f}s"
        )
        for violation in result.violations:
            print(f"  violation: {violation}", file=sys.stderr)
        if name in shrunk_plans:
            print(f"  minimal fault plan: {shrunk_plans[name]}", file=sys.stderr)
    print(
        f"{len(results) - len(failures)}/{len(results)} scenario(s) passed"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
