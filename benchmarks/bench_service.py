"""Serving-layer economics: cache warmth and digest short-circuits.

The §1 warehouse ingests periodic snapshot dumps, most of them repeats or
near-repeats of content already seen. This bench measures what the
:mod:`repro.service` layer buys on that workload:

* **warm vs cold cache** — re-diffing a repeated-snapshot batch must be at
  least 1.5× faster once the digest-keyed cache is warm (it is typically
  orders of magnitude faster);
* **digest short-circuits** — identical snapshots complete without running
  any matching.

Multi-core scaling is measured through the cluster instead
(``benchmarks/bench_cluster.py``): one engine per worker process.

Run directly with ``python benchmarks/bench_service.py`` for the tables, or
``--smoke`` for the tiny correctness-only configuration CI uses.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.service import DiffEngine
from repro.workload import DocumentSpec, MutationEngine, generate_document

from conftest import print_table

SPEC = DocumentSpec(sections=4, paragraphs_per_section=4, sentences_per_paragraph=3)
REPEATED_BATCH = 32      # jobs per batch in the warm/cold measurement
DISTINCT_PAIRS = 8       # distinct contents behind the repeated batch


def repeated_snapshot_pairs(batch=REPEATED_BATCH, distinct=DISTINCT_PAIRS, seed=1234):
    """A batch where the same few (old, new) contents recur — the warehouse
    receiving overlapping dumps."""
    base = generate_document(seed, SPEC)
    pool = []
    for i in range(distinct):
        old = MutationEngine(seed + i).mutate(base, 4).tree if i else base
        new = MutationEngine(seed + 100 + i).mutate(old, 8).tree
        pool.append((old, new))
    return [pool[i % distinct] for i in range(batch)]


def run_batch(engine, pairs):
    started = time.perf_counter()
    results = engine.map_pairs(pairs)
    elapsed = time.perf_counter() - started
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return elapsed, results


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def measure_warm_vs_cold(batch=REPEATED_BATCH, distinct=DISTINCT_PAIRS):
    pairs = repeated_snapshot_pairs(batch=batch, distinct=distinct)
    engine = DiffEngine(workers=2)
    try:
        cold_s, _ = run_batch(engine, pairs)    # first sight of each content
        warm_s, results = run_batch(engine, pairs)  # everything cached
    finally:
        engine.close()
    assert all(r.source in ("cache", "digest") for r in results)
    return {
        "batch": batch,
        "distinct": distinct,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_throughput": batch / cold_s,
        "warm_throughput": batch / warm_s,
        "speedup": cold_s / warm_s,
        "metrics": engine.metrics.snapshot(),
    }


def measure_digest_short_circuit(batch=REPEATED_BATCH):
    base = generate_document(77, SPEC)
    identical = [(base, base.copy()) for _ in range(batch)]
    changed = [
        (base, MutationEngine(500 + i).mutate(base, 6).tree) for i in range(batch)
    ]
    engine = DiffEngine(workers=2, cache=None)
    try:
        short_s, results = run_batch(engine, identical)
        full_s, _ = run_batch(engine, changed)
    finally:
        engine.close()
    assert all(r.source == "digest" for r in results)
    return {"short_s": short_s, "full_s": full_s, "speedup": full_s / short_s}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
def report_warm_cold(stats):
    print_table(
        f"Service cache: {stats['batch']} jobs, {stats['distinct']} distinct contents",
        ["cache state", "seconds", "pairs/s"],
        [
            ("cold", f"{stats['cold_s']:.3f}", f"{stats['cold_throughput']:.0f}"),
            ("warm", f"{stats['warm_s']:.3f}", f"{stats['warm_throughput']:.0f}"),
            ("speedup", f"{stats['speedup']:.1f}x", ""),
        ],
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
def test_service_warm_cache_throughput(benchmark):
    stats = benchmark.pedantic(measure_warm_vs_cold, rounds=1, iterations=1)
    report_warm_cold(stats)
    benchmark.extra_info["warm_speedup"] = round(stats["speedup"], 1)
    counters = stats["metrics"]["counters"]
    assert counters["cache_hits"] > 0
    # a warm cache must beat recomputation by a wide margin
    assert stats["speedup"] >= 1.5


def test_service_digest_short_circuit(benchmark):
    stats = benchmark.pedantic(measure_digest_short_circuit, rounds=1, iterations=1)
    print_table(
        "Digest short-circuit vs full diff (identical vs mutated snapshots)",
        ["workload", "seconds"],
        [
            ("identical (digest)", f"{stats['short_s']:.3f}"),
            ("mutated (full diff)", f"{stats['full_s']:.3f}"),
            ("speedup", f"{stats['speedup']:.1f}x"),
        ],
    )
    assert stats["speedup"] > 1.0


# ---------------------------------------------------------------------------
# Direct / CI-smoke execution
# ---------------------------------------------------------------------------
def smoke() -> int:
    """Tiny configuration for CI: exercises every path, asserts correctness
    only (no perf thresholds), finishes in a few seconds."""
    warm = measure_warm_vs_cold(batch=6, distinct=3)
    report_warm_cold(warm)
    assert warm["metrics"]["counters"]["cache_hits"] >= 3
    print("service benchmark smoke: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny correctness-only configuration (used by CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    report_warm_cold(measure_warm_vs_cold())
    return 0


if __name__ == "__main__":
    sys.exit(main())
