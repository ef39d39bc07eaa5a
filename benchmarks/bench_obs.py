"""Tracing overhead: the observability layer must be close to free.

Three configurations of the same synchronous diff workload. Each pair runs
under all three back to back, in an order that rotates from pair to pair,
so machine drift and the cost of running right after another mode's job
hit all of them equally:

* **baseline** — no :class:`~repro.obs.Tracer` passed (the engine's own
  idle one): every span is a :class:`~repro.obs.NullSpan`;
* **off** — a tracer attached with ``fraction=0.0`` and no inbound trace
  context: the per-request cost is one sampling decision;
* **sampled** — every job traced (``fraction=1.0``): an ``engine`` span,
  four measured ``stage``-kind children the pipeline opens under it, and
  ring-buffer appends per job.

The gate is on p50 ratios, not absolute times. Each ratio is taken per
pair and round, against the baseline job that ran beside it, and the gate
reads the median of those ratios: the pairs differ in size, so a p50 of
the raw times lands between two pairs' clusters and swings with noise.

* ``off_ratio``      = p50 of off / baseline      must stay ≤ 1.05;
* ``sampled_ratio``  = p50 of sampled / baseline  must stay ≤ 1.15.

Run directly for the full measurement, ``--smoke`` for the CI
configuration, ``--json-out PATH`` to write the ``BENCH`` payload that
``check_regression.py`` gates against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.obs.trace import Tracer
from repro.service.engine import DiffEngine
from repro.workload import MutationEngine, random_tree

from conftest import print_table

MAX_OFF_RATIO = 1.05      # tracing installed but idle: ≤ 5% over baseline
MAX_SAMPLED_RATIO = 1.15  # 100% sampling: ≤ 15% over baseline
MODES = ("baseline", "off", "sampled")


def snapshot_pairs(count: int, seed: int = 2024):
    pairs = []
    for i in range(count):
        old = random_tree(seed + i)
        new = MutationEngine(seed + 500 + i).mutate(old, 6).tree
        pairs.append((old, new))
    return pairs


def make_engine(mode: str):
    """One single-worker engine per mode; caching off so every job computes."""
    if mode == "baseline":
        return DiffEngine(workers=1, cache=None)
    fraction = 0.0 if mode == "off" else 1.0
    return DiffEngine(
        workers=1, cache=None, tracer=Tracer(fraction=fraction, capacity=65536)
    )


def one_job(engine, mode: str, index: int, old, new) -> float:
    """Diff one pair under *mode*; return the job's wall time in seconds."""
    trace = None
    if mode == "sampled":
        trace = (engine.tracer.maybe_trace(), None)
    started = time.perf_counter()
    result = engine.diff(old, new, job_id=f"job-{index}", trace=trace)
    elapsed = time.perf_counter() - started
    assert result.status == "ok", result.error
    return elapsed


def measure(pairs, repeats: int) -> dict:
    engines = {mode: make_engine(mode) for mode in MODES}
    samples = {mode: [] for mode in MODES}
    try:
        for mode, engine in engines.items():  # warmup: JIT-less, but warms allocators
            for index, (old, new) in enumerate(pairs[:2]):
                one_job(engine, mode, index, old, new)
        schedule = [(index, old, new) for _ in range(repeats)
                    for index, (old, new) in enumerate(pairs)]
        for step, (index, old, new) in enumerate(schedule):
            for shift in range(len(MODES)):
                mode = MODES[(step + shift) % len(MODES)]
                samples[mode].append(one_job(engines[mode], mode, index, old, new))
    finally:
        for engine in engines.values():
            engine.close()

    p50 = {mode: statistics.median(ts) for mode, ts in samples.items()}
    ratio = {
        mode: statistics.median(t / b for t, b in zip(samples[mode], samples["baseline"]))
        for mode in ("off", "sampled")
    }
    stats = engines["sampled"].tracer.stats()
    jobs = repeats * len(pairs)
    # Every sampled job must have recorded its engine span and the 4 stage
    # spans opened under it.
    spans_ok = stats["spans_recorded"] >= jobs * 5 and stats["spans_open"] == 0
    return {
        "benchmark": "bench_obs",
        "jobs_per_mode": jobs,
        "baseline_p50_ms": round(p50["baseline"] * 1000.0, 4),
        "off_p50_ms": round(p50["off"] * 1000.0, 4),
        "sampled_p50_ms": round(p50["sampled"] * 1000.0, 4),
        "off_ratio": round(ratio["off"], 4),
        "sampled_ratio": round(ratio["sampled"], 4),
        "spans_recorded": stats["spans_recorded"],
        "spans_ok": spans_ok,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the BENCH payload to a file")
    args = parser.parse_args()

    pairs = snapshot_pairs(8 if args.smoke else 24)
    payload = measure(pairs, repeats=3 if args.smoke else 8)

    print_table(
        "tracing overhead (per-job p50 over identical workloads)",
        ["mode", "p50 ms", "ratio vs baseline"],
        [
            ["baseline", payload["baseline_p50_ms"], "1.0000"],
            ["off", payload["off_p50_ms"], f"{payload['off_ratio']:.4f}"],
            ["sampled", payload["sampled_p50_ms"],
             f"{payload['sampled_ratio']:.4f}"],
        ],
    )

    print("BENCH " + json.dumps(payload, sort_keys=True))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")

    assert payload["spans_ok"], (
        f"sampled pass lost spans: {payload['spans_recorded']} recorded "
        f"for {payload['jobs_per_mode']} jobs"
    )
    assert payload["off_ratio"] <= MAX_OFF_RATIO, (
        f"idle tracer costs {payload['off_ratio']:.3f}x "
        f"(gate {MAX_OFF_RATIO}x)"
    )
    assert payload["sampled_ratio"] <= MAX_SAMPLED_RATIO, (
        f"full sampling costs {payload['sampled_ratio']:.3f}x "
        f"(gate {MAX_SAMPLED_RATIO}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
