"""HTTP service economics: overload behavior, drain, and cache warmth.

This bench drives a **real** ``repro-diff serve`` subprocess on an
ephemeral port through real sockets — it is both the load generator for
the acceptance criteria and the perf trajectory for the serving layer:

* **overload** — a burst of 4× the queue capacity, each request a
  distinct pair the server has to compute on its pool, must come back as
  a mix of 200s and 429s (never a hang, never a 500), with every accepted
  request completing within its deadline;
* **graceful drain** — SIGTERM must stop the listener, flush in-flight
  work, print the final ``METRICS`` line, and exit 0;
* **cache warmth** — repeating identical pairs against a warm digest-keyed
  cache must be ≥ :data:`MIN_WARM_SPEEDUP`× the cold-compute throughput.

Run directly for the full tables, ``--smoke`` for the CI configuration,
``--json-out PATH`` to also write the ``BENCH`` payload to a file (CI
uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.serve.client import DiffServiceClient
from repro.service.engine import INLINE_MAX_NODES
from repro.workload import MutationEngine, random_tree

from conftest import print_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_WARM_SPEEDUP = 1.5   # warm-cache throughput vs cold, repeated pairs
QUEUE_CAPACITY = 4       # small on purpose: overload must be reachable
BURST_FACTOR = 4         # the acceptance burst is 4x queue capacity
DEADLINE_MS = 20_000.0


# ---------------------------------------------------------------------------
# Server subprocess management
# ---------------------------------------------------------------------------
def _server_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_server(workers: int = 2, queue_capacity: int = QUEUE_CAPACITY):
    """Launch ``repro-diff serve`` on an ephemeral port; return (proc, port)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--threads", str(workers),
        "--queue-depth", str(queue_capacity),
        "--deadline-ms", str(DEADLINE_MS),
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_server_env(),
    )
    banner: list = []

    def read_banner():
        banner.append(proc.stdout.readline())

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(timeout=30)
    if not banner or "listening on" not in banner[0]:
        proc.kill()
        raise RuntimeError(f"server did not start: {banner or proc.stderr.read()}")
    port = int(banner[0].rsplit(":", 1)[1])
    client = DiffServiceClient(port=port, retries=0)
    assert client.wait_ready(timeout=10), "server bound but /healthz never answered"
    client.close()
    return proc, port


def sigterm_and_collect(proc) -> dict:
    """SIGTERM the server; assert clean drain; return the final METRICS."""
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("server did not drain within 15s of SIGTERM")
    assert proc.returncode == 0, (
        f"unclean drain: exit={proc.returncode} stderr={stderr[-500:]}"
    )
    metrics_lines = [line for line in stdout.splitlines() if line.startswith("METRICS ")]
    assert metrics_lines, f"no final METRICS dump in stdout: {stdout[-500:]}"
    return json.loads(metrics_lines[-1][len("METRICS "):])


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------
def snapshot_pairs(count: int, seed: int = 1996):
    """Distinct (old, new) snapshot pairs with realistic mutation deltas."""
    pairs = []
    for i in range(count):
        old = random_tree(seed + i)
        new = MutationEngine(seed + 1000 + i).mutate(old, 6).tree
        pairs.append((old, new))
    return pairs


def pool_pairs(count: int, seed: int):
    """*count* distinct snapshot pairs above ``INLINE_MAX_NODES`` nodes."""
    pairs = []
    while len(pairs) < count:
        [(old, new)] = snapshot_pairs(1, seed=seed)
        if len(old) + len(new) > INLINE_MAX_NODES:
            pairs.append((old, new))
        seed += 1
    return pairs


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def measure_overload(port: int, queue_capacity: int) -> dict:
    """Fire a 4x-capacity concurrent burst of raw (non-retrying) requests.

    Every request is a distinct pair above ``INLINE_MAX_NODES`` nodes, so
    each one is a cache miss that holds an admission slot while it
    computes on the pool. Repeats of one pair would be cache hits, and a
    smaller miss computes on the loop; the server answers both without
    queueing, so they cannot overload it.
    """
    burst = BURST_FACTOR * queue_capacity
    pairs = pool_pairs(burst, seed=777)
    with DiffServiceClient(port=port, retries=0) as probe:
        before = probe.metrics()["counters"]
    outcomes: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(burst)

    def fire(n: int) -> None:
        old, new = pairs[n]
        client = DiffServiceClient(port=port, retries=0, client_id=f"burst-{n}")
        barrier.wait()
        started = time.perf_counter()
        try:
            status, payload, _ = client.request_once(
                "POST",
                "/v1/diff",
                {
                    "old": client._wire_tree(old),
                    "new": client._wire_tree(new),
                    "include_script": False,
                },
            )
        except Exception as exc:  # a hang/reset would surface here
            status, payload = -1, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - started
        client.close()
        with lock:
            outcomes.append((status, elapsed, payload))

    threads = [threading.Thread(target=fire, args=(n,)) for n in range(burst)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "burst request hung"
    with DiffServiceClient(port=port, retries=0) as probe:
        after = probe.metrics()["counters"]

    statuses = sorted({status for status, _, _ in outcomes})
    accepted = [e for s, e, _ in outcomes if s == 200]
    rejected = [p for s, _, p in outcomes if s == 429]
    assert set(statuses) <= {200, 429}, f"unexpected statuses under burst: {statuses}"
    assert rejected, f"burst of {burst} never saw a 429 (capacity {queue_capacity})"
    assert accepted, "burst starved completely; expected some accepted requests"
    assert all(e < DEADLINE_MS / 1000.0 for e in accepted), (
        "an accepted request blew its deadline"
    )
    assert all("retry_after_s" in p for p in rejected), "429 without Retry-After"
    pooled = after["jobs_pooled"] - before["jobs_pooled"]
    inline = after["jobs_inline"] - before["jobs_inline"]
    assert (pooled, inline) == (len(accepted), 0), (
        f"burst did not go to the pool: {pooled} pooled, {inline} inline, "
        f"{len(accepted)} accepted"
    )
    return {
        "burst": burst,
        "queue_capacity": queue_capacity,
        "accepted": len(accepted),
        "rejected_429": len(rejected),
        "accepted_max_s": round(max(accepted), 3),
    }


def measure_warm_vs_cold(port: int, distinct: int) -> dict:
    """Cold pass computes *distinct* pairs; warm pass repeats them (cache)."""
    pairs = snapshot_pairs(distinct)
    client = DiffServiceClient(port=port, retries=2)
    wired = [
        (client._wire_tree(old), client._wire_tree(new)) for old, new in pairs
    ]

    def one_pass() -> float:
        started = time.perf_counter()
        for old, new in wired:
            out = client.request(
                "POST",
                "/v1/diff",
                {"old": old, "new": new, "include_script": False},
            )
            assert out["status"] == "ok"
        return time.perf_counter() - started

    cold_s = one_pass()   # every pair computed for the first time
    warm_s = one_pass()   # identical pairs: digest-keyed cache hits
    metrics = client.metrics()
    client.close()
    assert metrics["counters"]["cache_hits"] >= distinct, (
        f"warm pass did not hit the cache: {metrics['counters']}"
    )
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "distinct_pairs": distinct,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(speedup, 3),
        "p99_ms": metrics["wall_time"]["p99_ms"],
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def run(distinct: int, json_out: str = None) -> dict:
    proc, port = start_server(workers=2, queue_capacity=QUEUE_CAPACITY)
    try:
        warm = measure_warm_vs_cold(port, distinct=distinct)
        overload = measure_overload(port, QUEUE_CAPACITY)
    except BaseException:
        proc.kill()
        raise
    final = sigterm_and_collect(proc)

    print_table(
        "warm vs cold throughput (repeated identical pairs)",
        ["distinct pairs", "cold s", "warm s", "speedup", "job p99 ms"],
        [[
            warm["distinct_pairs"], warm["cold_s"], warm["warm_s"],
            f"{warm['warm_speedup']:.2f}x", warm["p99_ms"],
        ]],
    )
    print_table(
        f"overload burst ({BURST_FACTOR}x queue capacity)",
        ["burst", "capacity", "accepted", "429s", "max accepted s"],
        [[
            overload["burst"], overload["queue_capacity"], overload["accepted"],
            overload["rejected_429"], overload["accepted_max_s"],
        ]],
    )
    assert warm["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm cache did not pay: {warm['warm_speedup']:.2f}x "
        f"< required {MIN_WARM_SPEEDUP}x"
    )
    assert final["counters"]["rejected_queue_full"] >= 1

    payload = {
        "benchmark": "bench_serve",
        "warm_speedup": warm["warm_speedup"],
        "cold_s": warm["cold_s"],
        "warm_s": warm["warm_s"],
        "job_p99_ms": warm["p99_ms"],
        "burst": overload["burst"],
        "accepted": overload["accepted"],
        "rejected_429": overload["rejected_429"],
        "drained_clean": True,
        "final_jobs_succeeded": final["counters"]["jobs_succeeded"],
        "final_jobs_inline": final["counters"]["jobs_inline"],
        "final_jobs_pooled": final["counters"]["jobs_pooled"],
    }
    print("BENCH " + json.dumps(payload, sort_keys=True))
    if json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        print(f"wrote {json_out}")
    return payload


# ---------------------------------------------------------------------------
# pytest-benchmark entry point
# ---------------------------------------------------------------------------
def test_serve_warm_cache_pays(benchmark):
    payload = benchmark.pedantic(lambda: run(distinct=6), rounds=1, iterations=1)
    benchmark.extra_info["warm_speedup"] = payload["warm_speedup"]
    benchmark.extra_info["rejected_429"] = payload["rejected_429"]
    assert payload["warm_speedup"] >= MIN_WARM_SPEEDUP
    assert payload["rejected_429"] >= 1


# ---------------------------------------------------------------------------
# Direct / CI-smoke execution
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration exercising every assertion (used by CI)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the BENCH payload to PATH (CI artifact)",
    )
    args = parser.parse_args(argv)
    run(distinct=6 if args.smoke else 24, json_out=args.json_out)
    print("serve benchmark: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
