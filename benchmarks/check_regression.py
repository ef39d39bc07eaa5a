"""CI perf-regression gate: compare fresh BENCH payloads against a baseline.

The serve/cluster benchmarks print a one-line ``BENCH {json}`` payload and
(with ``--json-out``) write it to a file.  CI used to only upload those
files as artifacts — nobody looked at them until something was already
slow.  This script turns them into a gate:

    python benchmarks/check_regression.py bench-serve.json bench-cluster.json

Each payload is matched to the committed baseline entry by its
``payload["benchmark"]`` name and checked metric-by-metric with a
direction-aware tolerance (default ±30%):

* ``higher`` metrics (speedups) may not drop below ``baseline * (1 - tol)``;
* ``lower`` metrics (latencies, memory) may not rise above ``baseline * (1 + tol)``;
* ``equals`` metrics (invariants: clean drain, zero failed requests) must
  match the baseline exactly — no tolerance.

Only dimensionless ratios, invariants and deterministic allocation peaks
are gated by default; raw req/s and wall-seconds are machine-bound and
recorded for context only.
Re-baseline intentionally with ``--update`` after a justified change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "BENCH_baseline.json"
)
DEFAULT_TOLERANCE = 0.30

#: metric -> (direction, tolerance override or None).  Metrics absent here
#: are informational: recorded in the baseline, never gated.
POLICIES = {
    "bench_serve": {
        # cache-warmth ratios swing with scheduler noise on shared runners;
        # a 50% band still catches a cache that stopped paying at all
        "warm_speedup": ("higher", 0.5),
        # smoke runs have few samples, so p99 is jumpy: 100% band
        "job_p99_ms": ("lower", 1.0),
        "drained_clean": ("equals", None),
    },
    "bench_arena": {
        # peak parse + index memory; allocation shape is deterministic, so
        # the default band suffices
        "arena_peak_kb": ("lower", None),
    },
    "bench_cluster": {
        "cluster_speedup": ("higher", None),
        "warm_speedup": ("higher", 0.5),
        # restart time is dominated by health-interval + backoff + interpreter
        # start; give it extra slack so a slow runner does not flake the gate
        "restart_s": ("lower", 1.0),
        "kill_failures": ("equals", None),
        "drained_clean": ("equals", None),
    },
    "bench_obs": {
        # overhead ratios vs the same-run untraced baseline; the bench also
        # enforces the hard 1.05x (off) / 1.15x (sampled) gates internally,
        # so these bands only track drift against the committed numbers
        "off_ratio": ("lower", 0.10),
        "sampled_ratio": ("lower", 0.25),
        # every sampled job must land its engine + stage spans, none open
        "spans_ok": ("equals", None),
    },
}


class RegressionError(Exception):
    pass


def load_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    name = payload.get("benchmark")
    if not name:
        raise RegressionError(f"{path}: payload has no 'benchmark' field")
    return payload


def load_baseline(path: str) -> dict:
    if not os.path.exists(path):
        raise RegressionError(
            f"baseline {path} not found; generate with --update"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_metric(direction: str, tolerance: float, baseline, current):
    """Return (ok, human-readable limit description)."""
    if direction == "equals":
        return current == baseline, f"== {baseline!r}"
    base = float(baseline)
    cur = float(current)
    if direction == "higher":
        limit = base * (1.0 - tolerance)
        return cur >= limit, f">= {limit:.3f}"
    if direction == "lower":
        limit = base * (1.0 + tolerance)
        return cur <= limit, f"<= {limit:.3f}"
    raise RegressionError(f"unknown direction {direction!r}")


def check_payload(payload: dict, baseline_entry: dict, tolerance: float):
    """Check one payload against its baseline; return a list of result rows."""
    name = payload["benchmark"]
    rows = []
    for metric, (direction, override) in sorted(POLICIES[name].items()):
        if metric not in baseline_entry:
            raise RegressionError(f"{name}: baseline lacks gated metric {metric!r}")
        if metric not in payload:
            raise RegressionError(f"{name}: fresh payload lacks gated metric {metric!r}")
        tol = tolerance if override is None else override
        ok, limit = check_metric(
            direction, tol, baseline_entry[metric], payload[metric]
        )
        rows.append((name, metric, baseline_entry[metric], payload[metric], limit, ok))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "payloads", nargs="+", metavar="BENCH_JSON",
        help="fresh BENCH payload files written with --json-out",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, metavar="PATH")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fractional tolerance for higher/lower metrics (default 0.30)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline entries from the given payloads instead of gating",
    )
    args = parser.parse_args(argv)

    try:
        payloads = [load_payload(path) for path in args.payloads]

        if args.update:
            baseline = load_baseline(args.baseline) if os.path.exists(args.baseline) else {}
            for payload in payloads:
                baseline[payload["benchmark"]] = payload
            os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
            with open(args.baseline, "w", encoding="utf-8") as handle:
                json.dump(baseline, handle, sort_keys=True, indent=2)
                handle.write("\n")
            print(f"baseline updated: {args.baseline}")
            return 0

        baseline = load_baseline(args.baseline)
        rows = []
        for payload in payloads:
            name = payload["benchmark"]
            if name not in POLICIES:
                raise RegressionError(f"no gate policy for benchmark {name!r}")
            if name not in baseline:
                raise RegressionError(
                    f"baseline has no entry for {name!r}; run with --update first"
                )
            rows.extend(check_payload(payload, baseline[name], args.tolerance))
    except RegressionError as exc:
        print(f"check_regression: error: {exc}", file=sys.stderr)
        return 2

    width = max(len(f"{r[0]}.{r[1]}") for r in rows)
    failed = [r for r in rows if not r[5]]
    for name, metric, base, cur, limit, ok in rows:
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"{name + '.' + metric:<{width}}  baseline={base!r:<8} "
            f"current={cur!r:<8} required {limit:<12} {verdict}"
        )
    if failed:
        print(f"\n{len(failed)} metric(s) regressed beyond tolerance", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
