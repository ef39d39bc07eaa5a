"""Compare two sets of ledger runs against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 benchmarks/ledger/compare.py BASE_DIR CHANGE_DIR

Each directory holds ``results.json`` files written by ``run.py --out``
(searched recursively; one file per run, each run one seed). For every
workload and end-to-end metric the table gives both sides' median and
quartiles, the share of all (base run, change run) pairs the change wins
(ties count for neither), and a verdict:

* ``regressed``: the change's median is worse than the base median by
  more than the metric's bound;
* ``improved``: the change wins at least 9/10 of the pairs and the
  medians differ by more than the base runs' quartile spread;
* ``unresolved``: the base runs' quartile spread exceeds the bound, and
  not every change run beats every base run;
* ``within bound``: otherwise.

The exit code is 1 when any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: workload -> metric -> one value per run
Runs = Dict[str, Dict[str, List[float]]]


def load_runs(directory: Path) -> Runs:
    runs: Runs = {}
    for path in sorted(directory.rglob("*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or "workloads" not in data:
            continue
        for workload, entry in data["workloads"].items():
            for metric, measured in entry["metrics"].items():
                runs.setdefault(workload, {}).setdefault(metric, []).append(measured["value"])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], change: Sequence[float], bound: float, better: str) -> Tuple[str, float]:
    """``(verdict, pairwise win fraction of the change)``."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b in base for c in change)
    win_fraction = wins / (len(base) * len(change))
    if sign * (b_med - c_med) > bound * abs(b_med):
        return "regressed", win_fraction
    if win_fraction >= 0.9 and abs(c_med - b_med) > b3 - b1:
        return "improved", win_fraction
    if b3 - b1 > bound * abs(b_med) and win_fraction < 1.0:
        return "unresolved", win_fraction
    return "within bound", win_fraction


def compare(base: Runs, change: Runs, end_to_end: List[dict]) -> List[Tuple[str, ...]]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        for spec in end_to_end:
            name = spec["name"]
            if name not in base[workload] or name not in change[workload]:
                continue
            b, c = base[workload][name], change[workload][name]
            result, wins = verdict(b, c, spec["bound"], spec["better"])
            bq, cq = quartiles(b), quartiles(c)
            rows.append((
                workload, name,
                f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b)}",
                f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] n={len(c)}",
                f"{wins:.2f}", f"{spec['bound']:.0%}", result,
            ))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.change), end_to_end)
    header = ("workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
              "win", "bound", "verdict")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
