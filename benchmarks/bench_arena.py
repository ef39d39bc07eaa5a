"""Ingest cost of the arena core: parse + index build on a 10k-node corpus.

The hot ingest path — parse a serialized tree, build its
:class:`~repro.core.index.TreeIndex` — runs through the struct-of-arrays
core: ``tree_from_dict`` parses straight into a
:class:`~repro.core.arena.TreeArena` (no ``Node`` is ever built) and
``TreeIndex`` reads the arrays directly. This benchmark reports the wall
time and the peak ``tracemalloc`` memory of that path on a ~10k-node
document corpus. ``check_regression.py`` gates the peak memory
(``arena_peak_kb``, lower is better) against the committed baseline;
allocation shape is deterministic, so the gate is machine-independent.
It also times the Merkle digest pass over the parsed corpus (``digest_ms``,
the serving layer's per-snapshot fingerprint); that figure is reported
for context and not gated.

Run directly for the table, ``--smoke`` for the fast CI configuration,
``--json-out PATH`` to also write the ``BENCH`` payload to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.core.index import TreeIndex
from repro.core.serialization import tree_from_dict
from repro.service.digest import compute_digests

from conftest import print_table

#: words recycled across sentence values so value interning sees realistic
#: repetition (documents reuse vocabulary; so do database dumps)
_WORDS = (
    "change detection hierarchical structured information ordered tree "
    "matching edit script minimum cost delta snapshot warehouse"
).split()


def build_corpus(sections: int, paragraphs: int, sentences: int) -> dict:
    """A deterministic D/SEC/P/S document as a serialized dict."""

    def sentence(i: int) -> dict:
        words = [_WORDS[(i + k) % len(_WORDS)] for k in range(4)]
        return {"label": "S", "value": " ".join(words)}

    count = 0
    section_nodes = []
    for s in range(sections):
        paragraph_nodes = []
        for p in range(paragraphs):
            leaves = []
            for _ in range(sentences):
                leaves.append(sentence(count))
                count += 1
            paragraph_nodes.append(
                {"label": "P", "value": None, "children": leaves}
            )
        section_nodes.append(
            {"label": "SEC", "value": f"section {s}", "children": paragraph_nodes}
        )
    return {"label": "D", "value": None, "children": section_nodes}


def parse_index_arena(data: dict):
    tree = tree_from_dict(data)  # lazy arena view: no Node objects
    return tree, TreeIndex(tree)


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(sections: int = 24, paragraphs: int = 20, sentences: int = 20,
            rounds: int = 3) -> dict:
    data = build_corpus(sections, paragraphs, sentences)

    # The index must describe the corpus before the timings mean anything.
    tree, index = parse_index_arena(data)
    root_id = next(iter(tree.node_ids()))
    nodes = len(tree)
    assert len(index) == index.subtree_size(root_id) == nodes
    assert index.leaf_count(root_id) == sections * paragraphs * sentences

    arena_s = _time(lambda: parse_index_arena(data), rounds)
    arena_peak = _peak_bytes(lambda: parse_index_arena(data))
    digest_s = _time(lambda: compute_digests(tree), rounds)
    assert tree._node_map is None  # digests read the arena arrays only
    return {
        "nodes": nodes,
        "arena_s": arena_s,
        "arena_peak_kb": arena_peak / 1024.0,
        "digest_s": digest_s,
    }


def report(stats: dict) -> dict:
    print_table(
        f"parse + index build on a {stats['nodes']}-node document corpus",
        ["core", "wall ms", "peak KiB", "digest ms"],
        [
            ("arena (struct-of-arrays)", f"{stats['arena_s'] * 1e3:.2f}",
             f"{stats['arena_peak_kb']:.0f}", f"{stats['digest_s'] * 1e3:.2f}"),
        ],
    )
    payload = {
        "benchmark": "bench_arena",
        "nodes": stats["nodes"],
        "arena_ms": round(stats["arena_s"] * 1e3, 3),
        "arena_peak_kb": round(stats["arena_peak_kb"], 1),
        "digest_ms": round(stats["digest_s"] * 1e3, 3),
    }
    print("BENCH " + json.dumps(payload))
    return payload


# ---------------------------------------------------------------------------
# pytest-benchmark entry point
# ---------------------------------------------------------------------------
def test_arena_parse_index(benchmark):
    stats = benchmark.pedantic(
        lambda: measure(rounds=2), rounds=1, iterations=1,
    )
    benchmark.extra_info["arena_ms"] = round(stats["arena_s"] * 1e3, 2)
    benchmark.extra_info["arena_peak_kb"] = round(stats["arena_peak_kb"], 1)
    benchmark.extra_info["digest_ms"] = round(stats["digest_s"] * 1e3, 2)


# ---------------------------------------------------------------------------
# Direct / CI-smoke execution
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer timing rounds (used by CI; the corpus itself is cheap "
             "enough to keep at full size, and the memory gate is "
             "calibrated on it)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the BENCH payload to this file",
    )
    args = parser.parse_args(argv)
    stats = measure(rounds=2 if args.smoke else 3)
    payload = report(stats)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    if args.smoke:
        print("arena benchmark smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
