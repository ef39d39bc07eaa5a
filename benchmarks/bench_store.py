"""Version-store economics: delta storage vs full snapshots (§1 scenario).

The warehouse motivation says deltas, not copies. This bench commits a
chain of document versions and measures what the store actually saves:
serialized history size vs keeping every snapshot in full, plus commit and
checkout latency.
"""

from __future__ import annotations

import json

from repro import VersionStore, trees_isomorphic
from repro.core.serialization import tree_to_dict
from repro.workload import DocumentSpec, MutationEngine, generate_document

from conftest import print_table

VERSIONS = 8
EDITS_PER_VERSION = 8


def build_chain():
    versions = [generate_document(
        1234, DocumentSpec(sections=6, paragraphs_per_section=6,
                           sentences_per_paragraph=5))]
    for i in range(VERSIONS - 1):
        versions.append(
            MutationEngine(4321 + i).mutate(versions[-1], EDITS_PER_VERSION).tree
        )
    return versions


def measure(versions):
    store = VersionStore()
    for index, version in enumerate(versions):
        store.commit(version, f"rev {index}")
    assert store.verify_history()

    delta_bytes = len(json.dumps(store.to_dict()))
    snapshot_bytes = sum(
        len(json.dumps(tree_to_dict(v))) for v in versions
    )
    # spot-check correctness of the reconstruction path
    assert trees_isomorphic(store.checkout(0), versions[0])
    assert trees_isomorphic(store.checkout(VERSIONS // 2), versions[VERSIONS // 2])
    return {
        "versions": VERSIONS,
        "delta_bytes": delta_bytes,
        "snapshot_bytes": snapshot_bytes,
        "savings": 1.0 - delta_bytes / snapshot_bytes,
        "store": store,
    }


def report(stats):
    print_table(
        f"Version store: {VERSIONS} versions, {EDITS_PER_VERSION} edits each",
        ["storage strategy", "bytes"],
        [
            ("full snapshots", stats["snapshot_bytes"]),
            ("head + delta chain", stats["delta_bytes"]),
            ("savings", f"{stats['savings'] * 100:.0f}%"),
        ],
    )


def test_store_storage_savings(benchmark):
    versions = build_chain()
    stats = benchmark.pedantic(measure, args=(versions,), rounds=1, iterations=1)
    report(stats)
    benchmark.extra_info["savings_pct"] = round(stats["savings"] * 100, 1)
    # deltas must beat storing every snapshot in full
    assert stats["delta_bytes"] < stats["snapshot_bytes"]
    assert stats["savings"] > 0.3


def test_store_commit_latency(benchmark):
    versions = build_chain()

    def commit_all():
        store = VersionStore()
        for version in versions:
            store.commit(version)
        return store

    store = benchmark(commit_all)
    assert len(store) == VERSIONS


def test_store_checkout_latency(benchmark):
    versions = build_chain()
    store = VersionStore()
    for version in versions:
        store.commit(version)
    result = benchmark(lambda: store.checkout(0))
    assert trees_isomorphic(result, versions[0])
    # the one replay path reconstructs the whole chain, not just version 0
    for index, version in enumerate(versions):
        assert trees_isomorphic(store.checkout(index), version)


if __name__ == "__main__":
    report(measure(build_chain()))
