"""Matching accuracy against ground truth (precision / recall / F1).

The paper could only bound mismatches indirectly (Table 1); our synthetic
workloads preserve node identity through mutation, so matcher accuracy is
directly measurable. This bench scores FastMatch across the threshold
sweep and A(k) across k, giving the quality numbers behind the cost-only
ablations.
"""

from __future__ import annotations

import pytest

from repro.analysis import matching_quality
from repro.ladiff.pipeline import default_match_config
from repro.matching import fast_match
from repro.workload import DocumentSpec, MutationEngine, MutationMix, generate_document

from conftest import print_table

CHURN = MutationMix(
    insert_leaf=1.0, delete_leaf=1.0, update_leaf=1.0,
    move_leaf=1.5, move_subtree=1.0, insert_subtree=0.2, delete_subtree=0.2,
)


def build_pairs(count=6, edits=15):
    pairs = []
    for seed in range(count):
        base = generate_document(
            1300 + seed,
            DocumentSpec(sections=5, paragraphs_per_section=5,
                         sentences_per_paragraph=5),
        )
        mutated = MutationEngine(1400 + seed, mix=CHURN).mutate(base, edits).tree
        pairs.append((base, mutated))
    return pairs


def score(pairs, matcher):
    precision = recall = f1 = 0.0
    for base, mutated in pairs:
        quality = matching_quality(base, mutated, matcher(base, mutated))
        precision += quality.precision
        recall += quality.recall
        f1 += quality.f1
    n = len(pairs)
    return precision / n, recall / n, f1 / n


def sweep(pairs):
    rows = []
    for t in (0.5, 0.7, 0.9):
        config = default_match_config(t=t)
        p, r, f = score(pairs, lambda a, b: fast_match(a, b, config))
        rows.append((f"FastMatch t={t:.1f}", p, r, f))
    for k in (0, 2, 8, None):
        config = default_match_config()
        p, r, f = score(pairs, lambda a, b: fast_match(a, b, config, k=k))
        label = "A(unbounded)" if k is None else f"A(k={k})"
        rows.append((label, p, r, f))
    return rows


def report(rows):
    print_table(
        "Matching accuracy vs id-preserving ground truth",
        ["matcher", "precision", "recall", "F1"],
        [(name, f"{p:.3f}", f"{r:.3f}", f"{f:.3f}") for name, p, r, f in rows],
    )


def test_matching_quality_sweep(benchmark):
    pairs = build_pairs()
    rows = benchmark.pedantic(sweep, args=(pairs,), rounds=1, iterations=1)
    report(rows)
    by_name = {name: (p, r, f) for name, p, r, f in rows}

    # FastMatch at default thresholds is highly accurate
    p, r, f = by_name["FastMatch t=0.5"]
    assert p > 0.9 and r > 0.85

    # raising t trades recall away, never precision
    assert by_name["FastMatch t=0.9"][1] <= by_name["FastMatch t=0.5"][1]

    # A(k) recall is monotone in k; unbounded equals FastMatch
    recalls = [by_name[f"A(k={k})"][1] for k in (0, 2, 8)]
    recalls.append(by_name["A(unbounded)"][1])
    assert recalls == sorted(recalls)
    assert by_name["A(unbounded)"][2] == pytest.approx(
        by_name["FastMatch t=0.5"][2], abs=1e-9
    )

    for name, p, r, f in rows:
        benchmark.extra_info[f"f1::{name}"] = round(f, 3)


if __name__ == "__main__":
    report(sweep(build_pairs()))
