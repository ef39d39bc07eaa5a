"""Ablation: the A(k) optimality/efficiency tradeoff (§9 future work).

The paper plans "a parameterized algorithm A(k) where the parameter k
specifies the desired level of optimality"; ``fast_match(..., k=k)``
realizes it by bounding FastMatch's quadratic fallback to a window of k
chain positions. This bench sweeps k on a
move-heavy workload and reports the two sides of the trade:

* matching effort (leaf comparisons r1) — grows with k,
* edit-script cost — shrinks with k (missed moves degrade into
  delete/insert pairs, never into wrong output).
"""

from __future__ import annotations

from repro.editscript import generate_edit_script
from repro.ladiff.pipeline import default_match_config
from repro.matching import MatchingStats, fast_match
from repro.workload import DocumentSpec, MutationEngine, MutationMix, generate_document

from conftest import print_table

K_VALUES = (0, 1, 2, 4, 8, 16, None)

MOVE_HEAVY = MutationMix(
    insert_leaf=0.5, delete_leaf=0.5, update_leaf=0.5,
    move_leaf=3.0, move_subtree=1.5, insert_subtree=0.1, delete_subtree=0.1,
)


def build_pairs(count=5, edits=15):
    pairs = []
    for seed in range(count):
        base = generate_document(
            900 + seed,
            DocumentSpec(sections=5, paragraphs_per_section=5,
                         sentences_per_paragraph=5),
        )
        edited = MutationEngine(950 + seed, mix=MOVE_HEAVY).mutate(base, edits).tree
        pairs.append((base, edited))
    return pairs


def sweep(pairs):
    rows = []
    for k in K_VALUES:
        total_cost = total_compares = total_ops = 0.0
        for base, edited in pairs:
            stats = MatchingStats()
            matching = fast_match(
                base, edited, default_match_config(), stats=stats, k=k
            )
            result = generate_edit_script(base, edited, matching)
            assert result.verify(base, edited)
            total_cost += result.cost()
            total_compares += stats.leaf_compares
            total_ops += len(result.script)
        rows.append(
            {
                "k": "unbounded" if k is None else k,
                "compares": total_compares,
                "cost": total_cost,
                "ops": total_ops,
            }
        )
    return rows


def report(rows):
    print_table(
        "A(k): fallback window vs matching effort and script cost",
        ["k", "leaf compares (r1)", "script cost", "script ops"],
        [
            (r["k"], f"{r['compares']:.0f}", f"{r['cost']:.1f}", f"{r['ops']:.0f}")
            for r in rows
        ],
    )


def test_parameterized_tradeoff(benchmark):
    pairs = build_pairs()
    rows = benchmark.pedantic(sweep, args=(pairs,), rounds=1, iterations=1)
    report(rows)
    costs = [r["cost"] for r in rows]
    compares = [r["compares"] for r in rows]
    # effort grows (weakly) with k; quality improves (cost shrinks weakly)
    assert compares[0] <= compares[-1]
    assert costs[-1] <= costs[0]
    # the extremes genuinely differ on this move-heavy workload
    assert costs[-1] < costs[0]
    benchmark.extra_info["cost_k0"] = round(costs[0], 1)
    benchmark.extra_info["cost_unbounded"] = round(costs[-1], 1)


if __name__ == "__main__":
    report(sweep(build_pairs()))
