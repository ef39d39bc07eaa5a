"""Three-way merge behavior under growing edit overlap (§1 CAD scenario).

"Periodic consistent configurations of the entire design must be produced
... by computing the deltas with respect to the last configuration and
highlighting any conflicts that have arisen."

Two editors apply the same number of edits to a shared base; a knob moves
their edits from disjoint document regions (first vs second half of the
sections) to fully overlapping ones. The bench reports how much of the
right delta survives the merge and how many conflicts surface.
"""

from __future__ import annotations

import random

from repro.merge import three_way_merge
from repro.workload import DocumentSpec, MutationEngine, generate_document

from conftest import print_table

EDITS_PER_SIDE = 8


def split_document(seed):
    """A base document plus views of its first/second half section sets."""
    base = generate_document(
        seed, DocumentSpec(sections=8, paragraphs_per_section=4,
                           sentences_per_paragraph=4)
    )
    return base


def edit_region(base, seed, region):
    """Mutate only one region: 'left-half', 'right-half', or 'all'."""
    work = base.copy()
    rng = random.Random(seed)
    sections = work.root.children
    half = len(sections) // 2
    if region == "left-half":
        allowed = {s.id for s in sections[:half]}
    elif region == "right-half":
        allowed = {s.id for s in sections[half:]}
    else:
        allowed = {s.id for s in sections}
    allowed_subtree = set()
    for section in sections:
        if section.id in allowed:
            for node in section.preorder():
                allowed_subtree.add(node.id)

    engine = MutationEngine(rng)
    applied = 0
    attempts = 0
    while applied < EDITS_PER_SIDE and attempts < 500:
        attempts += 1
        leaves = [n for n in work.leaves() if n.id in allowed_subtree
                  and n.parent is not None]
        if not leaves:
            break
        leaf = rng.choice(leaves)
        kind = rng.choice(["update", "delete", "insert"])
        if kind == "update":
            work.update(leaf.id, engine._perturb_sentence(str(leaf.value)))
        elif kind == "delete":
            work.delete(leaf.id)
            allowed_subtree.discard(leaf.id)
        else:
            parent = leaf.parent
            node = work.insert(
                work.fresh_id(), "S", engine._fresh_sentence(), parent.id,
                rng.randint(1, len(parent.children) + 1),
            )
            allowed_subtree.add(node.id)
        applied += 1
    return work


def measure():
    rows = []
    for scenario, left_region, right_region in (
        ("disjoint regions", "left-half", "right-half"),
        ("right overlaps all", "left-half", "all"),
        ("full overlap", "all", "all"),
    ):
        conflicts = applied = skipped = 0
        for seed in range(5):
            base = split_document(3000 + seed)
            left = edit_region(base, 4000 + seed, left_region)
            right = edit_region(base, 5000 + seed, right_region)
            result = three_way_merge(base, left, right)
            conflicts += len(result.conflicts)
            applied += result.applied_right_ops
            skipped += result.skipped_right_ops
        rows.append(
            {
                "scenario": scenario,
                "applied": applied,
                "skipped": skipped,
                "conflicts": conflicts,
            }
        )
    return rows


def report(rows):
    print_table(
        f"Three-way merge: overlap vs conflicts ({EDITS_PER_SIDE} edits/side, 5 trials)",
        ["scenario", "right ops applied", "right ops skipped", "conflicts"],
        [
            (r["scenario"], r["applied"], r["skipped"], r["conflicts"])
            for r in rows
        ],
    )


def test_merge_overlap_sweep(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(rows)
    # disjoint edits merge (almost) cleanly
    assert rows[0]["conflicts"] <= 1
    # conflicts grow with overlap
    assert rows[-1]["conflicts"] >= rows[0]["conflicts"]
    # even under full overlap, most of the right delta still lands
    total = rows[-1]["applied"] + rows[-1]["skipped"]
    assert rows[-1]["applied"] > total * 0.5
    for r in rows:
        benchmark.extra_info[f"conflicts::{r['scenario']}"] = r["conflicts"]


if __name__ == "__main__":
    report(measure())
