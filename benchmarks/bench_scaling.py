"""Algorithm EditScript scaling: the §4.3 O(ND) claim.

"the running time of Algorithm EditScript is O(ND), where N is the total
number of nodes ... and D is the total number of misaligned nodes. (Note D
is typically much smaller than N.)"

Two sweeps:

* **n-sweep** — trees grow, number of misalignments fixed: per-node work
  should stay roughly constant (linear total growth).
* **d-sweep** — tree size fixed, misaligned children grow: work grows with
  D, and the emitted intra-parent moves equal the true shuffle size minus
  the LCS (Lemma C.1).
"""

from __future__ import annotations

import random
import time

from repro.editscript import generate_edit_script
from repro.matching import Matching
from repro.workload import random_flat_tree

from conftest import print_table


def shuffled_pair(leaves, misaligned, seed):
    """A flat tree and a copy with `misaligned` children displaced."""
    base = random_flat_tree(seed, leaves=leaves)
    shuffled = base.copy()
    rng = random.Random(seed + 1)
    root = shuffled.root
    order = list(root.children)
    indices = list(range(len(order)))
    chosen = rng.sample(indices, min(misaligned, len(indices)))
    # rotate the chosen positions among themselves
    values = [order[i] for i in chosen]
    rotated = values[1:] + values[:1]
    for index, node in zip(chosen, rotated):
        order[index] = node
    # realize the new order through the mutation API, left to right
    for position, node in enumerate(order, start=1):
        if root.children[position - 1] is not node:
            shuffled.move(node.id, root.id, position)
    matching = Matching(
        [(base.root.id, shuffled.root.id)]
        + [
            (leaf.id, leaf.id)
            for leaf in base.root.children
        ]
    )
    return base, shuffled, matching


def run_n_sweep():
    rows = []
    for leaves in (100, 200, 400, 800, 1600):
        base, shuffled, matching = shuffled_pair(leaves, misaligned=8, seed=leaves)
        start = time.perf_counter()
        result = generate_edit_script(base, shuffled, matching)
        elapsed = time.perf_counter() - start
        assert result.verify(base, shuffled)
        rows.append(
            {
                "n": leaves,
                "moves": len(result.script.moves),
                "ms": elapsed * 1e3,
                "us_per_node": elapsed * 1e6 / leaves,
            }
        )
    return rows


def run_d_sweep():
    rows = []
    leaves = 600
    for misaligned in (2, 8, 32, 128):
        base, shuffled, matching = shuffled_pair(leaves, misaligned, seed=7)
        start = time.perf_counter()
        result = generate_edit_script(base, shuffled, matching)
        elapsed = time.perf_counter() - start
        assert result.verify(base, shuffled)
        rows.append(
            {
                "D_target": misaligned,
                "intra_moves": result.stats.intra_parent_moves,
                "ms": elapsed * 1e3,
            }
        )
    return rows


def report(n_rows, d_rows):
    print_table(
        "EditScript n-sweep (D fixed at 8 misaligned children)",
        ["n (leaves)", "moves", "ms", "us/node"],
        [(r["n"], r["moves"], f"{r['ms']:.1f}", f"{r['us_per_node']:.1f}")
         for r in n_rows],
    )
    print_table(
        "EditScript d-sweep (n fixed at 600 leaves)",
        ["target D", "intra-parent moves", "ms"],
        [(r["D_target"], r["intra_moves"], f"{r['ms']:.1f}") for r in d_rows],
    )


def test_editscript_scaling_in_n(benchmark):
    n_rows = benchmark.pedantic(run_n_sweep, rounds=1, iterations=1)
    d_rows = run_d_sweep()
    report(n_rows, d_rows)
    # per-node cost stays bounded as n grows 16x (linear-in-n behavior);
    # allow generous constant-factor noise.
    per_node = [r["us_per_node"] for r in n_rows]
    assert per_node[-1] < per_node[0] * 6
    # the number of emitted moves tracks the misalignment target
    for r in d_rows:
        assert r["intra_moves"] <= r["D_target"]
    benchmark.extra_info["us_per_node_smallest"] = round(per_node[0], 2)
    benchmark.extra_info["us_per_node_largest"] = round(per_node[-1], 2)


def test_editscript_wallclock_large(benchmark):
    base, shuffled, matching = shuffled_pair(1600, misaligned=8, seed=1600)
    benchmark(lambda: generate_edit_script(base, shuffled, matching))


if __name__ == "__main__":
    report(run_n_sweep(), run_d_sweep())
