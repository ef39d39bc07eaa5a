"""Differential crosschecks, including the Hypothesis property tests.

The properties are stated in their *sound* forms (see
``repro.verify.differential``):

* for random mutated pairs, the optimal Zhang–Shasha distance never
  exceeds the pipeline script re-priced in ZS terms (small trees only);
* on flat documents, FastMatch deletes/inserts no more leaves than the
  flat line-diff baseline.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.flat_diff import flat_diff
from repro.baselines.zhang_shasha import zhang_shasha_distance
from repro.core.tree import Tree
from repro.pipeline import DiffConfig, DiffPipeline
from repro.verify.differential import (
    differential_check,
    flat_dominance_check,
    is_flat_pair,
    zs_lower_bound_check,
    zs_script_bound,
)
from repro.verify.fuzz import generate_pair


def diff(t1, t2, algorithm="fast"):
    return DiffPipeline(DiffConfig(algorithm=algorithm)).run(t1, t2)


# ---------------------------------------------------------------------------
# Unit behavior
# ---------------------------------------------------------------------------
def test_zs_bound_zero_for_identical_trees(figure1_trees):
    t1, _ = figure1_trees
    t2 = t1.copy()
    result = diff(t1, t2)
    assert zs_script_bound(t1, result.edit) == 0.0
    assert zs_lower_bound_check(t1, t2, result.edit) == []


def test_zs_bound_counts_moves_at_apply_time(figure1_trees):
    t1, t2 = figure1_trees
    result = diff(t1, t2)
    bound = zs_script_bound(t1, result.edit)
    script = result.edit.script
    # Static floor: every non-move op contributes at least 0, every move at
    # least 2 (a one-node subtree deleted and re-inserted).
    assert bound >= 2 * len(script.moves)
    assert bound >= len(script.inserts) + len(script.deletes)
    assert zhang_shasha_distance(t1, t2) <= bound


def test_zs_bound_handles_wrapped_scripts():
    # Different root labels force dummy-root wrapping in the generator.
    t1 = Tree.from_obj(("A", None, [("S", "shared sentence")]))
    t2 = Tree.from_obj(("B", None, [("S", "shared sentence")]))
    result = diff(t1, t2)
    assert result.edit.wrapped
    assert zs_lower_bound_check(t1, t2, result.edit) == []


def test_is_flat_pair():
    flat1 = Tree.from_obj(("D", None, [("S", "a"), ("S", "b")]))
    flat2 = Tree.from_obj(("D", None, [("S", "b")]))
    nested = Tree.from_obj(("D", None, [("P", None, [("S", "a")])]))
    mixed = Tree.from_obj(("D", None, [("S", "a"), ("T", "b")]))
    valued_root = Tree.from_obj(("D", "v", [("S", "a")]))
    assert is_flat_pair(flat1, flat2)
    assert not is_flat_pair(flat1, nested)
    assert not is_flat_pair(flat1, mixed)
    assert not is_flat_pair(valued_root, flat2)
    assert not is_flat_pair(
        flat1, Tree.from_obj(("E", None, [("S", "a")]))
    )  # root labels differ


def test_differential_check_reports_costs(figure1_trees):
    t1, t2 = figure1_trees
    outcome = differential_check(t1, t2)
    assert outcome.ok, [str(v) for v in outcome.violations]
    assert set(outcome.costs) == {"fast", "simple"}
    assert outcome.zs_distance is not None  # 21 nodes: inside the ZS gate
    for bound in outcome.zs_bounds.values():
        assert outcome.zs_distance <= bound + 1e-9


def test_differential_check_skips_zs_on_large_trees(figure1_trees):
    t1, t2 = figure1_trees
    outcome = differential_check(t1, t2, max_zs_nodes=5)
    assert outcome.ok
    assert outcome.zs_distance is None and outcome.zs_bounds == {}


def test_differential_check_flags_invalid_script(figure1_trees):
    t1, t2 = figure1_trees
    import dataclasses

    from repro.editscript.script import EditScript

    real = {a: diff(t1, t2, a) for a in ("fast", "simple")}
    broken_edit = dataclasses.replace(
        real["fast"].edit, script=EditScript(list(real["fast"].edit.script)[:-1])
    )
    real["fast"] = dataclasses.replace(real["fast"], edit=broken_edit)
    outcome = differential_check(t1, t2, results=real)
    assert not outcome.ok
    assert any(
        "does not transform" in v.message for v in outcome.violations
    )


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_property_zs_lower_bound_on_small_pairs(seed):
    rng = random.Random(seed)
    t1, t2 = generate_pair(rng, "mutation", max_nodes=22)
    for algorithm in ("fast", "simple"):
        result = diff(t1, t2, algorithm)
        assert zs_lower_bound_check(t1, t2, result.edit, algorithm) == []


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_property_flat_dominance_for_fastmatch(seed):
    rng = random.Random(seed)
    t1, t2 = generate_pair(rng, "flat", max_nodes=40)
    # A subtree-free mutation mix keeps the pair flat unless it deletes every
    # leaf; such a draw is discarded, not a reason to skip the whole property.
    assume(is_flat_pair(t1, t2))
    result = diff(t1, t2, "fast")
    assert flat_dominance_check(t1, t2, result.edit) == []
    # The comparison the check encodes, spelled out:
    flat = flat_diff(t1, t2)
    assert len(result.edit.script.deletes) <= flat.deleted_lines
    assert len(result.edit.script.inserts) <= flat.inserted_lines


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_differential_battery_on_random_pairs(seed):
    rng = random.Random(seed)
    workload = ("mutation", "random", "flat")[seed % 3]
    t1, t2 = generate_pair(rng, workload, max_nodes=25)
    outcome = differential_check(t1, t2, max_zs_nodes=20)
    assert outcome.ok, [str(v) for v in outcome.violations]
