"""Seeded differential fuzzing of the whole diff stack.

Every iteration derives its own ``random.Random`` from the run seed and
the iteration number, generates a tree pair from one of three workloads
(mutated versions, unrelated random trees, flat documents), pushes it
through the :class:`~repro.pipeline.DiffPipeline` under every configured
algorithm, and runs the full oracle battery from
:mod:`repro.verify.oracles` plus the crosschecks from
:mod:`repro.verify.differential`.

On a violation the failing pair is *shrunk* by greedy subtree deletion —
repeatedly rebuild the pair without one subtree and keep the reduction
whenever the failure persists — and the minimized pair is written as a
JSON repro file (``format: repro-diff/1``) that :func:`run_repro` can
replay exactly.

The pipeline under test is injected as a ``runner`` callable, so tests
and the CLI can swap in deliberately broken runners
(:data:`INJECTED_BUGS`) and watch the harness catch them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.isomorphism import trees_isomorphic
from ..core.serialization import tree_from_dict, tree_to_dict
from ..core.tree import Tree
from ..editscript.generator import _Generator
from ..editscript.script import EditScript
from ..matching.criteria import MatchConfig
from ..simtest.clock import SYSTEM_CLOCK
from ..workload.mutations import MutationEngine, MutationMix
from ..workload.random_trees import (
    DEFAULT_WORDS,
    RandomTreeSpec,
    random_flat_tree,
    random_tree,
)
from .differential import differential_check
from .oracles import VerifyReport, Violation, check_index_consistency, verify_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline import DiffResult

#: A runner takes ``(t1, t2, algorithm)`` and returns a ``DiffResult``.
Runner = Callable[[Tree, Tree, str], "DiffResult"]

REPRO_FORMAT = "repro-diff/1"

#: Large odd multiplier decorrelates per-iteration seeds across runs whose
#: base seeds are close together (0, 1, 2, ...).
_SEED_STRIDE = 1_000_003

#: Workloads cycled through by iteration number.
WORKLOADS = ("mutation", "random", "flat")

#: Some unicode / whitespace-heavy values so the fuzzer exercises the
#: compare functions beyond plain ASCII words.
_UNICODE_WORDS = DEFAULT_WORDS + [
    "naïve",
    "héllo",
    "日本語テスト",
    "emoji🙂",
    "tab\tseparated",
    "  padded  ",
    "",
]

_FLAT_MIX = MutationMix(move_subtree=0.0, insert_subtree=0.0, delete_subtree=0.0)


@dataclass
class FuzzConfig:
    """Parameters of one fuzz run (all deterministic given ``seed``)."""

    seed: int = 0
    iterations: int = 100
    max_nodes: int = 60
    algorithms: Tuple[str, ...] = ("fast", "simple")
    match: Optional[MatchConfig] = None
    differential: bool = True
    max_zs_nodes: int = 20
    shrink: bool = True
    repro_dir: Optional[str] = None
    workloads: Tuple[str, ...] = WORKLOADS
    max_failures: int = 1
    #: Optional wall-clock budget in seconds; the loop stops cleanly after
    #: the iteration during which the budget runs out. Measured on the
    #: injectable clock passed to :func:`run_fuzz`, so simulated runs can
    #: exercise the cutoff without waiting.
    time_budget_s: Optional[float] = None


@dataclass
class FuzzFailure:
    """One oracle violation, after shrinking."""

    iteration: int
    workload: str
    violations: List[str]
    t1: Tree
    t2: Tree
    original_nodes: int
    shrunk_nodes: int
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzz run: aggregate oracle counters plus failures."""

    report: VerifyReport
    iterations_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    #: True when the run stopped on ``time_budget_s`` rather than finishing.
    budget_exhausted: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and self.report.ok


# ---------------------------------------------------------------------------
# Runners (the system under test, injectable for bug-detection tests)
# ---------------------------------------------------------------------------
def default_runner(t1: Tree, t2: Tree, algorithm: str) -> "DiffResult":
    """The real pipeline, with the delta stage on so every oracle runs."""
    from ..pipeline import DiffConfig, DiffPipeline

    pipeline = DiffPipeline(DiffConfig(algorithm=algorithm, build_delta=True))
    return pipeline.run(t1, t2)


def skip_align_runner(t1: Tree, t2: Tree, algorithm: str) -> "DiffResult":
    """Deliberately broken: the generator never runs ``AlignChildren``.

    Misordered siblings survive, so replay produces a tree that is not
    isomorphic to ``T2`` whenever the diff involves reordering — the
    classic bug class the harness must catch (and shrink).
    """
    original = _Generator._align_children
    _Generator._align_children = lambda self, *args, **kwargs: None
    try:
        return default_runner(t1, t2, algorithm)
    finally:
        _Generator._align_children = original


def drop_op_runner(t1: Tree, t2: Tree, algorithm: str) -> "DiffResult":
    """Deliberately broken: silently drops the script's last operation."""
    result = default_runner(t1, t2, algorithm)
    ops = list(result.edit.script)
    if not ops:
        return result
    edit = dataclasses.replace(result.edit, script=EditScript(ops[:-1]))
    return dataclasses.replace(result, edit=edit)


#: Named injectable bugs for ``repro-diff fuzz --inject-bug`` and tests.
INJECTED_BUGS: Dict[str, Runner] = {
    "skip-align": skip_align_runner,
    "drop-op": drop_op_runner,
}


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------
def generate_pair(
    rng: random.Random, workload: str, max_nodes: int
) -> Tuple[Tree, Tree]:
    """One (T1, T2) pair for *workload*, bounded by *max_nodes* per tree."""
    if workload == "flat":
        leaves = rng.randint(1, max(1, min(12, max_nodes - 1)))
        t1 = random_flat_tree(rng, leaves)
        edits = rng.randint(0, max(1, leaves // 2) + 1)
        t2 = MutationEngine(rng, _FLAT_MIX).mutate(t1, edits).tree
        return t1, t2
    if workload == "random":
        return (
            _bounded_random_tree(rng, max_nodes),
            _bounded_random_tree(rng, max_nodes),
        )
    if workload == "mutation":
        base = _bounded_random_tree(rng, max_nodes)
        edits = rng.randint(1, 8)
        return base, MutationEngine(rng).mutate(base, edits).tree
    raise ValueError(f"unknown workload: {workload!r}")


def _bounded_random_tree(rng: random.Random, max_nodes: int) -> Tree:
    vocabulary: Sequence[str] = (
        _UNICODE_WORDS if rng.random() < 0.3 else DEFAULT_WORDS
    )
    spec = RandomTreeSpec(
        max_depth=rng.randint(2, 4),
        max_children=rng.randint(1, 4),
        words_per_leaf=rng.randint(1, 5),
        vocabulary=vocabulary,
    )
    tree = random_tree(rng, spec)
    if len(tree) > max_nodes:
        # Retry once with a spec whose worst case (1 + 3 + 9 nodes) fits.
        tree = random_tree(
            rng, RandomTreeSpec(max_depth=2, max_children=3, vocabulary=vocabulary)
        )
    return tree


def iteration_rng(seed: int, iteration: int) -> random.Random:
    """The iteration's private generator; shared by fuzz and repro replay."""
    return random.Random(seed * _SEED_STRIDE + iteration)


# ---------------------------------------------------------------------------
# The oracle battery for one pair (also the shrinker's failure predicate)
# ---------------------------------------------------------------------------
def check_pair(
    t1: Tree,
    t2: Tree,
    config: FuzzConfig,
    runner: Runner,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Run every configured algorithm + oracle + crosscheck on one pair."""
    if report is None:
        report = VerifyReport()
    results: Dict[str, "DiffResult"] = {}
    try:
        for algorithm in config.algorithms:
            result = runner(t1, t2, algorithm)
            results[algorithm] = result
            verify_result(t1, t2, result, config=config.match, report=report)
        if config.differential:
            outcome = differential_check(
                t1,
                t2,
                config=config.match,
                max_zs_nodes=config.max_zs_nodes,
                results=results,
            )
            report.record("differential", outcome.violations)
        report.record("arena", _arena_check(t1, t2))
    except Exception as exc:
        report.record(
            "pipeline",
            [
                Violation(
                    "pipeline",
                    "diff raised instead of producing a result",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            ],
        )
    return report


def _pair_fails(t1: Tree, t2: Tree, config: FuzzConfig, runner: Runner) -> bool:
    return not check_pair(t1, t2, config, runner).ok


# ---------------------------------------------------------------------------
# Arena representation crosschecks
# ---------------------------------------------------------------------------
def _arena_check(t1: Tree, t2: Tree) -> List[Violation]:
    """Differential oracles between the object and arena representations.

    Two families, run on every fuzzed pair:

    * Node graph → :class:`~repro.core.arena.TreeArena` → Node graph
      round-trips to an isomorphic tree with identical preorder ids;
    * the arena-backed :class:`~repro.core.index.TreeIndex` agrees with
      naive node walks (:func:`~repro.verify.oracles.check_index_consistency`)
      on every preorder rank, size, leaf count, leaf span, child rank and
      containment test.

    Script replay is checked by the ``replay_isomorphism`` oracle.
    """
    violations: List[Violation] = []
    for name, tree in (("t1", t1), ("t2", t2)):
        arena = tree.to_arena()
        round_tripped = Tree.from_arena(arena)
        if not trees_isomorphic(tree, round_tripped):
            violations.append(
                Violation(
                    "arena",
                    "node graph -> arena -> node graph round-trip broke isomorphism",
                    {"tree": name},
                )
            )
        preorder_ids = [node.id for node in tree.preorder()]
        if list(round_tripped.node_ids()) != preorder_ids:
            violations.append(
                Violation(
                    "arena",
                    "arena round-trip changed node identifiers or their order",
                    {"tree": name},
                )
            )
        violations.extend(
            Violation("arena", f"{name}: {v.message}", v.details)
            for v in check_index_consistency(tree)
        )
    return violations


# ---------------------------------------------------------------------------
# Shrinking: greedy subtree deletion to a local minimum
# ---------------------------------------------------------------------------
def _without_subtree(tree: Tree, target_id: Any) -> Optional[Tree]:
    """A rebuilt copy of *tree* minus the subtree rooted at *target_id*."""
    if tree.root is None or tree.root.id == target_id:
        return None

    def convert(node) -> tuple:
        children = [
            convert(child) for child in node.children if child.id != target_id
        ]
        return (node.label, node.value, children)

    return Tree.from_obj(convert(tree.root))


def shrink_pair(
    t1: Tree,
    t2: Tree,
    fails: Callable[[Tree, Tree], bool],
    max_attempts: int = 2000,
) -> Tuple[Tree, Tree]:
    """Greedily drop subtrees from either tree while the failure persists.

    Preorder tries large subtrees before their descendants, so whole
    irrelevant sections vanish in one step; the loop restarts after every
    successful deletion and stops at a fixpoint (or the attempt cap).
    """
    current = [t1, t2]
    attempts = 0
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for side in (0, 1):
            tree = current[side]
            for node in list(tree.preorder()):
                if tree.root is not None and node.id == tree.root.id:
                    continue
                reduced = _without_subtree(tree, node.id)
                if reduced is None:
                    continue
                attempts += 1
                candidate = list(current)
                candidate[side] = reduced
                if fails(candidate[0], candidate[1]):
                    current = candidate
                    changed = True
                    break
                if attempts >= max_attempts:
                    break
            if changed or attempts >= max_attempts:
                break
    return current[0], current[1]


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------
def write_repro(
    path: str,
    t1: Tree,
    t2: Tree,
    config: FuzzConfig,
    iteration: int,
    workload: str,
    violations: List[str],
) -> str:
    payload = {
        "format": REPRO_FORMAT,
        "seed": config.seed,
        "iteration": iteration,
        "workload": workload,
        "algorithms": list(config.algorithms),
        "violations": violations,
        "config": {
            "f": config.match.f if config.match is not None else None,
            "t": config.match.t if config.match is not None else None,
            "differential": config.differential,
            "max_zs_nodes": config.max_zs_nodes,
        },
        "t1": tree_to_dict(t1),
        "t2": tree_to_dict(t2),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False)
    return path


def load_repro(path: str) -> Tuple[Tree, Tree, Dict[str, Any]]:
    """Read a repro file back into its tree pair and metadata."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path}: not a {REPRO_FORMAT} repro file")
    return tree_from_dict(payload["t1"]), tree_from_dict(payload["t2"]), payload


def run_repro(path: str, runner: Optional[Runner] = None) -> VerifyReport:
    """Re-run the oracle battery on a stored repro pair."""
    t1, t2, payload = load_repro(path)
    raw = payload.get("config", {})
    match = None
    if raw.get("f") is not None and raw.get("t") is not None:
        match = MatchConfig(f=raw["f"], t=raw["t"])
    config = FuzzConfig(
        seed=payload.get("seed", 0),
        algorithms=tuple(payload.get("algorithms", ("fast", "simple"))),
        match=match,
        differential=raw.get("differential", True),
        max_zs_nodes=raw.get("max_zs_nodes", 20),
    )
    return check_pair(t1, t2, config, runner or default_runner)


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------
def run_fuzz(
    config: FuzzConfig,
    runner: Optional[Runner] = None,
    on_iteration: Optional[Callable[[int], None]] = None,
    clock: Optional[Any] = None,
) -> FuzzReport:
    """Run the seeded fuzz loop; deterministic for a given *config*.

    *clock* (a :class:`repro.simtest.clock.Clock`) is only read, never
    slept on: it stamps ``elapsed_s`` and enforces ``time_budget_s``.
    Pairs and oracles stay a pure function of the seed either way.
    """
    runner = runner or default_runner
    active_clock = clock if clock is not None else SYSTEM_CLOCK
    started = active_clock.monotonic()
    fuzz_report = FuzzReport(report=VerifyReport())
    for i in range(config.iterations):
        if (
            config.time_budget_s is not None
            and active_clock.monotonic() - started >= config.time_budget_s
        ):
            fuzz_report.budget_exhausted = True
            break
        rng = iteration_rng(config.seed, i)
        workload = config.workloads[i % len(config.workloads)]
        t1, t2 = generate_pair(rng, workload, config.max_nodes)
        iteration_report = check_pair(t1, t2, config, runner)
        fuzz_report.report.merge(iteration_report)
        fuzz_report.iterations_run = i + 1
        if on_iteration is not None:
            on_iteration(i)
        if iteration_report.ok:
            continue

        original_nodes = len(t1) + len(t2)
        if config.shrink:
            t1, t2 = shrink_pair(
                t1, t2, lambda a, b: _pair_fails(a, b, config, runner)
            )
        violations = [
            str(v) for v in check_pair(t1, t2, config, runner).samples
        ]
        failure = FuzzFailure(
            iteration=i,
            workload=workload,
            violations=violations,
            t1=t1,
            t2=t2,
            original_nodes=original_nodes,
            shrunk_nodes=len(t1) + len(t2),
        )
        if config.repro_dir is not None:
            os.makedirs(config.repro_dir, exist_ok=True)
            failure.repro_path = write_repro(
                os.path.join(
                    config.repro_dir,
                    f"repro-seed{config.seed}-iter{i}.json",
                ),
                t1,
                t2,
                config,
                i,
                workload,
                violations,
            )
        fuzz_report.failures.append(failure)
        if len(fuzz_report.failures) >= config.max_failures:
            break
    fuzz_report.elapsed_s = active_clock.monotonic() - started
    return fuzz_report
