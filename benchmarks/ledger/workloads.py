"""Seeded request sets for the latency ledger's four workloads.

Every workload is a list of distinct ``/v1/diff`` request bodies plus two
index sequences into it: the warm-up pass (sent once during set-up) and
the timed pool (sent in order during the timed phase). The server sees
only the bodies; everything here is a pure function of ``(name, seed)``.

The structure of each workload (trees, edits, send order) is fixed, and
the seed permutes words among words of equal length. Matching cost
depends on where edits land: over forty generated fig13 document groups
the matching time of one pass varies by 68% (quartile spread over
median), and even a pool of 1024 small random pairs varies by 7% in leaf
compares from seed to seed, which would swamp the code changes the
benchmark exists to see. The permutation keeps every byte count and
every word-equality relation, so the matching work (r1, r2) is identical
across seeds, while every request body, digest and cache key differs.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

from repro.core.serialization import tree_to_dict, tree_to_sexpr
from repro.workload import DocumentSpec, MutationEngine, make_document_set, random_tree

#: The three version-set shapes of ``repro.workload.paper_document_sets``
#: (name, base seed, spec); group 0 would be exactly those sets.
PAPER_SHAPES = (
    ("set-A", 11, DocumentSpec(sections=4, paragraphs_per_section=5, sentences_per_paragraph=4)),
    ("set-B", 23, DocumentSpec(sections=6, paragraphs_per_section=6, sentences_per_paragraph=5)),
    ("set-C", 47, DocumentSpec(sections=8, paragraphs_per_section=8, sentences_per_paragraph=6)),
)
FIG13_EDITS = (0, 4, 8, 16, 32)
#: Document groups ``g`` (base seeds ``seed + 1000 g``) of fig13-sets: of
#: groups 0-15, the four whose pass takes nearest the lower quartile of
#: pass time (3.1-3.8 s of matching each, 1.7-15.7 s over all sixteen),
#: so that one whole pass fits in a 20 s timed phase and every run
#: measures the same 120 requests.
FIG13_GROUPS = (4, 8, 11, 12)
#: Warm-repeat versions differ by a few edits, like consecutive snapshots.
WARM_EDITS = (0, 1, 2, 3, 4)
SMALL_EDITS = 6
#: Request bodies per workload at full size and under ``--smoke``.
SIZES = {
    False: {"fig13_groups": FIG13_GROUPS, "fig13_edits": FIG13_EDITS, "small_pool": 1024,
            "warm_docs": 16, "warm_identical": 8, "warm_draws": 4096,
            "cluster_warm": 32, "cluster_distinct": 2048},
    True: {"fig13_groups": FIG13_GROUPS[:1], "fig13_edits": FIG13_EDITS[:4], "small_pool": 48,
           "warm_docs": 2, "warm_identical": 2, "warm_draws": 48,
           "cluster_warm": 8, "cluster_distinct": 24},
}

Body = Dict[str, Any]


@dataclass
class Workload:
    """One traffic mix: request bodies and the order they are sent in.

    A body whose ``old`` and ``new`` are the same object is an identical
    pair, answered by the digest short-circuit.
    """

    name: str
    clients: int  #: closed-loop client threads in the load generator
    processes: int  #: ``serve --workers``: 1 single-process, >= 2 cluster
    bodies: List[Body]
    warmup: List[int]  #: indices sent once during set-up
    timed: List[int]  #: indices sent in the timed phase, in this order
    #: The timed phase may wrap around ``timed``; only where a wrapped
    #: request still sees the cache state its expected source assumes.
    cycle: bool
    replay: int  #: timed requests the traced run replays in-process

    def __post_init__(self) -> None:
        self._warmed = frozenset(self.warmup)

    def expected_source(self, index: int, warmed: bool = True) -> str:
        """The ``source`` the server must answer request *index* with,
        after the warm-up pass (*warmed*) or during it."""
        body = self.bodies[index]
        if body["old"] is body["new"]:
            return "digest"
        return "cache" if warmed and index in self._warmed else "computed"

    def inputs_sha256(self) -> str:
        """Digest of everything the server will be sent, in order."""
        blob = json.dumps(
            {"bodies": self.bodies, "warmup": self.warmup, "timed": self.timed},
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _pair(old: Any, new: Any) -> Body:
    return {"old": old, "new": new}


def walk(spec: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Every node of a dict-format tree."""
    stack = [spec]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.get("children", ()))


def _permute_words(bodies: List[Body], rng: random.Random) -> List[Body]:
    """Rename every word bijectively among words of its own length.

    A tree shared by several bodies stays one shared tree.
    """
    trees = {id(tree): tree for body in bodies for tree in (body["old"], body["new"])}
    words = set()
    for tree in trees.values():
        for node in walk(tree):
            value = node.get("value")
            if isinstance(value, str):
                words.update(value.split())
    by_length: Dict[int, List[str]] = {}
    for word in sorted(words):
        by_length.setdefault(len(word), []).append(word)
    mapping: Dict[str, str] = {}
    for group in by_length.values():
        shuffled = list(group)
        rng.shuffle(shuffled)
        mapping.update(zip(group, shuffled))

    def rename(spec: Dict[str, Any]) -> Dict[str, Any]:
        out = dict(spec)
        value = spec.get("value")
        if isinstance(value, str):
            out["value"] = re.sub(r"\S+", lambda m: mapping[m.group()], value)
        if "children" in spec:
            out["children"] = [rename(child) for child in spec["children"]]
        return out

    renamed = {key: rename(tree) for key, tree in trees.items()}
    return [_pair(renamed[id(body["old"])], renamed[id(body["new"])]) for body in bodies]


def _version_dicts(name: str, seed: int, spec: DocumentSpec, edits: Tuple[int, ...]) -> List[Dict[str, Any]]:
    document_set = make_document_set(name, seed, spec=spec, edit_counts=edits)
    return [tree_to_dict(version.tree) for version in document_set.versions]


def _small_pairs(rng: random.Random, count: int, seen: Set[Tuple[str, str]]) -> List[Body]:
    """``random_tree`` pairs whose two trees differ and whose content is
    not in *seen* (small trees repeat often enough to hit the cache)."""
    pairs = []
    while len(pairs) < count:
        old = random_tree(rng.getrandbits(32))
        new = MutationEngine(rng.getrandbits(32)).mutate(old, SMALL_EDITS).tree
        content = (tree_to_sexpr(old), tree_to_sexpr(new))
        if content[0] != content[1] and content not in seen:
            seen.add(content)
            pairs.append(_pair(tree_to_dict(old), tree_to_dict(new)))
    return pairs


def fig13_sets(smoke: bool) -> Workload:
    """The paper's §8 experiment: every ordered version pair of each set.

    The pass is sent in one fixed shuffled order, so that the prefix a
    timed phase completes before ``--seconds`` runs out is a fair sample
    of the whole pass.
    """
    size = SIZES[smoke]
    edits = size["fig13_edits"]
    groups = [
        [
            _version_dicts(f"{shape}/{group}", base + 1000 * group, spec, edits)
            for shape, base, spec in PAPER_SHAPES
        ]
        for group in size["fig13_groups"]
    ]
    pairs = [(i, j) for i in range(len(edits)) for j in range(i + 1, len(edits))]
    bodies = [
        _pair(versions[i], versions[j])
        for group in groups
        for i, j in pairs
        for versions in group
    ]
    timed = list(range(len(bodies)))
    random.Random("fig13-sets").shuffle(timed)
    return Workload(
        name="fig13-sets", clients=1, processes=1, bodies=bodies, warmup=[],
        timed=timed, cycle=False, replay=min(30, len(bodies)),
    )


def small_snapshots(smoke: bool) -> Workload:
    """Many small distinct pairs: the fixed per-request cost of serving.

    The pool wraps around, but it is four times the server's default
    256-entry cache, so a repeated pair has always been evicted.
    """
    bodies = _small_pairs(random.Random("small-snapshots"), SIZES[smoke]["small_pool"], set())
    return Workload(
        name="small-snapshots", clients=2, processes=1, bodies=bodies, warmup=[],
        timed=list(range(len(bodies))), cycle=True, replay=min(512, len(bodies)),
    )


def warm_repeat(smoke: bool) -> Workload:
    """Re-diffing a warm working set: every timed request is a cache hit
    (consecutive set-B versions) or a digest short-circuit (``old == new``)."""
    size = SIZES[smoke]
    _, base, spec = PAPER_SHAPES[1]
    docs = [
        _version_dicts(f"warm/{k}", base + 1000 * (k + 10), spec, WARM_EDITS)
        for k in range(size["warm_docs"])
    ]
    bodies = [
        _pair(versions[i], versions[i + 1])
        for versions in docs
        for i in range(len(WARM_EDITS) - 1)
    ]
    for k in range(size["warm_identical"]):
        base_version = docs[k % len(docs)][0]
        bodies.append(_pair(base_version, base_version))
    rng = random.Random("warm-repeat")
    timed = [rng.randrange(len(bodies)) for _ in range(size["warm_draws"])]
    return Workload(
        name="warm-repeat", clients=2, processes=1, bodies=bodies,
        warmup=list(range(len(bodies))), timed=timed, cycle=True,
        replay=min(512, len(timed)),
    )


def cluster_affinity(smoke: bool) -> Workload:
    """Through the router: distinct pairs alternate with warmed repeats.

    2048 distinct pairs split over two shards stay far above each worker's
    256-entry cache, so a wrapped distinct pair still misses.
    """
    size = SIZES[smoke]
    rng = random.Random("cluster-affinity")
    seen: Set[Tuple[str, str]] = set()
    warm = _small_pairs(rng, size["cluster_warm"], seen)
    distinct = _small_pairs(rng, size["cluster_distinct"], seen)
    timed: List[int] = []
    for k in range(len(distinct)):
        timed.append(len(warm) + k)
        timed.append(rng.randrange(len(warm)))
    return Workload(
        name="cluster-affinity", clients=1, processes=2, bodies=warm + distinct,
        warmup=list(range(len(warm))), timed=timed, cycle=True,
        replay=min(512, len(timed)),
    )


BUILDERS: Dict[str, Callable[[bool], Workload]] = {
    "fig13-sets": fig13_sets,
    "small-snapshots": small_snapshots,
    "warm-repeat": warm_repeat,
    "cluster-affinity": cluster_affinity,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload *name*, its words permuted by *seed*."""
    workload = BUILDERS[name](smoke)
    workload.bodies = _permute_words(workload.bodies, random.Random(f"{name}:{seed}"))
    return workload
