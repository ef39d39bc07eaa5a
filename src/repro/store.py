"""A delta-based version store for hierarchical snapshots.

The paper's data-warehousing motivation (§1): a legacy source produces
periodic dumps, and the warehouse wants compact deltas rather than full
copies. :class:`VersionStore` realizes that pattern on top of the library:

* ``commit(tree)`` diffs the new snapshot against the head, stores the edit
  script (plus its inverse for backward travel), and keeps only the newest
  snapshot materialized;
* ``checkout(version)`` reconstructs any historical version by replaying
  inverse deltas back from the head (memoized in a small LRU so repeated
  historical reads don't re-replay the chain);
* ``delta(a, b)`` returns the composed operation sequence between two
  versions;
* ``save(path)`` / ``load(path)`` persist the whole history as JSON.

Storage cost is one materialized tree plus one edit script per version —
exactly the "sequence of snapshots, stored as deltas" layout the paper's
scenario calls for.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service.engine import DiffEngine

from .core.arena import TreeArena
from .core.errors import ReproError
from .core.isomorphism import trees_isomorphic
from .core.serialization import tree_from_dict, tree_to_dict
from .core.tree import Tree
from .editscript.invert import invert_script
from .editscript.script import EditScript
from .matching.criteria import MatchConfig
from .pipeline import DiffConfig, DiffPipeline
from .service.digest import tree_fingerprint


class VersionStoreError(ReproError):
    """Raised on invalid version operations (unknown version, empty store)."""


@dataclass
class CommitInfo:
    """Metadata for one committed version."""

    version: int
    message: str = ""
    operations: int = 0
    cost: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)


class VersionStore:
    """Linear version history stored as head snapshot + delta chain."""

    def __init__(
        self,
        config: Optional[MatchConfig] = None,
        engine: Optional["DiffEngine"] = None,
        checkout_cache_size: int = 8,
    ) -> None:
        """Create an empty store.

        Parameters
        ----------
        config:
            Matching configuration used by every commit's diff.
        engine:
            Optional :class:`repro.service.DiffEngine`. When given, commits
            take the digest path: the incoming snapshot is fingerprinted
            and a commit whose root digest equals the head's is skipped
            entirely (no matching, no new version), with the short-circuit
            recorded in the engine's metrics.
        checkout_cache_size:
            Bound of the materialized-version LRU used by
            :meth:`checkout`; ``0`` disables the memo.
        """
        if checkout_cache_size < 0:
            raise ValueError("checkout_cache_size must be >= 0")
        self._config = config
        self._pipeline = DiffPipeline(DiffConfig(match=config))
        self._engine = engine
        self._head_digest: Optional[str] = None
        #: memoized historical versions as immutable arena snapshots —
        #: handing one out is a zero-copy ``Tree.from_arena`` view
        self._checkout_cache: "OrderedDict[int, TreeArena]" = OrderedDict()
        self._checkout_cache_size = checkout_cache_size
        #: cache accounting for tests and capacity tuning
        self.checkout_hits = 0
        self.checkout_misses = 0
        self._head: Optional[Tree] = None
        #: forward[i] transforms version i into version i+1
        self._forward: List[EditScript] = []
        #: backward[i] transforms version i+1 into version i
        self._backward: List[EditScript] = []
        #: the dummy-root id leg i was generated under (None if unwrapped)
        self._dummy_ids: List[Any] = []
        self._info: List[CommitInfo] = []

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def commit(self, tree: Tree, message: str = "", **metadata: Any) -> CommitInfo:
        """Record *tree* as the next version; return its commit info.

        The input tree is copied, so later caller-side mutation cannot
        corrupt the history.

        When the store was built with a :class:`~repro.service.DiffEngine`,
        a snapshot whose Merkle root digest equals the head's is recognized
        as unchanged *before* any matching runs: no version is appended and
        the returned info is the head's, with ``metadata["unchanged"]``
        set. The short-circuit is counted in the engine's metrics.
        """
        snapshot = tree.copy()
        if self._head is None:
            info = CommitInfo(version=0, message=message, metadata=metadata)
            self._head = snapshot
            self._info.append(info)
            if self._engine is not None:
                self._head_digest = tree_fingerprint(self._head)
            return info
        if self._engine is not None:
            incoming_digest = tree_fingerprint(snapshot)
            if self._head_digest is None:
                self._head_digest = tree_fingerprint(self._head)
            if incoming_digest == self._head_digest:
                self._engine.metrics.incr("digest_short_circuits")
                head_info = self._info[-1]
                return CommitInfo(
                    version=head_info.version,
                    message=message,
                    operations=0,
                    cost=0.0,
                    metadata={**metadata, "unchanged": True},
                )
        result = self._pipeline.run(self._head, snapshot)
        forward = result.script

        # Rebase the script onto the head's identifier space: the generator
        # replays on a working copy, and `replay` encapsulates dummy-root
        # bookkeeping. The replay is verified once and becomes the new head.
        head = result.edit.replay(self._head)
        if not trees_isomorphic(head, snapshot):  # pragma: no cover - guard
            raise VersionStoreError("generated delta failed verification")

        dummy_id = result.edit.dummy_t1_id
        backward_base = self._head.copy()
        if dummy_id is not None:
            backward_base.wrap_root(dummy_id)
        backward = invert_script(backward_base, forward)
        info = CommitInfo(
            version=len(self._info),
            message=message,
            operations=len(forward),
            cost=forward.cost(),
            metadata=metadata,
        )
        self._forward.append(forward)
        self._backward.append(backward)
        self._dummy_ids.append(dummy_id)
        self._head = head
        self._info.append(info)
        if self._engine is not None:
            self._head_digest = tree_fingerprint(self._head)
        return info

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def head_version(self) -> int:
        if not self._info:
            raise VersionStoreError("the store is empty")
        return self._info[-1].version

    def __len__(self) -> int:
        return len(self._info)

    def log(self) -> List[CommitInfo]:
        """Commit metadata, oldest first."""
        return list(self._info)

    def head(self) -> Tree:
        """The newest snapshot (copy)."""
        if self._head is None:
            raise VersionStoreError("the store is empty")
        return self._head.copy()

    def checkout(self, version: int) -> Tree:
        """Reconstruct a historical version by replaying inverse deltas.

        Materialized versions are memoized in a bounded LRU as immutable
        :class:`~repro.core.arena.TreeArena` snapshots (committed versions
        never change, so entries never go stale and need no defensive
        copies — a hit is one zero-copy ``Tree.from_arena`` view). A miss
        replays the backward legs on one :class:`Tree`, starting from the
        nearest *newer* materialization — the head, or a cached version —
        and caches the result's arena.
        """
        if not self._info:
            raise VersionStoreError("the store is empty")
        if not 0 <= version <= self.head_version:
            raise VersionStoreError(
                f"unknown version {version}; store has 0..{self.head_version}"
            )
        if version == self.head_version:
            return self._head.copy()
        if self._checkout_cache_size:
            cached = self._checkout_cache.get(version)
            if cached is not None:
                self._checkout_cache.move_to_end(version)
                self.checkout_hits += 1
                return Tree.from_arena(cached)
            self.checkout_misses += 1
        start = self.head_version
        arena = self._head.to_arena()
        for candidate in self._checkout_cache:
            if version < candidate < start:
                start = candidate
                arena = self._checkout_cache[candidate]
        tree = Tree.from_arena(arena)
        for index in range(start - 1, version - 1, -1):
            tree = self._apply_leg(tree, index, backward=True)
        if self._checkout_cache_size:
            self._checkout_cache[version] = tree.to_arena()
            self._checkout_cache.move_to_end(version)
            while len(self._checkout_cache) > self._checkout_cache_size:
                self._checkout_cache.popitem(last=False)
        return tree

    def forward_delta(self, version: int) -> EditScript:
        """The stored script transforming *version* into *version + 1*."""
        if not 0 <= version < len(self._forward):
            raise VersionStoreError(f"no forward delta from version {version}")
        return self._forward[version]

    def delta(self, old: int, new: int) -> List[EditScript]:
        """The delta legs to travel from *old* to *new* (either direction)."""
        if not self._info:
            raise VersionStoreError("the store is empty")
        for v in (old, new):
            if not 0 <= v <= self.head_version:
                raise VersionStoreError(f"unknown version {v}")
        if old <= new:
            return [self._forward[i] for i in range(old, new)]
        return [self._backward[i] for i in range(old - 1, new - 1, -1)]

    def _apply_leg(self, tree: Tree, index: int, backward: bool) -> Tree:
        script = self._backward[index] if backward else self._forward[index]
        return script.apply_to(tree, in_place=True, dummy_id=self._dummy_ids[index])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize the whole store to a JSON-friendly dictionary."""
        return {
            "head": tree_to_dict(self._head) if self._head is not None else None,
            "forward": [s.to_dicts() for s in self._forward],
            "backward": [s.to_dicts() for s in self._backward],
            "wrapped": [dummy_id is not None for dummy_id in self._dummy_ids],
            "wrapped_ids": list(self._dummy_ids),
            "info": [
                {
                    "version": i.version,
                    "message": i.message,
                    "operations": i.operations,
                    "cost": i.cost,
                    "metadata": i.metadata,
                }
                for i in self._info
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VersionStore":
        store = cls()
        head = data.get("head")
        store._head = tree_from_dict(head) if head is not None else None
        store._forward = [EditScript.from_dicts(s) for s in data.get("forward", [])]
        store._backward = [EditScript.from_dicts(s) for s in data.get("backward", [])]
        store._dummy_ids = list(data.get("wrapped_ids", []))
        store._info = [
            CommitInfo(
                version=i["version"],
                message=i.get("message", ""),
                operations=i.get("operations", 0),
                cost=i.get("cost", 0.0),
                metadata=i.get("metadata", {}),
            )
            for i in data.get("info", [])
        ]
        return store

    def save(self, path: str) -> None:
        """Persist to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str) -> "VersionStore":
        """Load a store persisted by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    def verify_history(self) -> bool:
        """Replay every leg both ways and confirm the chain is consistent."""
        if self._head is None:
            return True
        current = self._head.copy()
        # travel back to version 0...
        for index in range(len(self._backward) - 1, -1, -1):
            current = self._apply_leg(current, index, backward=True)
        # ...and forward to the head again
        for index in range(len(self._forward)):
            current = self._apply_leg(current, index, backward=False)
        return trees_isomorphic(current, self._head)
