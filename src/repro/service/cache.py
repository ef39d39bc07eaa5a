"""Digest-keyed result cache for the diff engine.

Edit scripts reference concrete node identifiers, but the cache is keyed by
content digests — and two isomorphic snapshots generally carry *different*
identifiers. Caching raw scripts would therefore hand back operations that
do not apply to the caller's trees. The fix is a canonical identifier
space:

* every node of ``T1`` becomes ``o<k>`` (its preorder rank),
* the dummy root (when EditScript wrapped the pair) becomes ``d``,
* every freshly inserted node becomes ``n<j>`` in order of appearance.

For ordered trees the isomorphism is positional (the k-th preorder node of
one tree corresponds to the k-th of the other — see
:func:`repro.core.isomorphism.isomorphism_mapping`), so a canonicalized
script re-instantiates exactly onto any tree isomorphic to the one it was
computed from. That makes digest-keyed sharing sound.

:class:`ScriptCache` is a thread-safe bounded LRU over these canonical
payloads with hit/miss/eviction accounting and optional JSON spill-to-disk
for warm restarts.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.errors import ReproError
from ..core.tree import Tree
from ..editscript.script import EditScript

#: Cache key: (old root digest, new root digest, configuration key).
CacheKey = Tuple[str, str, str]


class UncacheableScriptError(ReproError):
    """Raised when a script references identifiers outside T1's space."""


# ---------------------------------------------------------------------------
# Canonical script payloads
# ---------------------------------------------------------------------------
def canonicalize_script(
    script: EditScript,
    t1: Tree,
    wrapped: bool = False,
    dummy_t1_id: Any = None,
    cost: Optional[float] = None,
) -> Dict[str, Any]:
    """Serialize *script* with identifiers rewritten to the canonical space.

    The returned payload is JSON-friendly and independent of the concrete
    node identifiers of the pair it was computed from. Preorder ranks are
    read from *t1*'s arena, so no node graph is built.
    """
    pos_of = t1.to_arena().pos_of
    # Canonical names of the identifiers outside T1: dummy root, inserts.
    mapping: Dict[Any, str] = {}
    if wrapped and dummy_t1_id is not None:
        mapping[dummy_t1_id] = "d"

    def canonical(node_id: Any) -> Optional[str]:
        rank = pos_of.get(node_id)
        return mapping.get(node_id) if rank is None else f"o{rank}"

    fresh = 0
    records: List[Dict[str, Any]] = []
    for record in script.to_dicts():
        record = dict(record)
        parent_id = record.get("parent_id")
        if parent_id is not None:
            name = canonical(parent_id)
            if name is None:
                raise UncacheableScriptError(
                    f"script references unknown parent {parent_id!r}"
                )
            record["parent_id"] = name
        node_id = record["node_id"]
        name = canonical(node_id)
        if name is None:
            if record["op"] != "insert":
                raise UncacheableScriptError(
                    f"script references unknown node {node_id!r}"
                )
            name = mapping[node_id] = f"n{fresh}"
            fresh += 1
        record["node_id"] = name
        records.append(record)
    return {
        "records": records,
        "wrapped": bool(wrapped),
        "cost": script.cost() if cost is None else cost,
        "summary": script.summary(),
    }


def _preorder_rank(canonical: Any, n: int) -> Optional[int]:
    """``k`` for a canonical name ``o<k>`` with ``0 <= k < n``, else ``None``."""
    if isinstance(canonical, str) and canonical[:1] == "o" and canonical[1:].isdecimal():
        rank = int(canonical[1:])
        if rank < n and canonical == f"o{rank}":
            return rank
    return None


def instantiate_script(
    payload: Dict[str, Any], t1: Tree
) -> Tuple[EditScript, bool, Any]:
    """Rebind a canonical payload onto *t1*'s identifier space.

    Returns ``(script, wrapped, dummy_id)``; when ``wrapped`` is true the
    script replays on *t1* as ``script.apply_to(t1, dummy_id=dummy_id)``
    (see :meth:`repro.editscript.script.EditScript.apply_to`). Only the
    names the payload mentions are bound: ``o<k>`` reads ``node_ids[k]``
    of *t1*'s arena, so a cache hit builds no node graph.
    """
    arena = t1.to_arena()
    node_ids, pos_of = arena.node_ids, arena.pos_of
    reverse: Dict[str, Any] = {}
    minted: Set[str] = set()

    def fresh_id(canonical: str) -> Any:
        candidate = f"svc:{canonical}"
        while candidate in pos_of or candidate in minted:
            candidate += "_"
        minted.add(candidate)
        return candidate

    wrapped = bool(payload.get("wrapped"))
    dummy_id: Any = None
    if wrapped:
        dummy_id = fresh_id("d")
        reverse["d"] = dummy_id

    records: List[Dict[str, Any]] = []
    for record in payload["records"]:
        record = dict(record)
        for field in ("node_id", "parent_id"):
            canonical = record.get(field)
            if canonical is None:
                continue
            if canonical not in reverse:
                rank = _preorder_rank(canonical, arena.n)
                reverse[canonical] = fresh_id(canonical) if rank is None else node_ids[rank]
            record[field] = reverse[canonical]
        records.append(record)
    return EditScript.from_dicts(records), wrapped, dummy_id


# ---------------------------------------------------------------------------
# The LRU itself
# ---------------------------------------------------------------------------
class ScriptCache:
    """Bounded, thread-safe LRU of canonical script payloads.

    ``faults`` optionally takes an armed
    :class:`~repro.simtest.faults.FaultInjector`; a due
    ``corrupt_cache_entry`` fault makes the next hit behave as if the
    stored payload failed integrity checking — the entry is dropped and
    the lookup misses, so the caller recomputes (the cache self-heals
    rather than serving a poisoned script). ``None`` is a no-op.
    """

    def __init__(self, capacity: int = 256, faults: Optional[Any] = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._faults = faults
        self._entries: "OrderedDict[CacheKey, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0
        self.corruptions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """Return the payload for *key* (refreshing recency) or ``None``."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            if self._faults is not None:
                fault = self._faults.fire("corrupt_cache_entry", target=key[0])
                if fault is not None:
                    # Poisoned entry: drop it and miss, forcing a recompute.
                    del self._entries[key]
                    self.corruptions += 1
                    self.misses += 1
                    return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: CacheKey, payload: Dict[str, Any]) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = payload
            self.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction accounting plus the current size."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "puts": self.puts,
                "corruptions": self.corruptions,
            }

    # ------------------------------------------------------------------
    # Spill-to-disk (warm restarts)
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Write all entries to *path* as JSON; return the entry count."""
        with self._lock:
            entries = [
                {"key": list(key), "payload": payload}
                for key, payload in self._entries.items()
            ]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "entries": entries}, handle)
        os.replace(tmp, path)
        return len(entries)

    def warm(self, path: str) -> int:
        """Load entries spilled by :meth:`save`; return how many were loaded.

        Missing files are not an error (a cold start simply stays cold).
        Entries are loaded in LRU order, so recency survives the restart;
        loading does not perturb the hit/miss counters.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return 0
        loaded = 0
        with self._lock:
            for entry in data.get("entries", []):
                key = tuple(entry["key"])
                if len(key) != 3:
                    continue
                self._entries[key] = entry["payload"]
                self._entries.move_to_end(key)
                loaded += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return loaded
