"""Content-addressed Merkle fingerprints for subtrees.

The serving layer (:mod:`repro.service`) needs a cheap way to recognize
that two snapshots — or two subtrees — are identical without running any
matching algorithm. Each node gets a digest of ``(label, value, child
digests)``, computed bottom-up in one post-order pass, so:

* equal **root** digests imply the trees are isomorphic (identical up to
  node identifiers, Section 3.1's equivalence) and the engine can
  short-circuit to an empty edit script;
* equal **subtree** digests give an O(1) ``equal``-subtree fast path that
  matching layers can consult instead of walking both subtrees.

The pass reads the tree's arena arrays. Each node is one ``blake2b``
call over its length-prefixed label, its length-prefixed value encoding
and its children's digests, in order. Label and value encodings are made
once per interned pool entry; a string value is encoded by
:func:`json.encoder.encode_basestring`, byte for byte what ``json.dumps``
emits, without a ``JSONEncoder`` per value.

The converse direction is exact for the value types the library uses in
practice (strings, numbers of one type, ``None``): the encoding is
injective, so isomorphic trees always hash equal. The one caveat is
cross-type equality — Python says ``1 == 1.0`` but the digests differ —
which only matters if a corpus mixes numeric types for the same logical
value.
"""

from __future__ import annotations

import hashlib
import json
import struct
from json.encoder import encode_basestring
from typing import Any, Dict, List, Optional

from ..core.arena import flatten_root
from ..core.tree import Tree

#: Digest width in bytes. 16 bytes (128 bits) keeps indexes small while
#: making accidental collisions on realistic corpora vanishingly unlikely.
DIGEST_SIZE = 16

#: Digest assigned to the empty tree.
EMPTY_TREE_DIGEST = hashlib.blake2b(b"empty-tree", digest_size=DIGEST_SIZE).digest()

_LEN = struct.Struct(">I")


def _encode_field(data: bytes) -> bytes:
    """Length-prefix a field so concatenated fields cannot be ambiguous."""
    return _LEN.pack(len(data)) + data


def _encode_value(value: Any) -> bytes:
    """Deterministic byte encoding of a node value.

    JSON with sorted keys covers the library's interchange types; anything
    non-JSON falls back to ``repr`` with a distinct tag so the two spaces
    cannot collide. Strings take the encoder's own string path directly.
    """
    if value is None:
        return b"\x00"
    if isinstance(value, str):
        return b"j" + encode_basestring(value).encode("utf-8", "surrogatepass")
    try:
        return b"j" + json.dumps(
            value, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        ).encode("utf-8", "surrogatepass")
    except (TypeError, ValueError):
        return b"r" + repr(value).encode("utf-8", "surrogatepass")


class DigestIndex:
    """Per-subtree Merkle digests for one tree, keyed by node identifier."""

    __slots__ = ("by_id", "root")

    def __init__(self, by_id: Dict[Any, bytes], root: bytes) -> None:
        self.by_id = by_id
        self.root = root

    @property
    def root_hex(self) -> str:
        """Hex fingerprint of the whole tree."""
        return self.root.hex()

    def get(self, node_id: Any) -> bytes:
        """Digest of the subtree rooted at *node_id*."""
        return self.by_id[node_id]

    def subtrees_equal(self, node_id: Any, other: "DigestIndex", other_id: Any) -> bool:
        """O(1) isomorphism check between two indexed subtrees.

        This is the ``equal``-subtree fast path: when it returns True the
        subtrees are identical up to node identifiers, so a matcher may
        pair them wholesale without comparing leaves.
        """
        return self.by_id[node_id] == other.by_id[other_id]

    def __len__(self) -> int:
        return len(self.by_id)


def compute_digests(tree: Tree) -> DigestIndex:
    """Compute per-subtree digests over the tree's arena arrays.

    One reverse-preorder pass (children precede parents). Parsed, copied
    and checked-out trees hand over their cached snapshot, so no node
    graph is built. Any other tree is flattened into a throwaway arena:
    caching it would outlive direct writes to node attributes.
    """
    arena = tree.arena_snapshot()
    if arena is None:
        arena = flatten_root(tree.root)[0]
    n = arena.n
    if n == 0:
        return DigestIndex({}, EMPTY_TREE_DIGEST)
    label_enc = [
        _encode_field(str(label).encode("utf-8", "surrogatepass"))
        for label in arena.label_pool
    ]
    value_enc = [_encode_field(_encode_value(v)) for v in arena.value_pool]
    labels, values = arena.labels, arena.values
    first_child, next_sibling = arena.first_child, arena.next_sibling
    blake2b = hashlib.blake2b
    digests: List[bytes] = [b""] * n
    for pos in range(n - 1, -1, -1):
        data = label_enc[labels[pos]] + value_enc[values[pos]]
        child = first_child[pos]
        if child >= 0:
            parts = [data]
            while child >= 0:  # children sit after pos: already hashed
                parts.append(digests[child])
                child = next_sibling[child]
            data = b"".join(parts)
        digests[pos] = blake2b(data, digest_size=DIGEST_SIZE).digest()
    by_id = dict(zip(arena.node_ids, digests))
    return DigestIndex(by_id, digests[0])


def attach_digests(tree: Tree) -> DigestIndex:
    """Compute digests and attach the index to the tree as ``tree.digests``.

    The attachment is a plain attribute: any later mutation of the tree
    silently invalidates it, so callers on the mutation path should either
    recompute or use :func:`compute_digests` directly. Serving-layer code
    treats snapshots as immutable, where attachment is safe and lets the
    index be computed once per snapshot.
    """
    index = compute_digests(tree)
    tree.digests = index  # type: ignore[attr-defined]
    return index


def cached_digests(tree: Tree) -> DigestIndex:
    """Return ``tree.digests`` when present, else compute (without attaching)."""
    index: Optional[DigestIndex] = getattr(tree, "digests", None)
    if isinstance(index, DigestIndex):
        return index
    return compute_digests(tree)


def tree_fingerprint(tree: Tree) -> str:
    """Hex Merkle fingerprint of a whole tree (root digest)."""
    return cached_digests(tree).root_hex
