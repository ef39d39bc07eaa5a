"""Content-addressed Merkle fingerprints for subtrees.

The serving layer (:mod:`repro.service`) needs a cheap way to recognize
that two snapshots — or two subtrees — are identical without running any
matching algorithm. Each node gets a digest of ``(label, value, child
digests)``, computed bottom-up in one post-order pass, so:

* equal **root** digests imply the trees are isomorphic (identical up to
  node identifiers, Section 3.1's equivalence) and the engine can
  short-circuit to an empty edit script;
* equal **subtree** digests mean isomorphic subtrees (compare
  :meth:`DigestIndex.get` of the two roots).

:func:`cached_digests` memoizes the digests on the tree's immutable arena
snapshot, so a copy sharing the snapshot shares them too, and a mutation,
which drops the snapshot, drops them with it.

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


def cached_digests(tree: Tree) -> DigestIndex:
    """Digests of *tree*, memoized on its arena snapshot when it has one.

    A tree without a fresh snapshot (built from nodes, or edited since) is
    digested anew on every call: see :func:`compute_digests`.
    """
    arena = tree.arena_snapshot()
    if arena is None:
        return compute_digests(tree)
    index: Optional[DigestIndex] = arena.digests
    if index is None:
        index = compute_digests(tree)
        arena.digests = index
    return index


def tree_fingerprint(tree: Tree) -> str:
    """Hex Merkle fingerprint of a whole tree (root digest)."""
    return cached_digests(tree).root_hex
