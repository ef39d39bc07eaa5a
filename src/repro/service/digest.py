"""Content-addressed Merkle fingerprints of tree snapshots.

The serving layer (:mod:`repro.service`) needs a cheap way to recognize
that two snapshots are identical without running any matching algorithm.
Each node gets a digest of ``(label, value, child digests)``, computed
bottom-up in one post-order pass, and the root's digest fingerprints the
tree: equal root digests imply the trees are isomorphic (identical up to
node identifiers, Section 3.1's equivalence) and the engine can
short-circuit to an empty edit script.

:func:`cached_digests` memoizes the root digest on the tree's immutable
arena snapshot, so a copy sharing the snapshot shares it too, and a
mutation, which drops the snapshot, drops it with it. Node labels and
values are read-only outside the tree, so no write can slip past that.

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
from typing import Any, List, Optional

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
    """The Merkle digest of one tree snapshot."""

    __slots__ = ("root",)

    def __init__(self, root: bytes) -> None:
        self.root = root

    @property
    def root_hex(self) -> str:
        """Hex fingerprint of the whole tree."""
        return self.root.hex()


def compute_digests(tree: Tree) -> DigestIndex:
    """Compute the tree's Merkle digest over its arena arrays, unmemoized.

    One reverse-preorder pass (children precede parents) hashes every
    subtree. Parsed, copied and checked-out trees hand over their cached
    snapshot, so no node graph is built.
    """
    arena = tree.to_arena()
    n = arena.n
    if n == 0:
        return DigestIndex(EMPTY_TREE_DIGEST)
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
    return DigestIndex(digests[0])


def cached_digests(tree: Tree) -> DigestIndex:
    """The digest of *tree*, memoized on its arena snapshot."""
    arena = tree.to_arena()
    index: Optional[DigestIndex] = arena.digests
    if index is None:
        index = arena.digests = compute_digests(tree)
    return index


def tree_fingerprint(tree: Tree) -> str:
    """Hex Merkle fingerprint of a whole tree (root digest)."""
    return cached_digests(tree).root_hex
