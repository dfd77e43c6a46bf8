"""Consistent-hash routing of root OIDs onto shards.

The fabric partitions the database by *root* OID: a complex object's
private components always live with their root, so hashing the root is
enough to place (and later find) the whole tree.  OIDs are logical and
assigned at generation time — before layout — which is what makes
pre-layout partitioning possible (``repro.storage.oid`` footnote 1:
physical placement is a separate mapping).

The ring is the classic virtual-node construction: every shard owns
``vnodes`` pseudo-random tokens on a 64-bit circle, and an OID belongs
to the shard owning the first token clockwise of its digest.  Virtual
nodes smooth the per-shard key share, and — the property the tests
pin — growing the ring from N to N+1 shards moves only roughly a
``1/(N+1)`` fraction of keys, instead of rehashing almost everything
the way ``hash(oid) % N`` would.

Hashing is :func:`hashlib.blake2b` over the OID's stable 10-byte
encoding, so placement is deterministic across runs, platforms and
Python versions (never the process-seeded builtin ``hash``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Tuple

from repro.errors import FabricError
from repro.storage.oid import Oid

#: Virtual nodes per shard on the hash ring.
VNODES = 64
#: Prefix of every ring token's hash input.
RING_SALT = b"repro.fabric"


def _digest(data: bytes) -> int:
    """A stable 64-bit hash of ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class ConsistentHashRouter:
    """Maps OIDs to one of ``n_shards`` via a virtual-node hash ring."""

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise FabricError("n_shards must be positive")
        self.n_shards = n_shards
        ring: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(VNODES):
                token = _digest(b"%s:%d:%d" % (RING_SALT, shard, vnode))
                ring.append((token, shard))
        ring.sort()
        self._tokens = [token for token, _shard in ring]
        self._owners = [shard for _token, shard in ring]

    def shard_of(self, oid: Oid) -> int:
        """The shard owning ``oid`` (first token clockwise of its hash)."""
        point = _digest(oid.encode())
        index = bisect.bisect_right(self._tokens, point)
        if index == len(self._tokens):
            index = 0  # wrap past the last token
        return self._owners[index]
