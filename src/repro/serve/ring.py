"""Consistent-hash ring mapping container ids onto shards.

The router places every shard at a number of pseudo-random points on a
64-bit ring (SHA-256 of ``"shard_id#vnode"``); a key routes to the first
shard clockwise of its own hash point, and its R replicas are the first
R *distinct* shards clockwise.  Two properties matter here:

* **Minimal movement** — removing a shard re-routes only the keys that
  lived on it; everything else keeps its placement, so a failover
  doesn't invalidate the whole fleet's cache.
* **Replica spread** — replicas are distinct shards by construction, so
  R-way replication survives R-1 shard losses for every key.

Virtual nodes smooth the load split: with 64 vnodes per shard, the
largest shard's share of a uniform keyspace stays within a few percent
of ``1/N``.  Container ids are SHA-256 hex, so the keyspace *is*
uniform.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

#: vnodes per shard; 64 keeps worst-case imbalance low at test scale
DEFAULT_VNODES = 64


def _point(key: str) -> int:
    """A key's 64-bit position on the ring."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Immutable-by-convention consistent-hash ring over shard ids."""

    def __init__(self, shard_ids: Sequence[str],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if not shard_ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids: {list(shard_ids)}")
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.shard_ids: Tuple[str, ...] = tuple(shard_ids)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for shard_id in self.shard_ids:
            for vnode in range(vnodes):
                points.append((_point(f"{shard_id}#{vnode}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [owner for _, owner in points]

    def __len__(self) -> int:
        return len(self.shard_ids)

    def primary_for(self, key: str) -> str:
        """The shard owning ``key`` (first replica)."""
        return self.replicas_for(key, 1)[0]

    def replicas_for(self, key: str, count: int) -> List[str]:
        """The first ``count`` distinct shards clockwise of ``key``.

        ``count`` is clamped to the shard population — asking for 3-way
        replication on a 2-shard ring yields both shards, not an error,
        so a cluster can be grown under a fixed replication target.
        """
        if count <= 0:
            raise ValueError(f"replica count must be positive, got {count}")
        count = min(count, len(self.shard_ids))
        start = bisect.bisect_right(self._points, _point(key))
        replicas: List[str] = []
        seen = set()
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in seen:
                seen.add(owner)
                replicas.append(owner)
                if len(replicas) == count:
                    break
        return replicas

    def without(self, shard_id: str) -> "HashRing":
        """A new ring with ``shard_id`` removed (failover topology)."""
        remaining = [s for s in self.shard_ids if s != shard_id]
        return HashRing(remaining, vnodes=self.vnodes)

    def load_split(self, samples: int = 4096) -> Dict[str, float]:
        """Fraction of a uniform keyspace each shard owns (diagnostics)."""
        counts: Dict[str, int] = {shard: 0 for shard in self.shard_ids}
        for index in range(samples):
            counts[self.primary_for(f"sample:{index}")] += 1
        return {shard: count / samples for shard, count in counts.items()}


__all__ = ["DEFAULT_VNODES", "HashRing"]
