"""Unit tests for the consistent-hash ring (repro.serve.ring).

The properties the cluster depends on: deterministic placement, distinct
replicas, bounded load skew, and minimal key movement when a shard
leaves the ring.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.ring import DEFAULT_VNODES, HashRing

SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3", "shard-4"]


def _keys(count):
    return [hashlib.sha256(f"key:{i}".encode()).hexdigest()
            for i in range(count)]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            HashRing(["a", "b", "a"])

    def test_rejects_nonpositive_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_len_is_shard_count(self):
        assert len(HashRing(SHARDS)) == len(SHARDS)

    def test_point_count(self):
        ring = HashRing(SHARDS, vnodes=16)
        assert len(ring._points) == 16 * len(SHARDS)


class TestPlacement:
    def test_deterministic(self):
        a, b = HashRing(SHARDS), HashRing(SHARDS)
        for key in _keys(100):
            assert a.primary_for(key) == b.primary_for(key)
            assert a.replicas_for(key, 3) == b.replicas_for(key, 3)

    def test_replicas_distinct(self):
        ring = HashRing(SHARDS)
        for key in _keys(200):
            replicas = ring.replicas_for(key, 3)
            assert len(replicas) == len(set(replicas)) == 3

    @given(vnodes=st.integers(min_value=1, max_value=DEFAULT_VNODES))
    @settings(max_examples=25, deadline=None)
    def test_replicas_never_collapse_below_r(self, vnodes):
        """R-way replication holds at any vnode count: replica sets are
        R *distinct* shards even when a shard has a single ring point."""
        ring = HashRing(SHARDS, vnodes=vnodes)
        for replication in (2, 3, 5):
            for key in _keys(64):
                replicas = ring.replicas_for(key, replication)
                assert len(replicas) == replication
                assert len(set(replicas)) == replication

    def test_primary_is_first_replica(self):
        ring = HashRing(SHARDS)
        for key in _keys(50):
            assert ring.primary_for(key) == ring.replicas_for(key, 3)[0]

    def test_count_clamped_to_population(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.replicas_for("k", 5)) == ["a", "b"]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(SHARDS).replicas_for("k", 0)

    def test_insertion_order_irrelevant(self):
        forward = HashRing(SHARDS)
        backward = HashRing(list(reversed(SHARDS)))
        for key in _keys(100):
            assert forward.replicas_for(key, 2) == \
                backward.replicas_for(key, 2)


class TestLoadAndMovement:
    def test_load_split_is_roughly_uniform(self):
        split = HashRing(SHARDS, vnodes=DEFAULT_VNODES).load_split()
        assert abs(sum(split.values()) - 1.0) < 1e-9
        for shard, fraction in split.items():
            # 5 shards -> ideal 0.20; vnodes keep skew well bounded
            assert 0.08 < fraction < 0.36, (shard, fraction)

    def test_without_removes_only_that_shards_keys(self):
        ring = HashRing(SHARDS)
        smaller = ring.without("shard-2")
        assert "shard-2" not in smaller.shard_ids
        moved = 0
        keys = _keys(500)
        for key in keys:
            before = ring.primary_for(key)
            after = smaller.primary_for(key)
            if before == "shard-2":
                assert after != "shard-2"
            elif before != after:
                moved += 1
        # consistent hashing: keys not owned by the removed shard stay put
        assert moved == 0

    def test_without_keeps_survivors_placement(self):
        """Removing a shard only drops it from replica lists: every
        key's surviving replicas keep their order, and keys it did not
        hold keep their whole replica set."""
        ring = HashRing(SHARDS)
        for removed in SHARDS:
            smaller = ring.without(removed)
            for key in _keys(200):
                before = ring.replicas_for(key, 3)
                after = smaller.replicas_for(key, 3)
                survivors = [shard for shard in before if shard != removed]
                assert after[:len(survivors)] == survivors
                if removed not in before:
                    assert after == before

    def test_survivor_replica_set_still_covers_key(self):
        ring = HashRing(SHARDS)
        for key in _keys(100):
            replicas = ring.replicas_for(key, 2)
            # kill the primary: the secondary must still be a placement
            # replica in the survivor topology's view of the key
            survivor = ring.without(replicas[0])
            assert survivor.primary_for(key) == replicas[1]
