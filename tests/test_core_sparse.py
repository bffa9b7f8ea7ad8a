"""Unit tests for directory stores (full map + sparse) and replacement."""

import pytest

from repro.core import (
    FullBitVectorScheme,
    FullMapDirectory,
    SparseDirectory,
    LRAPolicy,
    LRUPolicy,
    RandomPolicy,
    make_policy,
)
from repro.core.sparse import sparse_entries_for_size_factor


def make_sparse(entries=8, assoc=2, policy="lru", nodes=8):
    return SparseDirectory(
        FullBitVectorScheme(nodes), entries, assoc, policy=policy, seed=3
    )


def scanned_occupancy(store):
    """What the O(1) ``occupancy()`` counter must equal: a walk of the lines."""
    return sum(1 for _ in store.lines())


class TestFullMapDirectory:
    def test_lookup_before_allocate_is_none(self):
        d = FullMapDirectory(FullBitVectorScheme(8))
        assert d.lookup(100) is None

    def test_allocate_never_evicts(self):
        d = FullMapDirectory(FullBitVectorScheme(8))
        for block in range(1000):
            line, evictions = d.get_or_allocate(block)
            assert evictions == []
            line.entry.record_sharer(block % 8)
        assert d.capacity_entries() is None

    def test_same_line_returned(self):
        d = FullMapDirectory(FullBitVectorScheme(8))
        line1, _ = d.get_or_allocate(42)
        line1.entry.record_sharer(3)
        line2, _ = d.get_or_allocate(42)
        assert line2.entry.invalidation_targets() == {3}

    def test_release_drops_only_empty_lines(self):
        d = FullMapDirectory(FullBitVectorScheme(8))
        line, _ = d.get_or_allocate(7)
        line.entry.record_sharer(1)
        d.release(7)
        assert d.lookup(7) is not None
        line.entry.reset()
        d.release(7)
        assert d.lookup(7) is None


class TestSparseDirectory:
    def test_fills_empty_ways_before_evicting(self):
        d = make_sparse(entries=8, assoc=2)
        # blocks 0 and 4 map to the same set (4 sets)
        _, ev0 = d.get_or_allocate(0)
        _, ev1 = d.get_or_allocate(4)
        assert ev0 == [] and ev1 == []
        assert d.occupancy() == scanned_occupancy(d) == 2

    def test_conflict_evicts_victim_with_targets(self):
        d = make_sparse(entries=8, assoc=2, policy="lru")
        line0, _ = d.get_or_allocate(0)
        line0.entry.record_sharer(1)
        line0.entry.record_sharer(2)
        d.get_or_allocate(4)
        _, evictions = d.get_or_allocate(8)  # same set, set is full
        assert len(evictions) == 1
        ev = evictions[0]
        assert ev.block == 0  # LRU victim
        assert set(ev.targets) == {1, 2}
        assert not ev.was_dirty

    def test_dirty_eviction_targets_owner(self):
        d = make_sparse(entries=8, assoc=2)
        line, _ = d.get_or_allocate(0)
        line.dirty = True
        line.owner = 5
        d.get_or_allocate(4)
        _, evictions = d.get_or_allocate(8)
        assert evictions[0].was_dirty
        assert evictions[0].targets == (5,)
        assert evictions[0].owner == 5

    def test_evicted_block_is_gone(self):
        d = make_sparse(entries=8, assoc=2)
        d.get_or_allocate(0)
        d.get_or_allocate(4)
        d.get_or_allocate(8)
        assert d.lookup(0) is None or d.lookup(4) is None or d.lookup(8) is None
        assert d.occupancy() == scanned_occupancy(d) == 2

    def test_release_frees_empty_slot(self):
        d = make_sparse(entries=8, assoc=2)
        line, _ = d.get_or_allocate(0)
        line.entry.record_sharer(1)
        d.release(0)  # not empty: kept
        assert d.lookup(0) is not None
        line.reset()
        d.release(0)
        assert d.lookup(0) is None
        assert d.occupancy() == scanned_occupancy(d) == 0

    def test_direct_mapped(self):
        d = make_sparse(entries=4, assoc=1)
        d.get_or_allocate(0)
        _, evictions = d.get_or_allocate(4)
        assert len(evictions) == 1 and evictions[0].block == 0

    def test_lru_policy_protects_recently_touched(self):
        d = make_sparse(entries=8, assoc=2, policy="lru")
        d.get_or_allocate(0)
        d.get_or_allocate(4)
        d.lookup(0)  # touch 0: now 4 is LRU
        _, evictions = d.get_or_allocate(8)
        assert evictions[0].block == 4

    def test_lra_policy_ignores_touches(self):
        d = make_sparse(entries=8, assoc=2, policy="lra")
        d.get_or_allocate(0)
        d.get_or_allocate(4)
        d.lookup(0)  # touch should NOT save 0 under LRA
        _, evictions = d.get_or_allocate(8)
        assert evictions[0].block == 0

    def test_entries_must_divide_by_assoc(self):
        with pytest.raises(ValueError):
            make_sparse(entries=6, assoc=4)

    def test_tag_mapping_roundtrip(self):
        d = make_sparse(entries=16, assoc=4)
        for block in (0, 3, 17, 4091):
            s = d.set_index(block)
            t = d.tag_of(block)
            assert t * d.num_sets + s == block

    def test_replacement_counter(self):
        d = make_sparse(entries=4, assoc=1)
        for block in range(8):
            d.get_or_allocate(block % 8)
        assert d.replacements == 4  # blocks 4..7 each evicted one


class TestReplacementPolicies:
    def test_lru_orders_by_access(self):
        p = LRUPolicy(1, 4)
        for way in range(4):
            p.allocate(0, way)
        p.touch(0, 0)
        assert p.choose_victim(0, range(4)) == 1

    def test_lra_orders_by_allocation(self):
        p = LRAPolicy(1, 4)
        for way in (2, 0, 1, 3):
            p.allocate(0, way)
        p.touch(0, 2)  # irrelevant for LRA
        assert p.choose_victim(0, range(4)) == 2

    def test_random_is_deterministic_per_seed(self):
        p1 = RandomPolicy(1, 8, seed=9)
        p2 = RandomPolicy(1, 8, seed=9)
        picks1 = [p1.choose_victim(0, range(8)) for _ in range(20)]
        picks2 = [p2.choose_victim(0, range(8)) for _ in range(20)]
        assert picks1 == picks2

    def test_random_covers_ways(self):
        p = RandomPolicy(1, 4, seed=0)
        picks = {p.choose_victim(0, range(4)) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_make_policy_names(self):
        assert isinstance(make_policy("lru", 2, 2), LRUPolicy)
        assert isinstance(make_policy("LRA", 2, 2), LRAPolicy)
        assert isinstance(make_policy("rand", 2, 2), RandomPolicy)
        with pytest.raises(ValueError):
            make_policy("fifo", 2, 2)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LRUPolicy(0, 4)


class TestSizeFactorHelper:
    def test_basic(self):
        assert sparse_entries_for_size_factor(1024, 1, 4) == 1024
        assert sparse_entries_for_size_factor(1024, 2, 4) == 2048

    def test_rounds_up_to_assoc(self):
        assert sparse_entries_for_size_factor(10, 1, 4) == 12

    def test_minimum_one_set(self):
        assert sparse_entries_for_size_factor(1, 1, 4) == 4
