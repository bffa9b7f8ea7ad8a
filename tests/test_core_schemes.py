"""Unit tests for the directory entry formats (Dir_N, Dir_iB/NB/X/CV_r)."""

import random

import pytest

from repro.core import (
    CoarseVectorScheme,
    FullBitVectorScheme,
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
    LinkedListScheme,
    SupersetScheme,
)


class TestFullBitVector:
    def test_records_exact_sharers(self):
        entry = FullBitVectorScheme(32).make_entry()
        for n in (0, 5, 31):
            assert entry.record_sharer(n) == ()
        assert entry.invalidation_targets() == {0, 5, 31}
        assert entry.is_exact()

    def test_duplicate_add_is_idempotent(self):
        entry = FullBitVectorScheme(8).make_entry()
        entry.record_sharer(2)
        entry.record_sharer(2)
        assert entry.invalidation_targets() == {2}

    def test_exclude(self):
        entry = FullBitVectorScheme(8).make_entry()
        for n in range(4):
            entry.record_sharer(n)
        assert entry.invalidation_targets(exclude=[1, 2]) == {0, 3}

    def test_reset_and_empty(self):
        entry = FullBitVectorScheme(8).make_entry()
        assert entry.is_empty()
        entry.record_sharer(1)
        assert not entry.is_empty()
        entry.reset()
        assert entry.is_empty()

    def test_presence_bits_is_node_count(self):
        assert FullBitVectorScheme(32).presence_bits() == 32

    def test_node_range_checked(self):
        entry = FullBitVectorScheme(8).make_entry()
        with pytest.raises(ValueError):
            entry.record_sharer(8)
        with pytest.raises(ValueError):
            entry.record_sharer(-1)

    def test_might_share(self):
        entry = FullBitVectorScheme(8).make_entry()
        entry.record_sharer(5)
        assert entry.might_share(5)
        assert not entry.might_share(4)


class TestBroadcast:
    def test_pointer_mode_is_exact(self):
        entry = LimitedPointerBroadcastScheme(32, 3).make_entry()
        for n in (1, 2, 3):
            entry.record_sharer(n)
        assert entry.is_exact()
        assert entry.invalidation_targets() == {1, 2, 3}

    def test_overflow_sets_broadcast(self):
        entry = LimitedPointerBroadcastScheme(32, 3).make_entry()
        for n in (1, 2, 3, 4):
            assert entry.record_sharer(n) == ()
        assert not entry.is_exact()
        assert entry.invalidation_targets() == set(range(32))

    def test_broadcast_excludes(self):
        entry = LimitedPointerBroadcastScheme(8, 2).make_entry()
        for n in (1, 2, 3):
            entry.record_sharer(n)
        # home=0, writer=7 excluded -> N-2 invalidations
        assert len(entry.invalidation_targets(exclude=[0, 7])) == 6

    def test_reset_clears_broadcast(self):
        entry = LimitedPointerBroadcastScheme(8, 1).make_entry()
        entry.record_sharer(1)
        entry.record_sharer(2)
        entry.reset()
        assert entry.is_empty()
        assert entry.is_exact()

    def test_presence_bits(self):
        # 3 pointers x 5 bits for 32 nodes + broadcast bit
        assert LimitedPointerBroadcastScheme(32, 3).presence_bits() == 16


class TestNoBroadcast:
    def test_never_more_than_i_sharers(self):
        scheme = LimitedPointerNoBroadcastScheme(32, 3, seed=7)
        entry = scheme.make_entry()
        evicted = []
        for n in range(10):
            evicted.extend(entry.record_sharer(n))
        assert len(entry.invalidation_targets()) == 3
        assert len(evicted) == 7
        # entry set and evictions partition the inserted nodes
        assert set(evicted) | entry.invalidation_targets() == set(range(10))
        assert set(evicted) & entry.invalidation_targets() == set()

    def test_overflow_evicts_exactly_one(self):
        entry = LimitedPointerNoBroadcastScheme(32, 2, seed=1).make_entry()
        entry.record_sharer(1)
        entry.record_sharer(2)
        victims = entry.record_sharer(3)
        assert len(victims) == 1
        assert victims[0] in (1, 2)
        assert 3 in entry.invalidation_targets()

    def test_duplicate_add_no_eviction(self):
        entry = LimitedPointerNoBroadcastScheme(32, 2).make_entry()
        entry.record_sharer(1)
        entry.record_sharer(2)
        assert entry.record_sharer(1) == ()

    def test_deterministic_under_seed(self):
        def run(seed):
            entry = LimitedPointerNoBroadcastScheme(32, 2, seed=seed).make_entry()
            out = []
            for n in range(20):
                out.extend(entry.record_sharer(n))
            return out

        assert run(5) == run(5)

    def test_always_exact(self):
        entry = LimitedPointerNoBroadcastScheme(16, 2).make_entry()
        for n in range(16):
            entry.record_sharer(n)
        assert entry.is_exact()

    def test_presence_bits(self):
        assert LimitedPointerNoBroadcastScheme(32, 3).presence_bits() == 15


class TestSuperset:
    def test_pointer_mode_exact(self):
        entry = SupersetScheme(32, 2).make_entry()
        entry.record_sharer(3)
        entry.record_sharer(9)
        assert entry.is_exact()
        assert entry.invalidation_targets() == {3, 9}

    def test_composite_covers_all_sharers(self):
        entry = SupersetScheme(32, 2).make_entry()
        sharers = [1, 2, 4]
        for n in sharers:
            entry.record_sharer(n)
        assert not entry.is_exact()
        targets = entry.invalidation_targets()
        assert set(sharers) <= targets
        # 1|2|4 = 0b111 -> composite matches 0..7
        assert targets == set(range(8))

    def test_composite_grows_monotonically(self):
        entry = SupersetScheme(64, 2).make_entry()
        seen = set()
        prev = set()
        for n in [5, 10, 20, 40, 63]:
            entry.record_sharer(n)
            seen.add(n)
            targets = entry.invalidation_targets()
            assert seen <= targets
            assert prev <= targets  # never forgets coverage
            prev = targets

    def test_identical_sharers_stay_narrow(self):
        entry = SupersetScheme(32, 2).make_entry()
        for n in (6, 6, 6):
            entry.record_sharer(n)
        assert entry.invalidation_targets() == {6}

    def test_targets_clipped_to_machine(self):
        # composite may name nodes >= num_nodes; they must be clipped
        entry = SupersetScheme(10, 2).make_entry()
        for n in (1, 2, 8):
            entry.record_sharer(n)
        assert all(t < 10 for t in entry.invalidation_targets())

    def test_reset(self):
        entry = SupersetScheme(16, 2).make_entry()
        for n in (1, 2, 3):
            entry.record_sharer(n)
        entry.reset()
        assert entry.is_empty() and entry.is_exact()


class TestCoarseVector:
    def test_pointer_mode_before_overflow(self):
        entry = CoarseVectorScheme(32, 3, 2).make_entry()
        for n in (4, 8, 12):
            entry.record_sharer(n)
        assert entry.is_exact()
        assert entry.invalidation_targets() == {4, 8, 12}

    def test_overflow_switches_to_regions(self):
        entry = CoarseVectorScheme(32, 3, 2).make_entry()
        for n in (4, 8, 12, 20):
            entry.record_sharer(n)
        assert not entry.is_exact()
        # regions of size 2: {4,5}, {8,9}, {12,13}, {20,21}
        assert entry.invalidation_targets() == {4, 5, 8, 9, 12, 13, 20, 21}

    def test_coarse_covers_all_true_sharers(self):
        entry = CoarseVectorScheme(32, 3, 4).make_entry()
        sharers = [0, 7, 15, 16, 31]
        for n in sharers:
            entry.record_sharer(n)
        assert set(sharers) <= entry.invalidation_targets()

    def test_all_regions_set_equals_broadcast(self):
        scheme = CoarseVectorScheme(32, 3, 2)
        entry = scheme.make_entry()
        for n in range(32):
            entry.record_sharer(n)
        assert entry.invalidation_targets() == set(range(32))

    def test_region_granularity_produces_even_counts(self):
        # with r=2 and sharers all in distinct regions, targets = 2*sharers
        entry = CoarseVectorScheme(32, 3, 2).make_entry()
        for n in (0, 2, 4, 6):
            entry.record_sharer(n)
        assert len(entry.invalidation_targets()) == 8

    def test_region_size_one_is_full_vector(self):
        scheme = CoarseVectorScheme(8, 1, 1)
        entry = scheme.make_entry()
        for n in (0, 3, 5):
            entry.record_sharer(n)
        assert entry.invalidation_targets() == {0, 3, 5}
        assert entry.is_exact()

    def test_ragged_last_region(self):
        # 10 nodes, region size 4 -> last region holds only nodes 8, 9
        entry = CoarseVectorScheme(10, 1, 4).make_entry()
        entry.record_sharer(9)
        entry.record_sharer(0)  # overflow
        targets = entry.invalidation_targets()
        assert 8 in targets and 9 in targets
        assert all(t < 10 for t in targets)

    def test_for_bit_budget(self):
        # 32 nodes, ~16 bits: 3 pointers of 5 bits; 15 vector bits ->
        # regions of ceil(32/15) = 3
        scheme = CoarseVectorScheme.for_bit_budget(32, 16)
        assert scheme.num_pointers == 3
        assert scheme.region_size == 3

    def test_name(self):
        assert CoarseVectorScheme(32, 3, 2).name == "Dir3CV2"


class TestLinkedList:
    def test_chain_order_head_first(self):
        entry = LinkedListScheme(16).make_entry()
        for n in (1, 2, 3):
            entry.record_sharer(n)
        assert entry.invalidation_chain() == (3, 2, 1)

    def test_reread_moves_to_head(self):
        entry = LinkedListScheme(16).make_entry()
        for n in (1, 2, 3):
            entry.record_sharer(n)
        entry.record_sharer(1)
        assert entry.invalidation_chain() == (1, 3, 2)

    def test_serial_flag(self):
        assert LinkedListScheme(16).serial_invalidations is True

    def test_memory_side_cost_is_two_pointers(self):
        assert LinkedListScheme(16).presence_bits() == 8  # head+tail, 4b each


class TestMaskScan:
    """``mask_nodes`` picks a scan by density; both must name the set bits."""

    @pytest.mark.parametrize("num_nodes", [32, 256])
    def test_both_scans_equal_the_set_bits(self, num_nodes):
        from repro.core.base import mask_nodes, nodes_mask

        rng = random.Random(num_nodes)
        # from one target (the low-bit peel) to a broadcast (the bin() walk)
        for count in (1, 2, 3, num_nodes // 8, num_nodes // 2, num_nodes - 1, num_nodes):
            for _ in range(50):
                nodes = sorted(rng.sample(range(num_nodes), count))
                assert mask_nodes(nodes_mask(nodes)) == nodes
        assert mask_nodes(0) == []
