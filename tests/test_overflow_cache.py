"""Wide-entry overflow cache (`Dir_iOF_c`, the §7 extension) unit tests."""

import pytest

from repro.core import OverflowCacheScheme, SparseDirectory


def fill(entry, nodes):
    for n in nodes:
        entry.record_sharer(n)


class TestPointerMode:
    def test_exact_below_overflow(self):
        entry = OverflowCacheScheme(32, 3, 8).make_entry()
        fill(entry, [1, 2, 3])
        assert entry.is_exact()
        assert entry.invalidation_targets() == {1, 2, 3}

    def test_remove_in_pointer_mode(self):
        entry = OverflowCacheScheme(32, 3, 8).make_entry()
        fill(entry, [1, 2])
        entry.remove_sharer(1)
        assert entry.invalidation_targets() == {2}


class TestWideMode:
    def test_overflow_moves_to_wide_store_exactly(self):
        scheme = OverflowCacheScheme(32, 2, 8)
        entry = scheme.make_entry()
        fill(entry, [1, 2, 3, 17, 31])
        assert entry.is_exact()  # wide entries are full bit vectors
        assert entry.invalidation_targets() == {1, 2, 3, 17, 31}
        assert len(scheme.wide_store) == 1

    def test_remove_in_wide_mode(self):
        scheme = OverflowCacheScheme(32, 2, 8)
        entry = scheme.make_entry()
        fill(entry, [1, 2, 3, 4])
        entry.remove_sharer(3)
        assert entry.invalidation_targets() == {1, 2, 4}

    def test_reset_frees_wide_slot(self):
        scheme = OverflowCacheScheme(32, 2, 8)
        entry = scheme.make_entry()
        fill(entry, [1, 2, 3])
        entry.reset()
        assert len(scheme.wide_store) == 0
        assert entry.is_empty() and entry.is_exact()


class TestStarvation:
    def test_eviction_degrades_victim_to_broadcast(self):
        scheme = OverflowCacheScheme(32, 1, overflow_entries=1)
        a = scheme.make_entry()
        b = scheme.make_entry()
        fill(a, [1, 2])  # a overflows into the only wide slot
        fill(b, [3, 4])  # b overflows, evicting a's wide entry
        assert not a.is_exact()
        assert a.invalidation_targets() == set(range(32))  # broadcast
        assert b.is_exact()
        assert b.invalidation_targets() == {3, 4}

    def test_lru_protects_recently_used_wide_entries(self):
        scheme = OverflowCacheScheme(32, 1, overflow_entries=2)
        a = scheme.make_entry()
        b = scheme.make_entry()
        c = scheme.make_entry()
        fill(a, [1, 2])
        fill(b, [3, 4])
        a.record_sharer(5)  # touch a: b becomes LRU
        fill(c, [6, 7])  # evicts b
        assert a.is_exact()
        assert not b.is_exact()
        assert c.is_exact()

    def test_broadcast_entry_stays_conservative(self):
        scheme = OverflowCacheScheme(8, 1, overflow_entries=1)
        a = scheme.make_entry()
        b = scheme.make_entry()
        fill(a, [1, 2])
        fill(b, [3, 4])  # a degraded to broadcast
        a.record_sharer(5)  # absorbed silently
        a.remove_sharer(1)  # cannot narrow a broadcast
        assert a.invalidation_targets() == set(range(8))
        assert not a.is_empty()


class TestLifetime:
    def test_a_replaced_sparse_line_frees_its_wide_slot(self):
        scheme = OverflowCacheScheme(8, 1, overflow_entries=4)
        store = SparseDirectory(scheme, 1, 1)  # one way: block 1 replaces block 0
        line, _ = store.get_or_allocate(0)
        fill(line.entry, [1, 2, 3])
        assert len(scheme.wide_store) == 1
        _, evictions = store.get_or_allocate(1)
        assert [ev.targets for ev in evictions] == [(1, 2, 3)]  # taken first
        assert len(scheme.wide_store) == 0

    def test_registry_holds_only_entries_with_a_wide_slot(self):
        scheme = OverflowCacheScheme(8, 1, overflow_entries=2)
        entries = [scheme.make_entry() for _ in range(50)]
        for entry in entries:
            fill(entry, [1])  # pointer mode: never looked up by key
        assert not scheme._wide_entries
        for entry in entries[:3]:
            fill(entry, [2])  # the third overflow evicts the first's mask
        assert list(scheme._wide_entries.values()) == entries[1:3]
        entries[1].reset()
        assert list(scheme._wide_entries.values()) == [entries[2]]
        assert entries[0].invalidation_targets() == set(range(8))  # broadcast


class TestStorageAccounting:
    def test_per_block_bits(self):
        # 3 pointers x 5 bits + wide flag + broadcast bit
        assert OverflowCacheScheme(32, 3, 8).presence_bits() == 17

    def test_shared_store_bits(self):
        scheme = OverflowCacheScheme(32, 3, overflow_entries=16)
        assert scheme.shared_bits() == 16 * (32 + 32)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OverflowCacheScheme(32, 0, 8)
        with pytest.raises(ValueError):
            OverflowCacheScheme(32, 3, 0)
