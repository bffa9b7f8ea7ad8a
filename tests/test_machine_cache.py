"""Cache hierarchy unit tests (levels, inclusion, writeback buffer)."""

from repro.core import protocol
from repro.machine.cache import CacheLevel, LineState, ProcessorCache


def make_cache(l1_bytes=64, l2_bytes=256, block=16, l1_assoc=1, l2_assoc=2):
    return ProcessorCache(block, l1_bytes, l1_assoc, l2_bytes, l2_assoc)


class TestCacheLevel:
    def test_install_and_lookup(self):
        c = CacheLevel(64, 16, 2)  # 4 blocks, 2-way, 2 sets
        assert c.install(0, LineState.SHARED) is None
        assert c.lookup(0) is LineState.SHARED

    def test_miss_returns_none(self):
        c = CacheLevel(64, 16, 2)
        assert c.lookup(123) is None

    def test_lru_eviction_within_set(self):
        c = CacheLevel(64, 16, 2)  # 2 sets; blocks 0,2,4 share set 0
        c.install(0, LineState.SHARED)
        c.install(2, LineState.SHARED)
        c.lookup(0)  # 0 now MRU
        victim = c.install(4, LineState.DIRTY)
        assert victim == (2, LineState.SHARED)
        assert c.peek(0) is LineState.SHARED

    def test_reinstall_updates_state_without_eviction(self):
        c = CacheLevel(64, 16, 2)
        c.install(0, LineState.SHARED)
        assert c.install(0, LineState.DIRTY) is None
        assert c.peek(0) is LineState.DIRTY

    def test_invalidate(self):
        c = CacheLevel(64, 16, 2)
        c.install(0, LineState.DIRTY)
        assert c.invalidate(0) is LineState.DIRTY
        assert c.invalidate(0) is None

    def test_assoc_clamped_to_capacity(self):
        c = CacheLevel(16, 16, 8)  # one block total
        assert c.assoc == 1 and c.num_sets == 1

    def test_occupancy_and_blocks(self):
        c = CacheLevel(64, 16, 4)
        for b in (1, 5, 9):
            c.install(b, LineState.SHARED)
        assert c.occupancy() == 3
        assert {b for b, _ in c.blocks()} == {1, 5, 9}


class TestProcessorCache:
    def test_read_path_l1_then_l2(self):
        pc = make_cache()
        assert pc.probe_read(3) is None
        pc.install(3, LineState.SHARED)
        assert pc.probe_read(3) == "l1"

    def test_l2_hit_after_l1_eviction(self):
        pc = make_cache(l1_bytes=16, l2_bytes=256)  # L1 holds one block
        pc.install(0, LineState.SHARED)
        pc.install(1, LineState.SHARED)  # evicts 0 from L1, both in L2
        assert pc.probe_read(0) == "l2"

    def test_write_probe_states(self):
        pc = make_cache()
        assert pc.probe_write(7) is False
        pc.install(7, LineState.SHARED)
        assert pc.probe_write(7) is False  # an upgrade goes to the home
        pc.install(7, LineState.DIRTY)
        assert pc.probe_write(7) is True

    def test_inclusion_l2_eviction_purges_l1(self):
        pc = make_cache(l1_bytes=256, l2_bytes=32, l2_assoc=1)  # L2: 2 blocks
        pc.install(0, LineState.SHARED)
        pc.install(2, LineState.SHARED)  # same L2 set as 0 -> evict 0
        assert pc.l2.peek(0) is None
        assert pc.l1.peek(0) is None  # inclusion preserved

    def test_dirty_eviction_parks_in_wb_buffer(self):
        pc = make_cache(l2_bytes=32, l2_assoc=1)
        pc.install(0, LineState.DIRTY)
        assert pc.install(2, LineState.SHARED) == (0, True)
        assert pc.has_ghost(0)
        assert protocol.holds_dirty([pc], 0)  # ghost still serves forwards
        pc.release_ghost(0)
        assert not protocol.holds_dirty([pc], 0)

    def test_clean_eviction_reported_not_buffered(self):
        pc = make_cache(l2_bytes=32, l2_assoc=1)
        pc.install(0, LineState.SHARED)
        assert pc.install(2, LineState.SHARED) == (0, False)
        assert not pc.has_ghost(0)

    def test_downgrade_live_line(self):
        pc = make_cache()
        pc.install(4, LineState.DIRTY)
        assert protocol.downgrade([pc], 4) is True
        assert pc.state(4) is LineState.SHARED

    def test_downgrade_wb_ghost(self):
        pc = make_cache(l2_bytes=32, l2_assoc=1)
        pc.install(0, LineState.DIRTY)
        pc.install(2, LineState.SHARED)  # 0 -> wb buffer
        assert protocol.downgrade([pc], 0) is True  # buffer supplies data
        assert pc.state(0) is None

    def test_downgrade_absent(self):
        pc = make_cache()
        assert protocol.downgrade([pc], 9) is False

    def test_invalidate_clears_everything(self):
        pc = make_cache(l2_bytes=32, l2_assoc=1)
        pc.install(0, LineState.DIRTY)
        pc.install(2, LineState.SHARED)  # 0 in wb buffer
        assert pc.invalidate(0) is True  # ghost killed
        assert pc.invalidate(2) is True
        assert pc.invalidate(2) is False
