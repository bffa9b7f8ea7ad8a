"""Protocol corner cases: occupancy queueing, NAK retries, stats breakdowns."""

import pytest

from repro.machine import DashSystem, MachineConfig
from repro.machine.stats import InvalCause
from repro.trace.event import Lock, Read, Unlock, Work, Write
from repro.trace.scripted import ScriptedWorkload
from tests.node_queries import has_copy


def addr(block):
    return block * 16


def run_scripts(scripts, **cfg_overrides):
    defaults = dict(
        num_clusters=4, procs_per_cluster=1, l1_bytes=256, l2_bytes=1024
    )
    defaults.update(cfg_overrides)
    cfg = MachineConfig(**defaults)
    system = DashSystem(cfg, ScriptedWorkload(scripts, block_bytes=16), strict=True)
    stats = system.run()
    system.check_coherence()
    return system, stats


class TestControllerOccupancy:
    def test_simultaneous_requests_serialize(self):
        # two different blocks, same home, same issue time: the second
        # transaction waits one ctrl_occupancy slot (6 cycles)
        scripts = [[], [Read(addr(0))], [Read(addr(4))], []]
        _, stats = run_scripts(scripts)
        finishes = sorted(p.finish_time for p in stats.procs[1:3])
        assert finishes[0] == pytest.approx(63.0)
        assert finishes[1] == pytest.approx(69.0)  # +6 occupancy

    def test_different_homes_no_interference(self):
        scripts = [[], [Read(addr(0))], [Read(addr(5))], []]  # homes 0 and 1
        _, stats = run_scripts(scripts)
        for p in stats.procs[1:3]:
            assert p.finish_time == pytest.approx(63.0)

    def test_same_block_queueing(self):
        # three readers of one remote block: block-busy serialization
        scripts = [[], [Read(addr(0))], [Read(addr(0))], [Read(addr(0))]]
        _, stats = run_scripts(scripts)
        finishes = sorted(p.finish_time for p in stats.procs[1:])
        assert finishes[0] < finishes[1] < finishes[2]


class TestNBEdgeCases:
    def test_victim_at_home_makes_no_message(self):
        # Dir1NB: home cluster 0 reads its own block, then cluster 1 reads
        # it; the pointer eviction victimizes cluster 0 — a local bus
        # invalidation, zero network invalidation messages.
        scripts = [[Read(addr(0))], [Work(300), Read(addr(0))], [], []]
        system, stats = run_scripts(scripts, scheme="Dir1NB")
        assert stats.nb_evictions == 1
        assert stats.invalidations == 0  # victim was the home itself
        assert stats.invalidation_events(InvalCause.NB_EVICT) == 1
        assert not has_copy(system.clusters[0].caches, 0)

    def test_nb_eviction_event_size_zero_when_local(self):
        scripts = [[Read(addr(0))], [Work(300), Read(addr(0))], [], []]
        _, stats = run_scripts(scripts, scheme="Dir1NB")
        assert stats.inval_hist[InvalCause.NB_EVICT][0] == 1


class TestBroadcastEdgeCases:
    def test_writer_at_home_broadcasts_to_all_others(self):
        # Dir1B on 4 clusters; sharers 1,2 overflow; home cluster 0 writes:
        # all three other clusters get invalidation messages
        scripts = [
            [Work(900), Write(addr(0))],
            [Read(addr(0))],
            [Work(300), Read(addr(0))],
            [],
        ]
        _, stats = run_scripts(scripts, scheme="Dir1B")
        assert stats.invalidations == 3
        assert stats.acknowledgements == 3


class TestHints:
    def test_hint_ignored_for_dirty_line(self):
        # proc 1 writes block 0 then evicts it dirty (writeback, not a
        # hint); replacement_hints must not corrupt dirty-line state
        scripts = [[], [Write(addr(0)), Read(addr(4))], [], []]
        system, stats = run_scripts(
            scripts, l1_bytes=16, l2_bytes=16, replacement_hints=True
        )
        assert stats.writebacks == 1
        line = system.directories[0].store.lookup(0)
        assert line is None or not line.dirty

    def test_hint_messages_are_requests(self):
        scripts = [[], [Read(addr(0)), Read(addr(4))], [], []]
        _, plain = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        _, hinted = run_scripts(
            scripts, l1_bytes=16, l2_bytes=16, replacement_hints=True
        )
        assert hinted.requests == plain.requests + 1
        assert hinted.replies == plain.replies  # hints are unacknowledged


class TestSparseNAK:
    def test_all_ways_busy_retries_until_free(self):
        # one directory entry per home, direct-mapped; two clusters read
        # two different blocks of home 0 at the same instant: the second
        # must NAK-retry while the first transaction pins the only entry.
        scripts = [[], [Read(addr(0))], [Read(addr(4))], []]
        system, stats = run_scripts(
            scripts,
            l2_bytes=64,
            sparse_size_factor=1 / 16,
            sparse_assoc=1,
            sparse_policy="lru",
        )
        # both finish, with one sparse replacement (block 0's entry dies)
        assert stats.sparse_replacements == 1
        assert all(p.finish_time > 0 for p in stats.procs[1:3])
        assert not has_copy(system.clusters[1].caches, 0)


class TestProcessorAccounting:
    def test_work_counts_as_busy(self):
        scripts = [[Work(100)], [], [], []]
        _, stats = run_scripts(scripts)
        assert stats.procs[0].busy == 100
        assert stats.procs[0].stall == 0

    def test_miss_counts_as_stall(self):
        scripts = [[], [Read(addr(0))], [], []]
        _, stats = run_scripts(scripts)
        assert stats.procs[1].stall == pytest.approx(63.0)
        assert stats.procs[1].busy == 0

    def test_hit_counts_as_busy(self):
        scripts = [[], [Read(addr(0)), Read(addr(0))], [], []]
        _, stats = run_scripts(scripts)
        assert stats.procs[1].busy == pytest.approx(1.0)  # the L1 hit

    def test_lock_wait_counts_as_sync(self):
        scripts = [
            [Lock(0), Work(500), Unlock(0)],
            [Work(10), Lock(0), Unlock(0)],
            [],
            [],
        ]
        _, stats = run_scripts(scripts)
        assert stats.procs[1].sync > 400
        assert stats.procs[1].busy == pytest.approx(10.0)

    def test_read_write_counters(self):
        scripts = [[Read(addr(0)), Write(addr(0)), Read(addr(1))], [], [], []]
        _, stats = run_scripts(scripts)
        assert stats.procs[0].reads == 2
        assert stats.procs[0].writes == 1
