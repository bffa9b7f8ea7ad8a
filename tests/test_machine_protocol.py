"""Protocol-level tests: exact message accounting and coherence.

Scenarios are scripted with generous ``Work`` padding so the intended
order of global events is unambiguous, then message counts are checked
against hand-derived expectations for the DASH protocol of §2.
"""

import pytest

from repro.core import protocol
from repro.machine import DashSystem, MachineConfig
from repro.trace.event import Barrier, Lock, Read, Unlock, Work, Write
from repro.trace.scripted import ScriptedWorkload
from tests.node_queries import has_copy


def addr(block):
    return block * 16


def run_scripts(scripts, **cfg_overrides):
    defaults = dict(
        num_clusters=4,
        procs_per_cluster=1,
        l1_bytes=256,
        l2_bytes=1024,
        block_bytes=16,
    )
    defaults.update(cfg_overrides)
    cfg = MachineConfig(**defaults)
    wl = ScriptedWorkload(scripts, block_bytes=cfg.block_bytes)
    system = DashSystem(cfg, wl, strict=True)
    stats = system.run()
    system.check_coherence()
    return system, stats


class TestReadPaths:
    def test_local_read_no_messages(self):
        # block 0's home is cluster 0; proc 0 reads it: all local.
        _, stats = run_scripts([[Read(addr(0))], [], [], []])
        assert stats.total_messages == 0
        assert stats.remote_misses == 1  # one directory transaction

    def test_second_read_hits_l1(self):
        _, stats = run_scripts([[Read(addr(0)), Read(addr(0))], [], [], []])
        assert stats.l1_hits == 1

    def test_remote_clean_read_two_messages(self):
        # proc 1 reads block 0 (home cluster 0): request + reply.
        _, stats = run_scripts([[], [Read(addr(0))], [], []])
        assert stats.requests == 1
        assert stats.replies == 1
        assert stats.total_messages == 2

    def test_remote_clean_read_latency(self):
        system, stats = run_scripts([[], [Read(addr(0))], [], []])
        # leg + bus + leg = 20 + 23 + 20 = 63 (§5: ~60 cycles)
        assert stats.exec_time == pytest.approx(63.0)

    def test_dirty_remote_read_three_party(self):
        # proc 2 writes block 0, then proc 1 reads it: forward to owner.
        scripts = [[], [Work(500), Read(addr(0))], [Write(addr(0))], []]
        system, stats = run_scripts(scripts)
        # write: req+reply (2 msgs); read: req, forward, data reply,
        # sharing writeback (4 msgs).  Requests: write req, read req,
        # forward, sharing wb.
        assert stats.requests == 4
        assert stats.total_messages == 6
        assert stats.replies == 2
        # after: both clusters hold it SHARED
        assert has_copy(system.clusters[1].caches, 0)
        assert has_copy(system.clusters[2].caches, 0)

    def test_dirty_remote_read_latency(self):
        scripts = [[], [Work(500), Read(addr(0))], [Write(addr(0))], []]
        _, stats = run_scripts(scripts)
        # 500 + leg + dir + leg + cache + leg = 500 + 20+10+20+10+20 = 580
        assert stats.procs[1].finish_time == pytest.approx(580.0)


class TestWritePaths:
    def test_write_to_uncached_block(self):
        _, stats = run_scripts([[], [Write(addr(0))], [], []])
        assert stats.total_messages == 2  # req + ownership reply
        assert stats.invalidation_events() == 1
        assert stats.invalidations_sent() == 0  # nobody to invalidate

    def test_write_invalidates_remote_sharers(self):
        # procs 2 and 3 read block 0, then proc 1 writes it.
        scripts = [
            [],
            [Work(900), Write(addr(0))],
            [Read(addr(0))],
            [Work(300), Read(addr(0))],
        ]
        system, stats = run_scripts(scripts)
        assert stats.invalidations == 2  # to clusters 2 and 3
        assert stats.acknowledgements == 2
        assert stats.inval_hist is not None
        assert stats.invalidations_sent() == 2
        # exactly one write event of size 2
        from repro.machine.stats import InvalCause

        assert stats.inval_hist[InvalCause.WRITE][2] == 1
        assert not has_copy(system.clusters[2].caches, 0)
        assert not has_copy(system.clusters[3].caches, 0)
        assert protocol.holds_dirty(system.clusters[1].caches, 0)

    def test_home_cluster_invalidated_without_message(self):
        # proc 0 (the home) reads block 0; proc 1 then writes it.  The
        # home's copy is killed over its local bus: ack yes, inval no.
        scripts = [[Read(addr(0))], [Work(500), Write(addr(0))], [], []]
        system, stats = run_scripts(scripts)
        assert stats.invalidations == 0
        assert stats.acknowledgements == 1  # home's ack to the requester
        assert not has_copy(system.clusters[0].caches, 0)

    def test_upgrade_write_no_invalidations(self):
        # proc 1 reads then writes: directory sees it as the only sharer.
        scripts = [[], [Read(addr(0)), Write(addr(0))], [], []]
        system, stats = run_scripts(scripts)
        assert stats.invalidations == 0
        assert stats.acknowledgements == 0
        assert stats.total_messages == 4  # read req/reply + write req/reply
        assert protocol.holds_dirty(system.clusters[1].caches, 0)

    def test_ownership_transfer_between_writers(self):
        scripts = [[], [Write(addr(0))], [Work(500), Write(addr(0))], []]
        system, stats = run_scripts(scripts)
        # 1st write: 2 msgs; 2nd: req, forward, data+ownership reply,
        # transfer notice = 4 msgs
        assert stats.total_messages == 6
        assert stats.invalidations == 0  # transfers are forwards, not invals
        assert not has_copy(system.clusters[1].caches, 0)
        assert protocol.holds_dirty(system.clusters[2].caches, 0)

    def test_write_completion_waits_for_acks(self):
        # one remote sharer: completion = max(reply, ack path)
        scripts = [[], [Work(500), Write(addr(0))], [Read(addr(0))], []]
        _, stats = run_scripts(scripts)
        # reply path: 20+23+20 = 63
        # ack path: 20(req leg) + 10(dir) + 3(inval issue) + 20 + 5 + 20 = 78
        assert stats.procs[1].finish_time == pytest.approx(578.0)


class TestWritebacks:
    def test_dirty_eviction_generates_writeback(self):
        # L2 of 16 bytes = 1 block; write block 0 then read block 4
        # (also home 0) evicts it.
        scripts = [[], [Write(addr(0)), Read(addr(4))], [], []]
        system, stats = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        assert stats.writebacks == 1
        # write req/reply + read req/reply + wb request
        assert stats.total_messages == 5
        line = system.directories[0].store.lookup(0)
        assert line is None or not line.dirty

    def test_clean_eviction_silent_by_default(self):
        scripts = [[], [Read(addr(0)), Read(addr(4))], [], []]
        _, stats = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        assert stats.writebacks == 0
        assert stats.total_messages == 4  # two read pairs

    def test_silently_dropped_sharer_is_still_invalidated(self):
        # the directory never learns of a clean eviction, so the next
        # write invalidates the cluster that dropped its copy
        scripts = [
            [],
            [Read(addr(0)), Read(addr(4))],
            [Work(900), Write(addr(0))],
            [],
        ]
        _, stats = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        assert stats.invalidations == 1

    def test_forward_races_writeback_buffer(self):
        # proc 1 dirties block 0, evicts it (wb in flight), while proc 2
        # writes block 0.  The forward must be satisfiable either from the
        # live line or the wb buffer, never lost.
        scripts = [
            [],
            [Write(addr(0)), Read(addr(4))],
            [Work(80), Write(addr(0))],
            [],
        ]
        system, stats = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        assert protocol.holds_dirty(system.clusters[2].caches, 0) or (
            system.directories[0].store.lookup(0) is not None
        )


class TestDirectorySchemes:
    def test_nb_read_evictions(self):
        # Dir1NB: one pointer; three sequential readers evict each other.
        scripts = [
            [],
            [Read(addr(0))],
            [Work(400), Read(addr(0))],
            [Work(800), Read(addr(0))],
        ]
        system, stats = run_scripts(scripts, scheme="Dir1NB")
        assert stats.nb_evictions == 2
        from repro.machine.stats import InvalCause

        assert stats.invalidation_events(InvalCause.NB_EVICT) == 2
        # only the last reader still has a copy
        holders = [
            c for c in range(4)
            if has_copy(system.clusters[c].caches, 0)
        ]
        assert holders == [3]

    def test_broadcast_write_after_overflow(self):
        # Dir1B on 8 clusters: two readers overflow the single pointer;
        # a write then broadcasts to everyone except the writer.
        scripts = [[] for _ in range(8)]
        scripts[1] = [Read(addr(0))]
        scripts[2] = [Work(400), Read(addr(0))]
        scripts[7] = [Work(900), Write(addr(0))]
        system, stats = run_scripts(scripts, num_clusters=8, scheme="Dir1B")
        # targets: all 8 minus writer(7) = 7 clusters; home(0) needs no
        # network inval -> 6 invalidation messages, 7 acks
        assert stats.invalidations == 6
        assert stats.acknowledgements == 7

    def test_coarse_vector_regional_invalidation(self):
        # Dir1CV2 on 8 clusters: readers 1 and 2 overflow to coarse mode
        # covering regions {0,1} and {2,3}; the write invalidates exactly
        # those 4 clusters, not all 8.
        scripts = [[] for _ in range(8)]
        scripts[1] = [Read(addr(0))]
        scripts[2] = [Work(400), Read(addr(0))]
        scripts[7] = [Work(900), Write(addr(0))]
        system, stats = run_scripts(scripts, num_clusters=8, scheme="Dir1CV2")
        # targets {0,1,2,3}: home 0 local, so 3 inval messages, 4 acks
        assert stats.invalidations == 3
        assert stats.acknowledgements == 4
        for c in (1, 2):
            assert not has_copy(system.clusters[c].caches, 0)

    def test_coarse_vector_bounded_by_broadcast(self):
        # same scenario: CV sends fewer invals than B, at least as many as full
        def traffic(scheme):
            scripts = [[] for _ in range(8)]
            scripts[1] = [Read(addr(0))]
            scripts[2] = [Work(400), Read(addr(0))]
            scripts[7] = [Work(900), Write(addr(0))]
            _, stats = run_scripts(scripts, num_clusters=8, scheme=scheme)
            return stats.invalidations

        assert traffic("full") <= traffic("Dir1CV2") <= traffic("Dir1B")


class TestSparseDirectory:
    def sparse_cfg(self):
        # l2 = 64B = 4 blocks per proc, 4 procs -> 16 cache blocks.
        # size factor 1/16 -> 1 entry total -> 1 entry per home.
        return dict(
            l1_bytes=16,
            l2_bytes=64,
            sparse_size_factor=1 / 16,
            sparse_assoc=1,
            sparse_policy="lru",
        )

    def test_replacement_invalidates_cached_copies(self):
        # proc 1 reads blocks 0 and 4 (both home 0, same single entry):
        # allocating block 4's entry must invalidate the copy of block 0.
        scripts = [[], [Read(addr(0)), Read(addr(4))], [], []]
        system, stats = run_scripts(scripts, **self.sparse_cfg())
        assert stats.sparse_replacements == 1
        assert stats.invalidations == 1
        assert stats.acknowledgements == 1
        assert not has_copy(system.clusters[1].caches, 0)
        assert has_copy(system.clusters[1].caches, 4)

    def test_dirty_replacement_recalls_owner(self):
        scripts = [[], [Write(addr(0)), Read(addr(4))], [], []]
        system, stats = run_scripts(scripts, **self.sparse_cfg())
        assert stats.sparse_replacements >= 1
        assert not protocol.holds_dirty(system.clusters[1].caches, 0)

    def test_writeback_frees_entry_no_replacement(self):
        # Proc 1 dirties block 0 (home 0), then reads block 5 (home 1),
        # which evicts block 0 from its one-block L2 and writes it back.
        # Once the writeback lands, home 0's single directory entry is
        # free, so the later read of block 4 (home 0) allocates without a
        # sparse replacement — the paper's "empty slots are also created
        # when a processor cache replaces and writes back a dirty line".
        scripts = [
            [],
            [Write(addr(0)), Read(addr(5)), Work(300), Read(addr(4))],
            [],
            [],
        ]
        cfg = self.sparse_cfg()
        cfg["l2_bytes"] = 16
        cfg["sparse_size_factor"] = 1 / 4  # still 1 entry per home
        system, stats = run_scripts(scripts, **cfg)
        assert stats.writebacks == 1
        assert stats.sparse_replacements == 0

    def test_sparse_occupancy_bounded(self):
        scripts = [[], [Read(addr(b)) for b in range(0, 32, 4)], [], []]
        system, stats = run_scripts(scripts, **self.sparse_cfg())
        store = system.directories[0].store
        assert 0 < store.occupancy() <= store.num_entries
        assert store.occupancy() == sum(1 for _ in store.lines())


class TestDeterminism:
    def test_same_seed_same_stats(self):
        scripts = [
            [Read(addr(b)) for b in range(6)],
            [Write(addr(b)) for b in range(6)],
            [Read(addr(b)) for b in range(3, 9)],
            [Write(addr(b)) for b in range(2, 8)],
        ]
        _, s1 = run_scripts(scripts, scheme="Dir1NB", seed=3)
        _, s2 = run_scripts(scripts, scheme="Dir1NB", seed=3)
        assert s1.to_dict() == s2.to_dict()
