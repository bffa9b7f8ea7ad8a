"""Intra-cluster (multi-processor, snoopy bus) behaviour.

The paper's experiments use one processor per cluster, but the DASH
prototype is 4-per-cluster (§2); these tests exercise the bus paths that
configuration enables: local sharing, local ownership transfer, and the
cluster staying a directory sharer when a dirty line is written back
while a sibling still caches it.
"""

import pytest

from repro.core import protocol
from repro.machine import DashSystem, MachineConfig
from repro.machine.cluster import Cluster
from repro.machine.cache import LineState
from repro.trace.event import Read, Work, Write
from repro.trace.scripted import ScriptedWorkload
from tests.node_queries import has_copy


def run_scripts(scripts, **cfg_overrides):
    defaults = dict(
        num_clusters=2, procs_per_cluster=2, l1_bytes=64, l2_bytes=256
    )
    defaults.update(cfg_overrides)
    cfg = MachineConfig(**defaults)
    system = DashSystem(cfg, ScriptedWorkload(scripts, block_bytes=cfg.block_bytes))
    stats = system.run()
    system.check_coherence()
    return system, stats


def addr(block):
    return block * 16


class TestClusterUnit:
    def make_cluster(self):
        cfg = MachineConfig(num_clusters=2, procs_per_cluster=2,
                            l1_bytes=64, l2_bytes=256)
        return Cluster(0, cfg)

    def test_miss_when_cold(self):
        cl = self.make_cluster()
        res = cl.try_local(0, 5, is_write=False)
        assert not res.satisfied

    def test_sibling_read_sharing(self):
        cl = self.make_cluster()
        cl.caches[0].install(5, LineState.SHARED)
        res = cl.try_local(1, 5, is_write=False)
        assert res.satisfied and res.where == "bus"
        assert cl.caches[1].state(5) is LineState.SHARED

    def test_local_ownership_transfer(self):
        cl = self.make_cluster()
        cl.caches[0].install(5, LineState.DIRTY)
        res = cl.try_local(1, 5, is_write=True)
        assert res.satisfied and res.where == "bus"
        assert cl.caches[1].state(5) is LineState.DIRTY
        assert cl.caches[0].state(5) is None

    def test_write_with_only_shared_copies_needs_directory(self):
        cl = self.make_cluster()
        cl.caches[0].install(5, LineState.SHARED)
        cl.caches[1].install(5, LineState.SHARED)
        res = cl.try_local(1, 5, is_write=True)
        assert not res.satisfied

    def test_invalidate_block_hits_all_caches(self):
        cl = self.make_cluster()
        cl.caches[0].install(5, LineState.SHARED)
        cl.caches[1].install(5, LineState.SHARED)
        assert protocol.copies_besides_wb(cl.caches, 5)
        protocol.invalidate(cl.caches, 5)  # row IV, as the home sends it
        assert not has_copy(cl.caches, 5)

    def test_sibling_dirty_read_keeps_owner_dirty(self):
        # the reading cache gets SHARED; the dirty sibling keeps the
        # (cluster-owned) modified data
        cl = self.make_cluster()
        cl.caches[0].install(5, LineState.DIRTY)
        res = cl.try_local(1, 5, is_write=False)
        assert res.satisfied
        assert cl.caches[0].state(5) is LineState.DIRTY
        assert protocol.holds_dirty(cl.caches, 5)


class TestClusterIntegration:
    def test_sibling_sharing_no_directory_messages(self):
        # proc 0 reads block 0 (local home), proc 1 reads it from the bus
        scripts = [
            [Read(addr(0))],
            [Work(200), Read(addr(0))],
            [],
            [],
        ]
        system, stats = run_scripts(scripts)
        assert stats.total_messages == 0
        assert stats.local_misses == 1

    def test_local_write_after_sibling_dirty(self):
        # proc 0 dirties block 1 (home cluster 1 -> 2 msgs); proc 1 then
        # writes it via bus ownership transfer: no further messages.
        scripts = [
            [Write(addr(1))],
            [Work(300), Write(addr(1))],
            [],
            [],
        ]
        system, stats = run_scripts(scripts)
        assert stats.total_messages == 2
        assert protocol.holds_dirty(system.clusters[0].caches, 1)

    def test_remote_invalidation_covers_whole_cluster(self):
        # both procs of cluster 0 share block 1; a write from cluster 1
        # invalidates the cluster with ONE message (bus broadcast inside).
        scripts = [
            [Read(addr(1))],
            [Work(200), Read(addr(1))],
            [Work(500), Write(addr(1))],
            [],
        ]
        system, stats = run_scripts(scripts)
        assert stats.invalidations == 1
        assert stats.acknowledgements == 1
        assert not has_copy(system.clusters[0].caches, 1)

    def test_writeback_with_live_sibling_keeps_cluster_shared(self):
        # proc 0 dirties block 1; proc 1 reads it over the bus (SHARED);
        # proc 0 then evicts the dirty line (tiny L2).  The directory must
        # keep cluster 0 as a sharer, so cluster 1's later write still
        # invalidates it.
        scripts = [
            [Write(addr(1)), Work(250), Read(addr(3))],  # read evicts block1
            [Work(150), Read(addr(1)), Work(2000)],
            [Work(1200), Write(addr(1))],
            [],
        ]
        system, stats = run_scripts(scripts, l1_bytes=16, l2_bytes=16)
        # cluster 1's write found cluster 0 as sharer -> 1 inval message
        assert stats.invalidations == 1
        assert not has_copy(system.clusters[0].caches, 1)

    def test_dash_prototype_shape(self):
        """The 16x4 prototype machine builds and runs three references.

        A construction smoke test, not a coherence claim: the block is
        touched by processors 0 and 63, in different clusters, so the
        same-cluster race of ROADMAP item 1(b) cannot arise.  Real
        workloads on this shape are not coherent: fault-free, MP3D
        reports 150 strict-checker violations and LocusRoute 174.
        """
        from repro.machine.config import dash_prototype_config

        cfg = dash_prototype_config()
        assert cfg.num_clusters == 16
        assert cfg.num_processors == 64
        scripts = [[] for _ in range(64)]
        scripts[0] = [Read(addr(0)), Write(addr(0))]
        scripts[63] = [Work(500), Read(addr(0))]
        system = DashSystem(cfg, ScriptedWorkload(scripts, block_bytes=16))
        system.run()
        system.check_coherence()
