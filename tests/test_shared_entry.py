"""Shared-entry directory (§7 "multiple blocks share one wide entry")."""

import pytest

from repro.core import FullBitVectorScheme, SharedEntryDirectory
from repro.core import protocol
from repro.machine import DashSystem, MachineConfig, run_workload
from repro.apps import UniformRandomWorkload
from repro.trace.event import Read, Work, Write
from repro.trace.scripted import ScriptedWorkload
from tests.node_queries import has_copy


def addr(block):
    return block * 16


class TestStoreUnit:
    def test_groups_share_one_entry(self):
        d = SharedEntryDirectory(FullBitVectorScheme(8), group_size=2)
        l0, _ = d.get_or_allocate(0)
        l1, _ = d.get_or_allocate(1)
        l2, _ = d.get_or_allocate(2)
        assert l0.entry is l1.entry
        assert l0.entry is not l2.entry

    def test_sharers_pooled_across_group(self):
        d = SharedEntryDirectory(FullBitVectorScheme(8), group_size=2)
        l0, _ = d.get_or_allocate(0)
        l1, _ = d.get_or_allocate(1)
        l0.entry.record_sharer(3)
        assert l1.entry.invalidation_targets() == {3}

    def test_dirty_state_is_per_block(self):
        d = SharedEntryDirectory(FullBitVectorScheme(8), group_size=2)
        l0, _ = d.get_or_allocate(0)
        l1, _ = d.get_or_allocate(1)
        l0.dirty, l0.owner = True, 2
        assert not l1.dirty and l1.owner is None

    def test_blocks_invalidated_with_covers_group(self):
        d = SharedEntryDirectory(FullBitVectorScheme(8), group_size=4)
        assert d.blocks_invalidated_with(5) == (4, 5, 6, 7)

    def test_stride_offset_mapping(self):
        # home 1 of a 4-cluster machine: blocks 1, 5, 9, 13, ...
        d = SharedEntryDirectory(
            FullBitVectorScheme(8), group_size=2, stride=4, offset=1
        )
        assert d.group_of(1) == 0 and d.group_of(5) == 0
        assert d.group_of(9) == 1
        assert d.blocks_invalidated_with(1) == (1, 5)
        with pytest.raises(ValueError):
            d.group_of(2)  # not homed here

    def test_amortized_storage(self):
        d = SharedEntryDirectory(FullBitVectorScheme(32), group_size=4)
        assert d.presence_bits_per_block() == 8.0

    def test_release_frees_group_when_last_line_goes(self):
        d = SharedEntryDirectory(FullBitVectorScheme(8), group_size=2)
        l0, _ = d.get_or_allocate(0)
        d.get_or_allocate(1)
        d.release(1)  # entry empty -> line 1 freed
        assert d.lookup(1) is None
        assert d.lookup(0) is not None  # group entry still held by block 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SharedEntryDirectory(FullBitVectorScheme(8), group_size=0)
        with pytest.raises(ValueError):
            SharedEntryDirectory(FullBitVectorScheme(8), 2, stride=2, offset=2)


class TestMachineIntegration:
    def run_scripts(self, scripts, group=2, **cfg):
        defaults = dict(
            num_clusters=4, l1_bytes=256, l2_bytes=1024,
            shared_entry_group=group,
        )
        defaults.update(cfg)
        system = DashSystem(
            MachineConfig(**defaults), ScriptedWorkload(scripts, block_bytes=16)
        )
        stats = system.run()
        system.check_coherence()
        return system, stats

    def test_write_invalidates_group_mates(self):
        # blocks 0 and 4 share home 0's group-0 entry.  Proc 1 reads
        # block 4; proc 2 writes block 0: proc 1's copy of block 4 must
        # die (the pooled entry is reset).
        scripts = [
            [],
            [Read(addr(4)), Work(2000)],
            [Work(500), Write(addr(0))],
            [],
        ]
        system, stats = self.run_scripts(scripts)
        assert not has_copy(system.clusters[1].caches, 4)
        assert stats.invalidations == 1  # one message names the group

    def test_dirty_group_mate_survives(self):
        # proc 1 dirties block 4; proc 2 writes block 0 (same group):
        # block 4's dirty copy must NOT be destroyed.
        scripts = [
            [],
            [Write(addr(4)), Work(2000)],
            [Work(500), Write(addr(0))],
            [],
        ]
        system, stats = self.run_scripts(scripts)
        assert protocol.holds_dirty(system.clusters[1].caches, 4)

    def test_writer_keeps_conservative_coverage(self):
        # proc 1 reads block 4, then writes block 0 (same group).  Its
        # copy of 4 survives and the directory must still cover it, so a
        # later write by proc 2 to block 4 invalidates proc 1.
        scripts = [
            [],
            [Read(addr(4)), Write(addr(0)), Work(2000)],
            [Work(800), Write(addr(4))],
            [],
        ]
        system, stats = self.run_scripts(scripts)
        assert not has_copy(system.clusters[1].caches, 4)

    def test_group_one_behaves_like_full_map(self):
        wl_scripts = [
            [Read(addr(b)) for b in range(6)],
            [Write(addr(b)) for b in range(6)],
            [Read(addr(b)) for b in range(2, 8)],
            [],
        ]
        _, grouped = self.run_scripts(wl_scripts, group=1)
        cfg = MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024)
        system = DashSystem(
            cfg, ScriptedWorkload(wl_scripts, block_bytes=16)
        )
        plain = system.run()
        assert grouped.to_dict() == plain.to_dict()

    def test_random_stress_coherent_across_group_sizes(self):
        for group in (2, 4):
            cfg = MachineConfig(
                num_clusters=4, l1_bytes=128, l2_bytes=256,
                shared_entry_group=group,
            )
            wl = UniformRandomWorkload(
                4, refs_per_proc=300, heap_blocks=32, write_fraction=0.4,
                seed=13,
            )
            run_workload(cfg, wl, check=True)

    def test_grouping_adds_invalidations(self):
        def traffic(group):
            cfg = MachineConfig(
                num_clusters=4, l1_bytes=256, l2_bytes=1024,
                shared_entry_group=group,
            )
            wl = UniformRandomWorkload(
                4, refs_per_proc=400, heap_blocks=24, write_fraction=0.3,
                seed=4,
            )
            return run_workload(cfg, wl, check=True).invalidations_sent()

        assert traffic(1) <= traffic(2) <= traffic(4)

    def test_exclusive_with_sparse(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            MachineConfig(
                num_clusters=4, shared_entry_group=2, sparse_size_factor=1.0
            ).validate()
