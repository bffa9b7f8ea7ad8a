"""MachineConfig: validation, derived quantities, calibrated latencies."""

import pytest

from repro.machine.config import MachineConfig


class TestDerived:
    def test_processor_count(self):
        cfg = MachineConfig(num_clusters=16, procs_per_cluster=4)
        assert cfg.num_processors == 64

    def test_cache_blocks(self):
        cfg = MachineConfig(l2_bytes=1024, block_bytes=16, num_clusters=8)
        assert cfg.l2_blocks_per_cache == 64
        assert cfg.total_cache_blocks == 64 * 8

    def test_home_mapping_round_robin(self):
        cfg = MachineConfig(num_clusters=4)
        assert [cfg.home_of(b) for b in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_block_of_address(self):
        cfg = MachineConfig(block_bytes=16)
        assert cfg.block_of(0) == 0
        assert cfg.block_of(15) == 0
        assert cfg.block_of(16) == 1

    def test_with_returns_modified_copy(self):
        cfg = MachineConfig()
        cfg2 = cfg.with_(scheme="Dir3B", seed=9)
        assert cfg2.scheme == "Dir3B" and cfg2.seed == 9
        assert cfg.scheme == "full"  # original untouched


class TestCalibratedLatencies:
    """§5: local ~23 cycles, 2-cluster ~60, 3-cluster ~80."""

    def test_local_miss(self):
        assert MachineConfig().local_miss_cycles == 23.0

    def test_remote_clean(self):
        assert MachineConfig().remote_2cluster_cycles == 63.0

    def test_remote_dirty(self):
        assert MachineConfig().remote_3cluster_cycles == 80.0


class TestValidation:
    def test_default_is_valid(self):
        MachineConfig().validate()

    @pytest.mark.parametrize("field, value", [
        ("num_clusters", 0),
        ("procs_per_cluster", 0),
        ("block_bytes", 24),  # not a power of two
        ("block_bytes", 0),
        ("sparse_assoc", 0),
        ("sparse_size_factor", -1.0),
        ("network", "hypercube"),
        ("shared_entry_group", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            MachineConfig(**{field: value}).validate()

    def test_cache_must_hold_a_block(self):
        with pytest.raises(ValueError):
            MachineConfig(l2_bytes=8, block_bytes=16).validate()

    def test_sparse_and_shared_entry_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            MachineConfig(
                sparse_size_factor=1.0, shared_entry_group=2
            ).validate()


class TestMeshValidation:
    """MeshNetwork construction must reject degenerate geometries."""

    def _mesh(self, num_clusters, width=None):
        from repro.machine.network import MeshNetwork

        return MeshNetwork(num_clusters, width)

    @pytest.mark.parametrize("width", [0, -1, -8])
    def test_rejects_non_positive_width(self, width):
        with pytest.raises(ValueError, match="width must be >= 1"):
            self._mesh(16, width)

    @pytest.mark.parametrize("width", [2.0, "4", True])
    def test_rejects_non_integer_width(self, width):
        with pytest.raises(ValueError, match="integer"):
            self._mesh(16, width)

    def test_rejects_width_exceeding_clusters(self):
        with pytest.raises(ValueError, match="empty columns"):
            self._mesh(4, 8)

    def test_accepts_boundary_widths(self):
        assert self._mesh(4, 4).height == 1
        assert self._mesh(4, 1).height == 4
        ragged = self._mesh(6, 4)  # last row partially filled is fine
        assert (ragged.width, ragged.height) == (4, 2)

    def test_default_width_is_near_square(self):
        mesh = self._mesh(16)
        assert (mesh.width, mesh.height) == (4, 4)

    def test_make_network_passes_width_through(self):
        from repro.machine.network import make_network

        with pytest.raises(ValueError):
            make_network("mesh", 4, width=0)
        assert make_network("mesh", 8, width=2).height == 4
