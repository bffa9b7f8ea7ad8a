"""Machine configuration: geometry, latencies, and directory organization.

Defaults reproduce the paper's simulated machine (§5): 32 clusters of one
processor each, 16-byte blocks, 64 KB primary / 256 KB secondary caches,
and latencies calibrated to the DASH prototype — local accesses on the
order of 23 cycles, two-cluster remote accesses ≈ 60, three-cluster ≈ 80.
With the default latency parameters the composed transaction costs are
exactly 23 / 63 / 80 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class MachineConfig:
    """Immutable description of one simulated machine.

    Use :meth:`with_` (dataclass ``replace``) to derive variants for
    parameter sweeps.
    """

    # -- geometry ---------------------------------------------------------
    num_clusters: int = 32
    procs_per_cluster: int = 1
    block_bytes: int = 16

    # -- processor caches ---------------------------------------------------
    l1_bytes: int = 64 * 1024  # both levels direct-mapped, as in the paper
    l2_bytes: int = 256 * 1024

    # -- latencies (processor cycles) ---------------------------------------
    l1_hit_cycles: float = 1.0
    l2_hit_cycles: float = 10.0
    bus_cycles: float = 23.0  # local bus + memory service (§5: ~23)
    bus_transfer_cycles: float = 23.0  # intra-cluster cache-to-cache
    net_msg_cycles: float = 20.0  # one network leg (uniform model)
    dir_service_cycles: float = 10.0  # directory lookup without memory
    cache_service_cycles: float = 10.0  # remote cache servicing a forward
    inval_service_cycles: float = 5.0  # invalidating one cache
    inval_issue_cycles: float = 3.0  # serialized send of each invalidation
    ctrl_occupancy_cycles: float = 6.0  # directory controller busy per txn
    sync_service_cycles: float = 5.0  # lock/barrier manager service

    # -- interconnect ---------------------------------------------------------
    network: str = "uniform"  # "uniform" | "mesh"

    # -- directory organization ----------------------------------------------
    scheme: str = "full"  # parsed by repro.core.make_scheme
    sparse_size_factor: Optional[float] = None  # None => full map
    sparse_assoc: int = 4
    sparse_policy: str = "random"  # lru | lra | random
    #: pool the presence entry of this many consecutive home blocks
    #: (§7 "multiple memory blocks share one wide entry"); None = per-block
    shared_entry_group: Optional[int] = None

    # -- synchronization extension ---------------------------------------------
    coarse_lock_grant: bool = False  # §7: region-granular lock grants

    # -- memory consistency model -------------------------------------------------
    #: False = sequential consistency (processor blocks on every write
    #: until all acks arrive).  True = DASH's release consistency: writes
    #: are issued and retired in the background; lock/unlock/barrier ops
    #: (and the end of the program) fence until outstanding writes drain.
    release_consistency: bool = False

    # -- misc -------------------------------------------------------------------
    seed: int = 0

    # -- derived quantities -------------------------------------------------

    @property
    def num_processors(self) -> int:
        return self.num_clusters * self.procs_per_cluster

    @property
    def l2_blocks_per_cache(self) -> int:
        return max(1, self.l2_bytes // self.block_bytes)

    @property
    def total_cache_blocks(self) -> int:
        """Machine-wide secondary-cache capacity in blocks (size-factor base)."""
        return self.l2_blocks_per_cache * self.num_processors

    def home_of(self, block: int) -> int:
        """Home cluster of a memory block (round-robin interleave, §5)."""
        return block % self.num_clusters

    def block_of(self, addr: int) -> int:
        """Memory block containing a byte address."""
        return addr // self.block_bytes

    def validate(self) -> None:
        """Raise ValueError on any inconsistent field combination."""
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if self.procs_per_cluster < 1:
            raise ValueError("procs_per_cluster must be >= 1")
        if self.block_bytes < 1 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a positive power of two")
        for name in ("l1_bytes", "l2_bytes"):
            if getattr(self, name) < self.block_bytes:
                raise ValueError(f"{name} must hold at least one block")
        if self.sparse_assoc < 1:
            raise ValueError("sparse_assoc must be >= 1")
        if self.sparse_size_factor is not None and self.sparse_size_factor <= 0:
            raise ValueError("sparse_size_factor must be positive")
        if self.shared_entry_group is not None:
            if self.shared_entry_group < 1:
                raise ValueError("shared_entry_group must be >= 1")
            if self.sparse_size_factor is not None:
                raise ValueError(
                    "shared_entry_group and sparse_size_factor are mutually "
                    "exclusive directory organizations"
                )
        if self.network not in ("uniform", "mesh"):
            raise ValueError("network must be 'uniform' or 'mesh'")

    def with_(self, **changes) -> "MachineConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)

    def cache_key_fields(self) -> Dict[str, Any]:
        """Canonical, JSON-safe mapping of every config field, sorted by name.

        This is the config half of the content-addressed result-cache key
        (see :mod:`repro.analysis.cache`): two configs hash equal exactly
        when every dataclass field compares equal, independent of how the
        config was constructed.  All fields are scalars (or ``None``), so
        the mapping serializes deterministically with ``sort_keys=True``.
        """
        return {f.name: getattr(self, f.name) for f in sorted(fields(self), key=lambda f: f.name)}

    # -- paper-style composed latencies (for documentation/tests) -----------

    @property
    def local_miss_cycles(self) -> float:
        """Read miss served by local memory (paper: ~23 cycles)."""
        return self.bus_cycles

    @property
    def remote_2cluster_cycles(self) -> float:
        """Clean remote read: request leg + home service + reply leg (~60)."""
        return 2 * self.net_msg_cycles + self.bus_cycles

    @property
    def remote_3cluster_cycles(self) -> float:
        """Dirty-remote read: 3 legs + directory + owner cache (~80)."""
        return (
            3 * self.net_msg_cycles
            + self.dir_service_cycles
            + self.cache_service_cycles
        )

