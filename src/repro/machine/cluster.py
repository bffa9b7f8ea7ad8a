"""A DASH processing cluster: processors, caches, and the snoopy bus.

References satisfied inside the cluster never generate network messages
(§2), which is why the directory tracks *clusters*, not processors.  The
bus rules are the node rows L1-L5 of :mod:`repro.core.protocol`; a
cluster only prices them.

Hot-path note: ``try_local`` runs once per shared reference.  A hit
(L1/L3) is the requester's own cache probe, priced by the level that
held the line, so the hit path stays straight-line; hit and miss
outcomes carry no per-call state, so each is one pre-built (treated as
immutable) :class:`LocalResult`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import protocol
from repro.machine.cache import ProcessorCache
from repro.machine.config import MachineConfig
from repro.obs.tracer import NULL_TRACER


class LocalResult:
    """Outcome of attempting to satisfy a reference inside the cluster."""

    __slots__ = ("satisfied", "latency", "eviction", "where")

    def __init__(
        self,
        satisfied: bool,
        latency: float = 0.0,
        eviction: Optional[Tuple[int, bool]] = None,
        where: str = "",  # "l1" | "l2" | "bus" for stats
    ) -> None:
        self.satisfied = satisfied
        self.latency = latency
        #: the (block, was_dirty) victim of the fill performed, if any
        self.eviction = eviction
        self.where = where

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalResult(satisfied={self.satisfied}, "
            f"latency={self.latency}, eviction={self.eviction}, "
            f"where={self.where!r})"
        )


class Cluster:
    """One processing node: ``procs_per_cluster`` caches on a snoopy bus."""

    def __init__(
        self, cluster_id: int, config: MachineConfig, *, tracer=NULL_TRACER
    ) -> None:
        self.cluster_id = cluster_id
        self.config = config
        #: the node's processor views, as the kernel's node rows take them
        self.caches: List[ProcessorCache] = [
            ProcessorCache(
                config.block_bytes,
                config.l1_bytes,
                config.l1_assoc,
                config.l2_bytes,
                config.l2_assoc,
                tracer=tracer,
                tid=cluster_id * config.procs_per_cluster + i,
            )
            for i in range(config.procs_per_cluster)
        ]
        #: the paper's configuration: one cache, so no sibling to consult
        self._single = config.procs_per_cluster == 1
        # Pre-built outcomes for the stateless cases (see module docstring).
        self._hit_l1 = LocalResult(True, config.l1_hit_cycles, where="l1")
        self._hit_l2 = LocalResult(True, config.l2_hit_cycles, where="l2")
        self._miss = LocalResult(False)

    def try_local(self, proc_idx: int, block: int, is_write: bool) -> LocalResult:
        """Attempt to satisfy the reference without the directory.

        Applies all state changes when it succeeds.  On failure the caller
        must start a directory transaction; no state has changed.
        """
        cache = self.caches[proc_idx]
        if not is_write:
            hit = cache.probe_read(block)
            if hit is not None:
                return self._hit_l1 if hit == "l1" else self._hit_l2
        elif cache.probe_write(block):
            return self._hit_l1
        if self._single:
            return self._miss
        supplied, eviction = protocol.bus(self.caches, proc_idx, block, is_write)
        if not supplied:
            return self._miss
        return LocalResult(
            True, self.config.bus_transfer_cycles, eviction, where="bus"
        )
