"""A DASH processing cluster: processors, caches, and the snoopy bus.

Intra-cluster coherence is bus-based (§2): references satisfied inside
the cluster never generate network messages, which is why the directory
tracks *clusters*, not processors.  With one processor per cluster — the
configuration of every experiment in the paper — the bus paths reduce to
plain hit/miss handling; the multi-processor paths are exercised by the
DASH-prototype-shaped tests.

Bus rules (Illinois-flavoured, at cluster scope):

* read, sibling has any copy   -> cache-to-cache fill, reader SHARED;
* write, some local cache DIRTY -> bus ownership transfer (the cluster
  already owns the block machine-wide, no directory involvement);
* write, only SHARED copies     -> directory transaction (other clusters
  may hold copies);
* otherwise                     -> directory transaction.

Hot-path note: ``try_local`` runs once per shared reference.  Its hit
and miss outcomes carry no per-call state, so each cluster pre-builds
one :class:`LocalResult` per outcome and returns the same (treated as
immutable) object every time; with a single cache per cluster the
sibling/ownership bus scans are skipped outright.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.machine.cache import LineState, ProcessorCache
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
        #: the paper's configuration: one cache, so no bus paths exist
        self._single = config.procs_per_cluster == 1
        # Pre-built outcomes for the stateless cases (see module docstring).
        self._hit_l1 = LocalResult(True, config.l1_hit_cycles, where="l1")
        self._hit_l2 = LocalResult(True, config.l2_hit_cycles, where="l2")
        self._miss = LocalResult(False)

    # -- local access paths -------------------------------------------------

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
            if self._single:
                return self._miss
            if self._sibling_with_copy(block, proc_idx) is not None:
                eviction = cache.install(block, LineState.SHARED)
                return LocalResult(
                    True, self.config.bus_transfer_cycles, eviction,
                    where="bus",
                )
            return self._miss

        # write
        if cache.probe_write(block) == "hit":
            return self._hit_l1
        if self._single:
            # probe_write already inspected the only cache's L2: a DIRTY
            # line would have hit, so the cluster cannot be the live owner
            return self._miss
        if self._owns_live(block):
            # Cluster is the machine-wide owner: bus ownership transfer.
            for i, c in enumerate(self.caches):
                if i != proc_idx:
                    c.invalidate(block)
            eviction = cache.install(block, LineState.DIRTY)
            return LocalResult(
                True, self.config.bus_transfer_cycles, eviction, where="bus"
            )
        return self._miss

    def _sibling_with_copy(self, block: int, excluding: int) -> Optional[int]:
        for i, c in enumerate(self.caches):
            if i != excluding and (c.has_copy(block) or block in c.wb_buffer):
                return i
        return None

    def _owns_live(self, block: int) -> bool:
        """A *live* DIRTY line exists in some local cache.

        Writeback-buffer ghosts deliberately do not count: once a dirty
        line has been evicted, the cluster has relinquished ownership and
        a new write must go through the directory (whose re-grant cancels
        the in-flight writeback).  Ghosts only serve incoming forwards.
        """
        for c in self.caches:
            if c.l2.peek(block) is LineState.DIRTY:
                return True
        return False

    # -- effects applied by directories ----------------------------------------

    def install_from_directory(
        self, proc_idx: int, block: int, dirty: bool
    ) -> Optional[Tuple[int, bool]]:
        """Fill after a directory transaction completed; returns the
        evicted ``(block, was_dirty)``, if any."""
        state = LineState.DIRTY if dirty else LineState.SHARED
        return self.caches[proc_idx].install(block, state)

    def invalidate_block(
        self, block: int, txn_id: Optional[int] = None
    ) -> bool:
        """Bus invalidation broadcast; True if any cache had a copy.

        ``txn_id`` tags the traced ``cache.inval`` events with the
        transaction that caused them (causal chain reconstruction).
        """
        had = False
        for c in self.caches:
            had |= c.invalidate(block, txn_id=txn_id)
        return had

    def invalidate_if_clean(
        self, block: int, txn_id: Optional[int] = None
    ) -> bool:
        """Invalidate only a clean copy; dirty data is left untouched.

        Used for directory-group invalidations (shared-entry stores):
        a dirty group-mate is tracked by its own per-block owner state
        and must not be silently destroyed.
        """
        if self.holds_dirty(block):  # live dirty line or in-flight writeback
            return False
        return self.invalidate_block(block, txn_id=txn_id)

    def downgrade_block(self, block: int) -> bool:
        """Owner downgrade for a forwarded read; True if a copy was here."""
        had = False
        for c in self.caches:
            had |= c.downgrade(block)
        return had

    def has_copy(self, block: int) -> bool:
        """Any cache here holds the block (incl. writeback-buffer ghosts)."""
        for c in self.caches:
            if c.has_copy(block) or block in c.wb_buffer:
                return True
        return False

    def holds_dirty(self, block: int) -> bool:
        """Dirty data lives here (live line or writeback-buffer ghost)."""
        for c in self.caches:
            if c.holds_dirty(block):
                return True
        return False

    def copies_besides_wb(self, block: int) -> bool:
        """Any live cache line (ignoring writeback-buffer ghosts)?"""
        for c in self.caches:
            if c.has_copy(block):
                return True
        return False

    def writeback_done(self, block: int) -> None:
        """Home processed our writeback: release the buffer slot."""
        for c in self.caches:
            c.writeback_done(block)
