"""Processor caches: set-associative levels with DASH's 3-state protocol.

States are per-line: INVALID (absent), SHARED (clean, possibly replicated
machine-wide), DIRTY (modified, exclusive machine-wide at cluster
granularity).  The hierarchy follows the DASH prototype: a write-through
primary cache that only filters hits, and a write-back secondary cache
that is the coherence point (inclusion is enforced — invalidating or
evicting an L2 line purges the L1 copy).

Each set is a plain insertion-ordered ``dict`` tag->state used as an LRU
stack: lookups re-insert lines at the MRU end; victims pop from the LRU
end (the first key in insertion order).  Dirty evictions park the block
in a *writeback buffer* until the home directory has processed the
writeback, so a forwarded request racing the writeback still finds the
data — exactly the role of DASH's writeback buffers.  Which transition
happens is decided by the node rows of :mod:`repro.core.protocol`;
a :class:`ProcessorCache` is their view of one processor.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.protocol import LineState
from repro.obs.tracer import NULL_TRACER


class CacheLevel:
    """One set-associative cache level (tags only; no data is simulated).

    Sets are materialised on first install, so an empty cache costs the
    same whatever its capacity and every whole-cache walk is proportional
    to the sets ever filled.  Walks go in ascending set index: that is the
    order a dense array of sets would give, and checkpoints and invariant
    reports are defined by it.  A set emptied again keeps its ``dict`` —
    re-creating one per direct-mapped eviction costs more than it saves.
    """

    __slots__ = ("num_sets", "assoc", "_sets")

    def __init__(self, capacity_bytes: int, block_bytes: int, assoc: int) -> None:
        capacity_blocks = max(1, capacity_bytes // block_bytes)
        assoc = min(assoc, capacity_blocks)
        self.assoc = assoc
        self.num_sets = max(1, capacity_blocks // assoc)
        #: set index -> LRU stack, for sets that have ever held a line
        self._sets: Dict[int, Dict[int, LineState]] = {}

    def lookup(self, block: int) -> Optional[LineState]:
        """State of ``block`` if present; refreshes LRU position."""
        s = self._sets.get(block % self.num_sets)
        if s is None:
            return None
        state = s.pop(block, None)
        if state is not None:
            s[block] = state  # re-insert at the MRU end
        return state

    def peek(self, block: int) -> Optional[LineState]:
        """State without touching LRU (for snoops and invariant checks)."""
        s = self._sets.get(block % self.num_sets)
        return None if s is None else s.get(block)

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Fill ``block``; returns the evicted ``(block, state)`` if any."""
        index = block % self.num_sets
        s = self._sets.get(index)
        if s is None:
            self._sets[index] = {block: state}
            return None
        if s.pop(block, None) is not None:
            s[block] = state  # refresh state and LRU position
            return None
        victim = None
        if len(s) >= self.assoc:
            vblock = next(iter(s))  # LRU end: oldest insertion
            victim = (vblock, s.pop(vblock))
        s[block] = state
        return victim

    def set_state(self, block: int, state: LineState) -> None:
        """Change an existing line's state (no LRU side effects)."""
        s = self._sets.get(block % self.num_sets)
        if s is not None and block in s:
            s[block] = state

    def invalidate(self, block: int) -> Optional[LineState]:
        """Drop ``block``; returns its state if it was present."""
        s = self._sets.get(block % self.num_sets)
        return None if s is None else s.pop(block, None)

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        """Iterate over all (block, state) pairs currently cached."""
        sets = self._sets
        for index in sorted(sets):
            yield from sets[index].items()

    def occupancy(self) -> int:
        """Number of valid lines held."""
        return sum(map(len, self._sets.values()))

    def to_state(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """``(set index, [(block, state), ...])`` per non-empty set, in
        ascending set order; pairs are in LRU→MRU insertion order."""
        sets = self._sets
        return [
            (index, [(block, int(state)) for block, state in sets[index].items()])
            for index in sorted(sets)
            if sets[index]
        ]

    def load_state(self, sets: List[Tuple[int, List[Tuple[int, int]]]]) -> None:
        """Restore :meth:`to_state` (same geometry); order is the LRU stack."""
        restored: Dict[int, Dict[int, LineState]] = {}
        for index, pairs in sets:
            if (
                not 0 <= index < self.num_sets
                or len(pairs) > self.assoc
                or any(block % self.num_sets != index for block, _ in pairs)
            ):
                raise ValueError(
                    f"cache geometry mismatch: snapshot set {index} with "
                    f"{len(pairs)} lines does not fit {self.num_sets} sets "
                    f"of {self.assoc} ways"
                )
            restored[index] = {block: LineState(state) for block, state in pairs}
        self._sets = restored


class ProcessorCache:
    """Two-level hierarchy for one processor; L2 is the coherence point."""

    __slots__ = ("l1", "l2", "wb_buffer", "tracer", "tid")

    def __init__(
        self,
        block_bytes: int,
        l1_bytes: int,
        l1_assoc: int,
        l2_bytes: int,
        l2_assoc: int,
        tracer=NULL_TRACER,
        tid: int = 0,
    ) -> None:
        self.l1 = CacheLevel(l1_bytes, block_bytes, l1_assoc)
        self.l2 = CacheLevel(l2_bytes, block_bytes, l2_assoc)
        #: dirty blocks evicted but not yet acknowledged by their home
        self.wb_buffer: set[int] = set()
        #: observability sink (machine-global processor id in ``tid``)
        self.tracer = tracer
        self.tid = tid

    # -- probes (no state change beyond LRU refresh) -----------------------

    def probe_read(self, block: int) -> Optional[str]:
        """``"l1"`` / ``"l2"`` on a read hit, else ``None``.

        The probes run once per shared reference; both inline
        :meth:`CacheLevel.lookup` (pop + re-insert at the MRU end) to
        skip the per-level call overhead on the hot path.
        """
        l1 = self.l1
        l2 = self.l2
        s2 = l2._sets.get(block % l2.num_sets)
        state2 = None
        if s2 is not None:
            state2 = s2.pop(block, None)
            if state2 is not None:
                s2[block] = state2  # refresh L2 LRU (inclusion backing line)
        s1 = l1._sets.get(block % l1.num_sets)
        if s1 is not None:
            state = s1.pop(block, None)
            if state is not None:
                s1[block] = state
                return "l1"
        if state2 is not None:
            return "l2"
        return None

    def probe_write(self, block: int) -> bool:
        """True if writable (L2 DIRTY); refreshes the L2 line either way."""
        l2 = self.l2
        s2 = l2._sets.get(block % l2.num_sets)
        if s2 is None:
            return False
        state = s2.pop(block, None)
        if state is not None:
            s2[block] = state
        if state is LineState.DIRTY:
            self.l1.lookup(block)
            return True
        return False

    def state(self, block: int) -> Optional[LineState]:
        """Coherence state (L2), no LRU side effects."""
        return self.l2.peek(block)

    def has_ghost(self, block: int) -> bool:
        """The evicted DIRTY line is parked in the writeback buffer."""
        return block in self.wb_buffer

    # -- state transitions (applied for repro.core.protocol) ---------------

    def install(self, block: int, state: LineState) -> Optional[Tuple[int, bool]]:
        """Fill both levels; returns the evicted ``(block, was_dirty)`` —
        a fill evicts at most one line — or ``None``.

        A DIRTY victim is parked in the writeback buffer (the caller must
        issue the writeback); a SHARED victim is reported so the caller
        can send a replacement hint when that option is enabled.
        """
        eviction = None
        victim = self.l2.install(block, state)
        if victim is not None:
            vblock, vstate = victim
            was_dirty = vstate is LineState.DIRTY
            self.l1.invalidate(vblock)  # inclusion
            if was_dirty:
                self.wb_buffer.add(vblock)
            if self.tracer.enabled:
                self.tracer.record(
                    "cache.evict", self.tracer.now(), None, self.tid,
                    vblock, was_dirty,
                )
            eviction = (vblock, was_dirty)
        self.l1.install(block, LineState.SHARED)  # L1 is write-through/clean
        return eviction

    def clean(self, block: int) -> None:
        """DIRTY -> SHARED (no LRU side effects)."""
        self.l2.set_state(block, LineState.SHARED)

    def invalidate(self, block: int, txn_id: Optional[int] = None) -> bool:
        """Drop the block everywhere; returns True if a copy existed."""
        had = self.l2.invalidate(block) is not None
        self.l1.invalidate(block)
        had_wb = block in self.wb_buffer
        self.wb_buffer.discard(block)
        if (had or had_wb) and self.tracer.enabled:
            self.tracer.record(
                "cache.inval", self.tracer.now(), None, self.tid, block, txn_id
            )
        return had or had_wb

    def release_ghost(self, block: int) -> None:
        """The home has absorbed the writeback: free the buffer slot."""
        self.wb_buffer.discard(block)

    # -- state capture (simulation checkpointing) --------------------------

    def to_state(self) -> Dict[str, object]:
        """Lossless snapshot: both levels' LRU stacks + writeback buffer."""
        return {
            "l1": self.l1.to_state(),
            "l2": self.l2.to_state(),
            # membership-only set: sorted for a canonical encoding
            "wb_buffer": sorted(self.wb_buffer),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`to_state` onto an identically configured pair."""
        self.l1.load_state(state["l1"])  # type: ignore[arg-type]
        self.l2.load_state(state["l2"])  # type: ignore[arg-type]
        self.wb_buffer = set(state["wb_buffer"])  # type: ignore[arg-type]

    # -- auditing ----------------------------------------------------------

    def check_inclusion(self) -> List[int]:
        """Blocks violating the inclusion invariant (L1 without L2 backing).

        The L2 is the coherence point: an L1 line the L2 does not back
        would survive invalidations addressed to the L2.  Returns the
        offending blocks (empty when the hierarchy is consistent); the
        runtime invariant checker audits this on every machine sweep
        (and block by block, with two ``peek`` calls, in strict mode).
        """
        return [
            block
            for block, _state in self.l1.blocks()
            if self.l2.peek(block) is None
        ]
