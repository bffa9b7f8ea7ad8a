"""Processor caches: set-associative levels with DASH's 3-state protocol.

States are per-line: INVALID (absent), SHARED (clean, possibly replicated
machine-wide), DIRTY (modified, exclusive machine-wide at cluster
granularity).  The hierarchy follows the DASH prototype: a write-through
primary cache that only filters hits, and a write-back secondary cache
that is the coherence point (inclusion is enforced — invalidating or
evicting an L2 line purges the L1 copy).

A level is one flat ``dict`` block->state plus a victim-finding record
per occupied set (:class:`CacheLevel`).  Dirty evictions park the block
in a *writeback buffer* until the home directory has processed the
writeback, so a forwarded request racing the writeback still finds the
data — exactly the role of DASH's writeback buffers.  Which transition
happens is decided by the node rows of :mod:`repro.core.protocol`;
a :class:`ProcessorCache` is their view of one processor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.protocol import LineState
from repro.obs.tracer import NULL_TRACER

#: bound once: reading a member off an ``Enum`` class costs ~0.1 us a time
_DIRTY, _SHARED = LineState.DIRTY, LineState.SHARED


class CacheLevel:
    """One set-associative cache level (tags only; no data is simulated).

    ``_lines`` maps every resident block to its state; ``_sets`` holds a
    record per occupied set, only to find victims and walk in set order:
    the resident block when direct-mapped (its LRU order is trivially
    itself), else an insertion-ordered ``dict`` of its blocks, LRU first.
    Walks go in ascending set index, the order a dense array of sets
    would give; checkpoints and invariant reports are defined by it.
    """

    __slots__ = ("num_sets", "assoc", "_lines", "_sets")

    def __init__(self, capacity_bytes: int, block_bytes: int, assoc: int) -> None:
        capacity_blocks = max(1, capacity_bytes // block_bytes)
        assoc = min(assoc, capacity_blocks)
        self.assoc = assoc
        self.num_sets = max(1, capacity_blocks // assoc)
        #: every resident block -> its state
        self._lines: Dict[int, LineState] = {}
        #: occupied set -> its block (assoc 1) or ``{block: None}`` LRU->MRU
        self._sets: Dict[int, Any] = {}

    def lookup(self, block: int) -> Optional[LineState]:
        """State of ``block`` if present; refreshes LRU position."""
        state = self._lines.get(block)
        if state is not None and self.assoc != 1:
            ways = self._sets[block % self.num_sets]
            ways[block] = ways.pop(block)  # re-insert at the MRU end
        return state

    def peek(self, block: int) -> Optional[LineState]:
        """State without touching LRU (for snoops and invariant checks)."""
        return self._lines.get(block)

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Fill ``block``; returns the evicted ``(block, state)`` if any."""
        lines = self._lines
        index = block % self.num_sets
        if self.assoc == 1:
            vblock = self._sets.get(index)
            self._sets[index] = block
        else:
            ways = self._sets.setdefault(index, {})
            vblock = None
            if block not in ways and len(ways) >= self.assoc:
                vblock = next(iter(ways))  # LRU end: oldest insertion
                del ways[vblock]
            ways.pop(block, None)
            ways[block] = None  # at the MRU end
        lines[block] = state
        return None if vblock in (None, block) else (vblock, lines.pop(vblock))

    def set_state(self, block: int, state: LineState) -> None:
        """Change an existing line's state (no LRU side effects)."""
        if block in self._lines:
            self._lines[block] = state

    def invalidate(self, block: int) -> Optional[LineState]:
        """Drop ``block``; returns its state if it was present."""
        state = self._lines.pop(block, None)
        if state is not None:
            index = block % self.num_sets
            if self.assoc == 1 or len(self._sets[index]) == 1:
                del self._sets[index]
            else:
                del self._sets[index][block]
        return state

    def _walk(self) -> Iterator[Tuple[int, Iterable[int]]]:
        """``(set index, blocks LRU->MRU)`` per occupied set, ascending."""
        sets = self._sets
        direct = self.assoc == 1
        for index in sorted(sets):
            yield index, (sets[index],) if direct else sets[index]

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        """Iterate over all (block, state) pairs currently cached."""
        lines = self._lines
        return ((block, lines[block]) for _, ways in self._walk() for block in ways)

    def occupancy(self) -> int:
        """Number of valid lines held."""
        return len(self._lines)

    def to_state(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """``(set index, [(block, state), ...])`` per non-empty set, in
        ascending set order; pairs are in LRU→MRU insertion order."""
        lines = self._lines
        return [
            (index, [(block, int(lines[block])) for block in ways])
            for index, ways in self._walk()
        ]

    def load_state(self, sets: List[Tuple[int, List[Tuple[int, int]]]]) -> None:
        """Restore :meth:`to_state` (same geometry); order is the LRU stack."""
        lines: Dict[int, LineState] = {}
        records: Dict[int, Any] = {}
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
            lines.update((block, LineState(state)) for block, state in pairs)
            ways = dict.fromkeys(block for block, _ in pairs)
            if ways:
                records[index] = next(iter(ways)) if self.assoc == 1 else ways
        self._lines = lines
        self._sets = records


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

        The probes run once per shared reference: one ``in`` / ``get`` per
        direct-mapped level, :meth:`CacheLevel.lookup` only where a set
        has an LRU order to refresh."""
        l1 = self.l1
        l2 = self.l2
        if l2.assoc != 1:
            l2.lookup(block)  # refresh L2 LRU (inclusion backing line)
        if block in l1._lines:
            if l1.assoc != 1:
                l1.lookup(block)
            return "l1"
        return "l2" if block in l2._lines else None

    def probe_write(self, block: int) -> bool:
        """True if writable (L2 DIRTY); refreshes the L2 line either way."""
        l2 = self.l2
        state = l2._lines.get(block) if l2.assoc == 1 else l2.lookup(block)
        if state is _DIRTY:
            if self.l1.assoc != 1:
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
            was_dirty = vstate is _DIRTY
            self.l1.invalidate(vblock)  # inclusion
            if was_dirty:
                self.wb_buffer.add(vblock)
            if self.tracer.enabled:
                self.tracer.record(
                    "cache.evict", self.tracer.now(), None, self.tid,
                    vblock, was_dirty,
                )
            eviction = (vblock, was_dirty)
        self.l1.install(block, _SHARED)  # L1 is write-through/clean
        return eviction

    def clean(self, block: int) -> None:
        """DIRTY -> SHARED (no LRU side effects)."""
        self.l2.set_state(block, _SHARED)

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
        return [b for b, _ in self.l1.blocks() if self.l2.peek(b) is None]
