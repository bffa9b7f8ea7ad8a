"""Processor caches: direct-mapped levels with DASH's 3-state protocol.

States are per-line: INVALID (absent), SHARED (clean, possibly replicated
machine-wide), DIRTY (modified, exclusive machine-wide at cluster
granularity).  The hierarchy follows the DASH prototype: a write-through
primary cache that only filters hits, and a write-back secondary cache
that is the coherence point (inclusion is enforced — invalidating or
evicting an L2 line purges the L1 copy).

Both levels are direct-mapped, as in the paper machine.  A
:class:`DirectMappedLevel` keeps pages of set slots, each the resident
block or ``None``, plus the set of its DIRTY blocks, so a resident line
costs one slot and a set has no recency order to keep.

Dirty evictions park the block in a *writeback buffer* until the home
directory has processed the writeback, so a forwarded request racing the
writeback still finds the data — exactly the role of DASH's writeback
buffers.  Which transition happens is decided by the node rows of
:mod:`repro.core.protocol`; a :class:`ProcessorCache` is their view of
one processor.

The coherence audit (:mod:`repro.machine.invariants`) reads the caches
only through a :class:`CacheCensus`, so every read of the slot layout
lives in this module.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.protocol import LineState
from repro.obs.tracer import NULL_TRACER

#: bound once: reading a member off an ``Enum`` class costs ~0.1 us a time
_DIRTY, _SHARED = LineState.DIRTY, LineState.SHARED
#: ``bytes.translate`` table: a ``block in dirty`` flag -> its state byte
_STATE_OF_FLAG = bytes([_SHARED, _DIRTY]).ljust(256, b"\0")
#: the bytes a snapshot's states may hold
_STATE_BYTES = bytes(state.value for state in LineState)
#: sets per page of a :class:`DirectMappedLevel` (a power of two)
PAGE_SETS = 16
_SHIFT, _MASK = PAGE_SETS.bit_length() - 1, PAGE_SETS - 1  # set -> page, slot
_EMPTY = (None,) * PAGE_SETS  # what a page not yet allocated reads as


class DirectMappedLevel:
    """One direct-mapped cache level (tags only; no data is simulated).

    ``_pages`` maps each page of :data:`PAGE_SETS` sets ever filled into
    (and kept once empty) to a slot per set: its block or ``None``, all a
    set of one way needs.  ``_dirty`` holds the resident blocks in state
    DIRTY, every other one is SHARED; ``_count`` is how many there are.
    Walks go by page, then slot: in ascending set index, the order a dense
    array of sets would give; checkpoints and invariant reports are
    defined by it.
    """

    __slots__ = ("num_sets", "_pages", "_dirty", "_count")

    def __init__(self, capacity_bytes: int, block_bytes: int) -> None:
        self.num_sets = max(1, capacity_bytes // block_bytes)
        self._pages: Dict[int, List[Optional[int]]] = {}
        #: the resident blocks in state DIRTY
        self._dirty: Set[int] = set()
        self._count = 0

    def peek(self, block: int) -> Optional[LineState]:
        """State of ``block`` if resident, else ``None``."""
        index = block % self.num_sets
        if self._pages.get(index >> _SHIFT, _EMPTY)[index & _MASK] != block:
            return None
        return _DIRTY if block in self._dirty else _SHARED

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Fill ``block``; returns the evicted ``(block, state)`` if any."""
        dirty = self._dirty
        index = block % self.num_sets
        page = self._pages.get(index >> _SHIFT)
        if page is None:
            page = self._pages[index >> _SHIFT] = [None] * PAGE_SETS
        index &= _MASK
        vblock = page[index]
        page[index] = block
        victim = None
        if vblock is None:
            self._count += 1
        elif vblock != block:
            if vblock in dirty:
                dirty.remove(vblock)
                victim = (vblock, _DIRTY)
            else:
                victim = (vblock, _SHARED)
        if state is _DIRTY:
            dirty.add(block)
        else:
            dirty.discard(block)
        return victim

    def set_state(self, block: int, state: LineState) -> None:
        """Change an existing line's state."""
        if self.peek(block) is not None:
            if state is _DIRTY:
                self._dirty.add(block)
            else:
                self._dirty.discard(block)

    def invalidate(self, block: int) -> Optional[LineState]:
        """Drop ``block``; returns its state if it was present."""
        index = block % self.num_sets
        page = self._pages.get(index >> _SHIFT, _EMPTY)
        index &= _MASK
        if page[index] != block:
            return None
        page[index] = None
        self._count -= 1
        if block in self._dirty:
            self._dirty.remove(block)
            return _DIRTY
        return _SHARED

    def _walk(self) -> List[int]:
        """Resident blocks in ascending set index."""
        pages = self._pages
        return [b for key in sorted(pages) for b in pages[key] if b is not None]

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        """Iterate over all (block, state) pairs currently cached."""
        dirty = self._dirty
        return ((block, _DIRTY if block in dirty else _SHARED)
                for block in self._walk())

    def occupancy(self) -> int:
        """Number of valid lines held."""
        return self._count

    def to_state(self) -> Tuple[array, bytes]:
        """The :meth:`blocks` walk as two columns: blocks, one state byte each."""
        blocks = array("q", self._walk())
        flags = bytes(map(self._dirty.__contains__, blocks))
        return blocks, flags.translate(_STATE_OF_FLAG)

    def load_state(self, state: Tuple[array, bytes]) -> None:
        """Restore :meth:`to_state` (same geometry).  A snapshot fits when
        its columns match, every byte is a :class:`LineState` and no two
        blocks share a set (which also refuses a block given twice)."""
        blocks, states = state
        fresh = DirectMappedLevel(self.num_sets, 1)
        for block in blocks:  # a block filled into a taken set is not counted
            fresh.install(block, _SHARED)
        if not fresh._count == len(blocks) == len(states) or states.translate(
                None, _STATE_BYTES):
            raise ValueError(
                f"cache geometry mismatch: snapshot of {len(blocks)} blocks "
                f"and {len(states)} states does not fit {self.num_sets} "
                f"direct-mapped sets")
        self._pages, self._count = fresh._pages, fresh._count
        self._dirty = {
            block for block, byte in zip(blocks, states) if byte == _DIRTY}


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
        if l1_assoc != 1 or l2_assoc != 1:
            raise ValueError(
                f"the processor caches are direct-mapped: l1_assoc and "
                f"l2_assoc must be 1, got {l1_assoc} and {l2_assoc}")
        self.l1 = DirectMappedLevel(l1_bytes, block_bytes)
        self.l2 = DirectMappedLevel(l2_bytes, block_bytes)
        #: dirty blocks evicted but not yet acknowledged by their home
        self.wb_buffer: set[int] = set()
        #: observability sink (machine-global processor id in ``tid``)
        self.tracer = tracer
        self.tid = tid

    # -- probes (no state change) ------------------------------------------

    def probe_read(self, block: int) -> Optional[str]:
        """``"l1"`` / ``"l2"`` on a read hit, else ``None``.

        The probes run once per shared reference, so they read the set
        slots in place: a ``peek`` call per level would cost more than the
        read."""
        l1, l2 = self.l1, self.l2
        index = block % l1.num_sets
        if l1._pages.get(index >> _SHIFT, _EMPTY)[index & _MASK] == block:
            return "l1"
        index = block % l2.num_sets
        page = l2._pages.get(index >> _SHIFT, _EMPTY)
        return "l2" if page[index & _MASK] == block else None

    def probe_write(self, block: int) -> bool:
        """True if writable (L2 DIRTY)."""
        return block in self.l2._dirty  # only resident blocks are in it

    def state(self, block: int) -> Optional[LineState]:
        """Coherence state (L2)."""
        return self.l2.peek(block)

    def has_ghost(self, block: int) -> bool:
        """The evicted DIRTY line is parked in the writeback buffer."""
        return block in self.wb_buffer

    # -- state transitions (applied for repro.core.protocol) ---------------

    def install(self, block: int, state: LineState) -> Optional[int]:
        """Fill both levels; returns the DIRTY victim's block — a fill
        evicts at most one line — or ``None``.

        A DIRTY victim is parked in the writeback buffer (the caller must
        issue the writeback); a SHARED victim leaves silently.
        """
        writeback = None
        victim = self.l2.install(block, state)
        if victim is not None:
            vblock, vstate = victim
            was_dirty = vstate is _DIRTY
            self.l1.invalidate(vblock)  # inclusion
            if was_dirty:
                self.wb_buffer.add(vblock)
                writeback = vblock
            if self.tracer.enabled:
                self.tracer.record(
                    "cache.evict", self.tracer.now(), None, self.tid,
                    vblock, was_dirty,
                )
        self.l1.install(block, _SHARED)  # L1 is write-through/clean
        return writeback

    def clean(self, block: int) -> None:
        """DIRTY -> SHARED."""
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
        """Lossless snapshot: both levels' lines + writeback buffer."""
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


class CacheCensus:
    """The coherence audit's read of every processor cache in a machine.

    ``nodes[c]`` are cluster ``c``'s caches.  The census keeps the level
    objects, never their page maps (a checkpoint restore rebinds those),
    and answers in cluster bitmasks (bit ``c`` is cluster ``c``), the
    form a directory entry's ``covered()`` takes.  Every cache of a
    machine has one geometry, so a block's page key and slot are worked
    out once per level, then read in place in each cache.
    """

    __slots__ = ("_levels", "_l1_sets", "_l2_sets")

    def __init__(self, nodes: List[List[ProcessorCache]]) -> None:
        #: (cluster bit, cluster id, L1, L2) per cache, in cluster order
        self._levels = [
            (1 << node, node, cache.l1, cache.l2)
            for node, caches in enumerate(nodes)
            for cache in caches
        ]
        first = nodes[0][0]
        self._l1_sets, self._l2_sets = first.l1.num_sets, first.l2.num_sets

    def holders(self, block: int) -> Tuple[int, int, Tuple[int, ...]]:
        """``(dirty, clean, orphans)`` for one block: the masks of the
        clusters whose L2 holds it DIRTY / SHARED (a cluster of two caches
        can be in both), and the cluster of each cache whose L1 holds it
        with no L2 line behind it, in cache order."""
        index = block % self._l2_sets
        key2, slot2 = index >> _SHIFT, index & _MASK
        index = block % self._l1_sets
        key1, slot1 = index >> _SHIFT, index & _MASK
        dirty = clean = 0
        orphans: Tuple[int, ...] = ()
        for bit, node, l1, l2 in self._levels:
            if l2._pages.get(key2, _EMPTY)[slot2] == block:
                if block in l2._dirty:
                    dirty |= bit
                else:
                    clean |= bit
            elif l1._pages.get(key1, _EMPTY)[slot1] == block:
                orphans += (node,)
        return dirty, clean, orphans

    def sweep(self) -> Tuple[List[Tuple[int, int]], Dict[int, List[int]]]:
        """The whole machine at once: every ``(block, cluster)`` whose L1
        line has no L2 line behind it, by cluster, cache and set, and
        ``block -> [dirty, clean]`` masks for every block an L2 holds, in
        the order the walk first meets them."""
        orphans: List[Tuple[int, int]] = []
        holders: Dict[int, List[int]] = {}
        get = holders.get
        for bit, node, l1, l2 in self._levels:
            resident = l2._walk()
            backed = set(resident)
            l1_blocks = l1._walk()
            if not backed.issuperset(l1_blocks):
                orphans += [(b, node) for b in l1_blocks if b not in backed]
            dirty = l2._dirty
            for block in resident:
                pair = get(block)
                if pair is None:
                    pair = holders[block] = [0, 0]
                pair[block not in dirty] |= bit
        return orphans, holders
