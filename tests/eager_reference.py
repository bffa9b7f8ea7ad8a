"""Eager reference models of the machine state the simulator keeps lazily.

A ``DirectMappedLevel`` keeps its sets in pages of slots, allocated by
the first fill into a page, plus the set of its DIRTY blocks, and
snapshots as two packed columns; ``ProcessorCache`` reads its two
levels' slots in place; ``SparseDirectory`` and the replacement policies
keep only the sets something has been installed into.  These models are
the obvious dense versions — one slot per possible set, allocated up
front, that holds the resident block and its state; a snapshot that
appends block and state byte as its dense walk meets them; a two-level
hierarchy that goes through each level's own ``peek``; one slot row and
one stamp row per directory set — and ``test_lazy_state.py`` drives both
with the same operation sequences and requires every return value,
victim, walk and snapshot to agree.  They are written for obviousness,
not speed: no shared helpers with the code under test beyond
``DirLine``/``Eviction``/``AllWaysBusy`` (plain records).
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.base import DirectoryScheme
from repro.core.sparse import AllWaysBusy, DirLine, Eviction
from repro.machine.cache import LineState


class EagerCacheLevel:
    """A direct-mapped level as a row of ``num_sets`` slots, each ``None``
    or the resident ``(block, state)``."""

    def __init__(self, capacity_bytes: int, block_bytes: int) -> None:
        self.num_sets = max(1, capacity_bytes // block_bytes)
        self.slots: List[Optional[Tuple[int, LineState]]] = [None] * self.num_sets

    def peek(self, block: int) -> Optional[LineState]:
        slot = self.slots[block % self.num_sets]
        return slot[1] if slot is not None and slot[0] == block else None

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        index = block % self.num_sets
        slot = self.slots[index]
        self.slots[index] = (block, state)
        if slot is None or slot[0] == block:
            return None
        return slot

    def set_state(self, block: int, state: LineState) -> None:
        if self.peek(block) is not None:
            self.slots[block % self.num_sets] = (block, state)

    def invalidate(self, block: int) -> Optional[LineState]:
        state = self.peek(block)
        if state is not None:
            self.slots[block % self.num_sets] = None
        return state

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        return (slot for slot in self.slots if slot is not None)

    def occupancy(self) -> int:
        return sum(slot is not None for slot in self.slots)

    def to_state(self) -> Tuple[array, bytes]:
        blocks, states = array("q"), bytearray()
        for block, state in self.blocks():
            blocks.append(block)
            states.append(state)
        return blocks, bytes(states)


class EagerProcessorCache:
    """Two ``EagerCacheLevel``s with the hierarchy's rules spelled out: a
    fill lands in both levels (L1 clean), an L2 victim leaves L1 too
    (inclusion) and a DIRTY one waits in the writeback buffer."""

    def __init__(self, block_bytes: int, l1_bytes: int, l2_bytes: int) -> None:
        self.l1 = EagerCacheLevel(l1_bytes, block_bytes)
        self.l2 = EagerCacheLevel(l2_bytes, block_bytes)
        self.wb_buffer: Set[int] = set()

    def probe_read(self, block: int) -> Optional[str]:
        if self.l1.peek(block) is not None:
            return "l1"
        return "l2" if self.l2.peek(block) is not None else None

    def probe_write(self, block: int) -> bool:
        return self.l2.peek(block) is LineState.DIRTY

    def install(self, block: int, state: LineState) -> Optional[int]:
        writeback = None
        victim = self.l2.install(block, state)
        if victim is not None:
            vblock, vstate = victim
            self.l1.invalidate(vblock)
            if vstate is LineState.DIRTY:
                self.wb_buffer.add(vblock)
                writeback = vblock
        self.l1.install(block, LineState.SHARED)
        return writeback

    def clean(self, block: int) -> None:
        self.l2.set_state(block, LineState.SHARED)

    def invalidate(self, block: int) -> bool:
        had = self.l2.invalidate(block) is not None
        self.l1.invalidate(block)
        had_wb = block in self.wb_buffer
        self.wb_buffer.discard(block)
        return had or had_wb

    def release_ghost(self, block: int) -> None:
        self.wb_buffer.discard(block)

    def to_state(self) -> Dict[str, object]:
        return {
            "l1": self.l1.to_state(),
            "l2": self.l2.to_state(),
            "wb_buffer": sorted(self.wb_buffer),
        }


class _EagerPolicy:
    def __init__(self, num_sets: int, associativity: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.clock = 0
        self.stamps = [[0] * associativity for _ in range(num_sets)]

    def _stamp(self, set_index: int, way: int) -> None:
        self.clock += 1
        self.stamps[set_index][way] = self.clock

    def touch(self, set_index: int, way: int) -> None:
        pass

    def allocate(self, set_index: int, way: int) -> None:
        pass

    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        stamps = self.stamps[set_index]
        return min(ways, key=lambda w: stamps[w])


class EagerLRU(_EagerPolicy):
    touch = allocate = _EagerPolicy._stamp


class EagerLRA(_EagerPolicy):
    allocate = _EagerPolicy._stamp


class EagerRandom(_EagerPolicy):
    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        return ways[self.rng.randrange(len(ways))]


EAGER_POLICIES = {"lru": EagerLRU, "lra": EagerLRA, "random": EagerRandom}


class EagerSparseDirectory:
    """``num_sets`` x ``associativity`` slots of ``(block, line)`` or ``None``."""

    def __init__(
        self,
        scheme: DirectoryScheme,
        num_entries: int,
        associativity: int,
        *,
        policy: str,
        seed: int = 0,
        stride: int = 1,
        offset: int = 0,
    ) -> None:
        self.scheme = scheme
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.stride = stride
        self.offset = offset
        self.policy = EAGER_POLICIES[policy](self.num_sets, associativity, seed)
        self.slots: List[List[Optional[Tuple[int, DirLine]]]] = [
            [None] * associativity for _ in range(self.num_sets)
        ]
        self.allocations = 0
        self.replacements = 0

    def set_index(self, block: int) -> int:
        assert block % self.stride == self.offset
        return (block // self.stride) % self.num_sets

    def _find(self, block: int) -> Optional[int]:
        for w, slot in enumerate(self.slots[self.set_index(block)]):
            if slot is not None and slot[0] == block:
                return w
        return None

    def peek(self, block: int) -> Optional[DirLine]:
        w = self._find(block)
        return None if w is None else self.slots[self.set_index(block)][w][1]

    def lookup(self, block: int) -> Optional[DirLine]:
        w = self._find(block)
        if w is None:
            return None
        self.policy.touch(self.set_index(block), w)
        return self.peek(block)

    def get_or_allocate(
        self, block: int, avoid: FrozenSet[int] = frozenset()
    ) -> Tuple[DirLine, List[Eviction]]:
        line = self.lookup(block)
        if line is not None:
            return line, []
        s = self.set_index(block)
        row = self.slots[s]
        evictions = []
        if None in row:
            w = row.index(None)
        else:
            candidates = [w for w, slot in enumerate(row) if slot[0] not in avoid]
            if not candidates:
                raise AllWaysBusy(f"set {s}")
            w = self.policy.choose_victim(s, candidates)
            vblock, vline = row[w]
            if vline.dirty:
                targets = (vline.owner,) if vline.owner is not None else ()
            else:
                targets = tuple(sorted(vline.entry.invalidation_targets()))
            evictions.append(Eviction(vblock, targets, vline.dirty, vline.owner))
            self.replacements += 1
        self.allocations += 1
        line = DirLine(entry=self.scheme.make_entry())
        row[w] = (block, line)
        self.policy.allocate(s, w)
        return line, evictions

    def release(self, block: int) -> None:
        w = self._find(block)
        if w is not None and self.peek(block).is_empty():
            self.slots[self.set_index(block)][w] = None

    def lines(self) -> Iterator[Tuple[int, DirLine]]:
        for row in self.slots:
            for slot in row:
                if slot is not None:
                    yield slot

    def layout(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(-1 if slot is None else slot[0] for slot in row)
            for row in self.slots
        )

    def occupancy(self) -> int:
        return sum(slot is not None for row in self.slots for slot in row)
