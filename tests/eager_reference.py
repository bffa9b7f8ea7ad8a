"""Eager reference models of the set-associative machine state.

A direct-mapped level keeps one map of set -> resident block plus its
DIRTY blocks, a set-associative ``CacheLevel`` one map of its resident
lines plus a record per occupied set; both snapshot as two packed
columns, ``ProcessorCache`` reads two direct-mapped levels' maps in place, and
``SparseDirectory`` and the replacement policies keep only the sets
something has been installed into.  These models are the obvious dense
versions — one LRU-stack ``dict`` or slot row per possible set, allocated
up front, a snapshot that appends block and state byte as its dense walk
meets them, and a two-level hierarchy that goes through each level's own
``lookup`` — and ``test_lazy_state.py`` drives both with the same
operation sequences and requires every return value, victim, walk and
snapshot to agree.  They are written for obviousness, not
speed: no shared helpers with the code under test beyond
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
    """A list of ``num_sets`` insertion-ordered dicts, each an LRU stack."""

    def __init__(self, capacity_bytes: int, block_bytes: int, assoc: int) -> None:
        capacity_blocks = max(1, capacity_bytes // block_bytes)
        self.assoc = min(assoc, capacity_blocks)
        self.num_sets = max(1, capacity_blocks // self.assoc)
        self.sets: List[Dict[int, LineState]] = [{} for _ in range(self.num_sets)]

    def lookup(self, block: int) -> Optional[LineState]:
        s = self.sets[block % self.num_sets]
        if block not in s:
            return None
        state = s.pop(block)
        s[block] = state
        return state

    def peek(self, block: int) -> Optional[LineState]:
        return self.sets[block % self.num_sets].get(block)

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        s = self.sets[block % self.num_sets]
        if block in s:
            del s[block]
            s[block] = state
            return None
        victim = None
        if len(s) >= self.assoc:
            vblock = next(iter(s))
            victim = (vblock, s.pop(vblock))
        s[block] = state
        return victim

    def set_state(self, block: int, state: LineState) -> None:
        s = self.sets[block % self.num_sets]
        if block in s:
            s[block] = state

    def invalidate(self, block: int) -> Optional[LineState]:
        return self.sets[block % self.num_sets].pop(block, None)

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        for s in self.sets:
            yield from s.items()

    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    def to_state(self) -> Tuple[array, bytes]:
        blocks, states = array("q"), bytearray()
        for s in self.sets:
            for block, state in s.items():
                blocks.append(block)
                states.append(state)
        return blocks, bytes(states)


class EagerProcessorCache:
    """Two ``EagerCacheLevel``s with the hierarchy's rules spelled out: a
    probe refreshes every level it hits, a fill lands in both levels (L1
    clean), an L2 victim leaves L1 too (inclusion) and a DIRTY one waits
    in the writeback buffer."""

    def __init__(
        self, block_bytes: int, l1_bytes: int, l1_assoc: int,
        l2_bytes: int, l2_assoc: int,
    ) -> None:
        self.l1 = EagerCacheLevel(l1_bytes, block_bytes, l1_assoc)
        self.l2 = EagerCacheLevel(l2_bytes, block_bytes, l2_assoc)
        self.wb_buffer: Set[int] = set()

    def probe_read(self, block: int) -> Optional[str]:
        in_l2 = self.l2.lookup(block) is not None
        if self.l1.lookup(block) is not None:
            return "l1"
        return "l2" if in_l2 else None

    def probe_write(self, block: int) -> bool:
        if self.l2.lookup(block) is LineState.DIRTY:
            self.l1.lookup(block)
            return True
        return False

    def install(self, block: int, state: LineState) -> Optional[Tuple[int, bool]]:
        eviction = None
        victim = self.l2.install(block, state)
        if victim is not None:
            vblock, vstate = victim
            self.l1.invalidate(vblock)
            if vstate is LineState.DIRTY:
                self.wb_buffer.add(vblock)
            eviction = (vblock, vstate is LineState.DIRTY)
        self.l1.install(block, LineState.SHARED)
        return eviction

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
