"""Block-grouped directory entries — the other §7 future-work idea.

"Similarly, we can make multiple memory blocks share one wide entry."

A :class:`SharedEntryDirectory` is a :class:`DirectoryStore` in which
``group_size`` consecutive home blocks map to one directory line.  The
presence entry then records the union of the sharers of every block in
the group, so storage drops by ``group_size`` while writes over-
invalidate: a write to one block must conservatively invalidate every
cluster caching *any* block of the group (they may cache the written
one).  This is false sharing moved into the directory, and the ablation
bench quantifies it against the coarse vector's way of spending fewer
bits.

Dirty state remains per-block (a single dirty bit per group would force
ownership ping-ponging); only the sharer bookkeeping is pooled, which is
how the suggestion is usually read and the cheapest-hardware variant.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Tuple

from repro.core.base import DirectoryEntry, DirectoryScheme
from repro.core.sparse import DirectoryStore, DirLine, Eviction


class _GroupLine(DirLine):
    """A DirLine whose entry is shared with the other blocks of its group.

    ``dirty``/``owner`` stay per block; ``entry`` (and therefore
    ``reset``) is shared, so clearing after an invalidation round wipes
    the whole group's sharer knowledge — conservative and cheap, exactly
    what pooled storage buys.
    """

    __slots__ = ()


class SharedEntryDirectory(DirectoryStore):
    """Full-map store with one presence entry per ``group_size`` blocks."""

    def __init__(
        self,
        scheme: DirectoryScheme,
        group_size: int = 2,
        *,
        stride: int = 1,
        offset: int = 0,
    ) -> None:
        super().__init__(scheme)
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if stride < 1 or not 0 <= offset < stride:
            raise ValueError("need stride >= 1 and 0 <= offset < stride")
        self.group_size = group_size
        self.stride = stride
        self.offset = offset
        self._entries: Dict[int, DirectoryEntry] = {}  # group -> shared entry
        self._lines: Dict[int, _GroupLine] = {}  # block -> line view

    def group_of(self, block: int) -> int:
        """The entry group a home block belongs to."""
        if block % self.stride != self.offset:
            raise ValueError(
                f"block {block} is not homed here (stride={self.stride}, "
                f"offset={self.offset})"
            )
        return (block // self.stride) // self.group_size

    def peek(self, block: int) -> Optional[DirLine]:
        return self._lines.get(block)

    def get_or_allocate(
        self, block: int, avoid: AbstractSet[int] = frozenset()
    ) -> Tuple[DirLine, List[Eviction]]:
        line = self._lines.get(block)
        if line is None:
            group = self.group_of(block)
            entry = self._entries.get(group)
            if entry is None:
                entry = self.scheme.make_entry()
                self._entries[group] = entry
                self.allocations += 1
            line = _GroupLine(entry=entry)
            self._lines[block] = line
        return line, []

    def release(self, block: int) -> None:
        line = self._lines.get(block)
        if line is not None and line.is_empty():
            del self._lines[block]
            group = self.group_of(block)
            if not any(
                self.group_of(b) == group for b in self._lines
            ):
                self._entries.pop(group, None)

    def capacity_entries(self) -> Optional[int]:
        return None

    def lines(self) -> Iterator[Tuple[int, DirLine]]:
        yield from self._lines.items()

    def occupancy(self) -> int:
        """Lines currently materialized (one per block, not per group)."""
        return len(self._lines)

    def blocks_invalidated_with(self, block: int) -> Tuple[int, ...]:
        group = self.group_of(block)
        first_local = group * self.group_size
        return tuple(
            (first_local + i) * self.stride + self.offset
            for i in range(self.group_size)
        )

    def presence_bits_per_block(self) -> float:
        """Amortized presence storage per memory block."""
        return self.scheme.presence_bits() / self.group_size

    def to_state(self) -> Dict[str, Any]:
        return {
            "allocations": self.allocations,
            "replacements": self.replacements,
            # Entries serialized once per group; lines reference their
            # group so the aliasing (several lines sharing one entry
            # object) survives the round trip.
            "entries": [
                (group, entry.to_state())
                for group, entry in self._entries.items()
            ],
            "lines": [
                (block, self.group_of(block), line.dirty, line.owner)
                for block, line in self._lines.items()
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.allocations = state["allocations"]
        self.replacements = state["replacements"]
        self._entries = {
            group: self.scheme.entry_from_state(entry_state)
            for group, entry_state in state["entries"]
        }
        self._lines = {
            block: _GroupLine(
                entry=self._entries[group], dirty=dirty, owner=owner
            )
            for block, group, dirty, owner in state["lines"]
        }
