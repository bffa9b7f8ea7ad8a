"""Directory stores: full-map (one entry per block) and sparse (§4.2).

The *sparse directory* is the paper's second proposal: since total cache
capacity is a small fraction of main memory, most directory entries are
empty at any instant, so the directory is organized as a set-associative
cache of entries with **no backing store** — replacing an entry is safe
once every cache copy of the victim block has been invalidated.

Both stores expose the same interface, so the DASH directory controller is
oblivious to which one it is running on.  Eviction side effects (the
invalidations a replacement forces) are returned to the caller, which owns
message generation and RAC bookkeeping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.base import DirectoryEntry, DirectoryScheme
from repro.core.replacement import ReplacementPolicy, make_policy


@dataclass
class DirLine:
    """One directory line: presence entry plus protocol state.

    ``dirty`` mirrors the paper's single dirty bit; when set, ``owner`` is
    the node with the exclusive copy and the presence entry is unused.
    """

    entry: DirectoryEntry
    dirty: bool = False
    owner: Optional[int] = None

    def reset(self) -> None:
        """Clear presence, dirty, and owner state."""
        self.entry.reset()
        self.dirty = False
        self.owner = None

    def is_empty(self) -> bool:
        """True when neither dirty nor covering any sharer."""
        return not self.dirty and self.entry.is_empty()


@dataclass
class Eviction:
    """A directory-entry replacement: whose cached copies must die."""

    block: int
    targets: Tuple[int, ...]
    was_dirty: bool
    owner: Optional[int]


class AllWaysBusy(Exception):
    """Every candidate victim in the set is pinned by an in-flight
    transaction; the caller must retry once one completes (the analogue of
    a DASH busy-NAK)."""


class DirectoryStore(ABC):
    """Container mapping block addresses to :class:`DirLine` objects."""

    def __init__(self, scheme: DirectoryScheme) -> None:
        self.scheme = scheme
        # Statistics a controller may want to report.
        self.allocations = 0
        self.replacements = 0

    @abstractmethod
    def peek(self, block: int) -> Optional[DirLine]:
        """The line for ``block`` if present, else ``None``; no side effects
        (what invariant checks and audits read the directory with)."""

    def lookup(self, block: int) -> Optional[DirLine]:
        """:meth:`peek` as a protocol access: a store with a replacement
        policy overrides this to count it as a use of the entry."""
        return self.peek(block)

    @abstractmethod
    def get_or_allocate(
        self, block: int, avoid: FrozenSet[int] = frozenset()
    ) -> Tuple[DirLine, List[Eviction]]:
        """The line for ``block``, allocating if needed.

        Returns the line plus any evictions the allocation forced (always
        empty for the full-map store).  ``avoid`` lists blocks whose
        entries must not be victimized (they have transactions in flight);
        a sparse store raises :class:`AllWaysBusy` when a replacement is
        needed but every candidate is avoided.
        """

    @abstractmethod
    def release(self, block: int) -> None:
        """Hint that ``block``'s line is now empty and may be freed."""

    def blocks_invalidated_with(self, block: int) -> Tuple[int, ...]:
        """Blocks whose cached copies an invalidation of ``block`` kills.

        Per-block stores return just ``(block,)``; a store that pools the
        presence entry of several blocks (``SharedEntryDirectory``) must
        return the whole group, because after the entry is reset the
        directory can no longer cover the group-mates' sharers.
        """
        return (block,)

    def lines(self) -> "Iterator[Tuple[int, DirLine]]":
        """Iterate ``(block, line)`` over every held line, no side effects.

        Used by the runtime invariant checker to audit representation
        contracts; concrete stores must override.
        """
        raise NotImplementedError

    @abstractmethod
    def capacity_entries(self) -> Optional[int]:
        """Number of entry slots, or ``None`` for an unbounded full map."""

    def occupancy(self) -> int:
        """Number of entries currently held (observability's occupancy
        sample); concrete stores override with an O(1) count when one is
        available."""
        return sum(1 for _ in self.lines())

    # -- state capture (simulation checkpointing) ------------------------

    @abstractmethod
    def to_state(self) -> Dict[str, Any]:
        """Lossless plain-data snapshot of every line and counter."""

    @abstractmethod
    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`to_state` onto a store built with identical
        parameters.  Entries are rebuilt via the scheme, so scheme-level
        state (:meth:`DirectoryScheme.load_state`) must be applied after
        all stores sharing the scheme have been restored."""


class FullMapDirectory(DirectoryStore):
    """One entry per memory block — the paper's non-sparse baseline.

    Lines are created lazily (a block never referenced needs no Python
    object) but are *logically* always present, so lookups allocate too
    and nothing is ever evicted.
    """

    def __init__(self, scheme: DirectoryScheme) -> None:
        super().__init__(scheme)
        self._lines: Dict[int, DirLine] = {}

    def peek(self, block: int) -> Optional[DirLine]:
        return self._lines.get(block)

    def get_or_allocate(
        self, block: int, avoid: FrozenSet[int] = frozenset()
    ) -> Tuple[DirLine, List[Eviction]]:
        line = self._lines.get(block)
        if line is None:
            line = DirLine(entry=self.scheme.make_entry())
            self._lines[block] = line
            self.allocations += 1
        return line, []

    def release(self, block: int) -> None:
        # Dropping empty lines keeps the dict proportional to the touched
        # working set rather than all of memory.
        line = self._lines.get(block)
        if line is not None and line.is_empty():
            del self._lines[block]

    def capacity_entries(self) -> Optional[int]:
        return None

    def lines(self) -> Iterator[Tuple[int, DirLine]]:
        yield from self._lines.items()

    def occupancy(self) -> int:
        """Lines currently materialized (the touched working set)."""
        return len(self._lines)

    def to_state(self) -> Dict[str, Any]:
        return {
            "allocations": self.allocations,
            "replacements": self.replacements,
            # Insertion order preserved so lines() iterates identically.
            "lines": [
                (block, line.entry.to_state(), line.dirty, line.owner)
                for block, line in self._lines.items()
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.allocations = state["allocations"]
        self.replacements = state["replacements"]
        self._lines = {
            block: DirLine(
                entry=self.scheme.entry_from_state(entry_state),
                dirty=dirty,
                owner=owner,
            )
            for block, entry_state, dirty, owner in state["lines"]
        }


@dataclass
class _Way:
    tag: int = -1  # -1 (no block has it) while the way is empty
    line: Optional[DirLine] = None


class SparseDirectory(DirectoryStore):
    """Set-associative directory cache without a backing store (§4.2).

    ``num_entries`` is typically expressed as ``size_factor`` x (total
    cache blocks in the machine); §6.3 studies size factors 1, 2 and 4
    with associativities 1, 2 and 4 under LRU / random / LRA replacement.
    """

    def __init__(
        self,
        scheme: DirectoryScheme,
        num_entries: int,
        associativity: int = 4,
        *,
        policy: str | ReplacementPolicy = "random",
        seed: int = 0,
        stride: int = 1,
        offset: int = 0,
    ) -> None:
        """``stride``/``offset`` describe which blocks this directory is
        home to: blocks ``b`` with ``b % stride == offset``.  A per-cluster
        DASH directory passes ``stride=num_clusters, offset=cluster_id`` so
        sets are indexed by the *home-local* frame number — without this,
        home-interleaved addresses would alias into a fraction of the sets.
        """
        super().__init__(scheme)
        if stride < 1 or not 0 <= offset < stride:
            raise ValueError("need stride >= 1 and 0 <= offset < stride")
        self.stride = stride
        self.offset = offset
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if num_entries % associativity:
            raise ValueError(
                f"num_entries ({num_entries}) must be a multiple of "
                f"associativity ({associativity})"
            )
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        if isinstance(policy, ReplacementPolicy):
            self.policy = policy
        else:
            self.policy = make_policy(policy, self.num_sets, associativity, seed=seed)
        #: set index -> ways, for sets an entry has ever been filled into;
        #: every walk goes in ascending set index (the dense-array order)
        self._sets: Dict[int, List[_Way]] = {}
        self._valid = 0  # entries held: _fill +1, _evict / release -1

    # -- address mapping -------------------------------------------------

    def _local(self, block: int) -> int:
        if block % self.stride != self.offset:
            raise ValueError(
                f"block {block} is not homed here (stride={self.stride}, "
                f"offset={self.offset})"
            )
        return block // self.stride

    def set_index(self, block: int) -> int:
        """The set a (home-local) block maps to."""
        return self._local(block) % self.num_sets

    def tag_of(self, block: int) -> int:
        """The tag stored for a (home-local) block."""
        return self._local(block) // self.num_sets

    def _block_of(self, set_index: int, tag: int) -> int:
        local = tag * self.num_sets + set_index
        return local * self.stride + self.offset

    # -- DirectoryStore interface ----------------------------------------

    def lookup(self, block: int) -> Optional[DirLine]:
        tag, s = divmod(self._local(block), self.num_sets)
        for w, way in enumerate(self._sets.get(s, ())):
            if way.tag == tag:
                self.policy.touch(s, w)
                return way.line
        return None

    def peek(self, block: int) -> Optional[DirLine]:
        tag, s = divmod(self._local(block), self.num_sets)
        for way in self._sets.get(s, ()):
            if way.tag == tag:
                return way.line
        return None

    def get_or_allocate(
        self, block: int, avoid: FrozenSet[int] = frozenset()
    ) -> Tuple[DirLine, List[Eviction]]:
        tag, s = divmod(self._local(block), self.num_sets)
        ways = self._sets.get(s)
        if ways is None:
            ways = self._sets[s] = [_Way() for _ in range(self.associativity)]
        for w, way in enumerate(ways):
            if way.tag == tag:
                self.policy.touch(s, w)
                assert way.line is not None
                return way.line, []
        # Prefer an empty slot; replacement only on a genuinely full set.
        for w, way in enumerate(ways):
            if way.line is None:
                self.allocations += 1
                return self._fill(s, w, tag), []
        candidates = [
            w
            for w, way in enumerate(ways)
            if self._block_of(s, way.tag) not in avoid
        ]
        if not candidates:
            raise AllWaysBusy(
                f"set {s}: all {self.associativity} ways pinned by in-flight "
                f"transactions"
            )
        self.allocations += 1
        victim_way = self.policy.choose_victim(s, candidates)
        evictions = [self._evict(s, victim_way)]
        self.replacements += 1
        return self._fill(s, victim_way, tag), evictions

    def _fill(self, set_index: int, way_index: int, tag: int) -> DirLine:
        way = self._sets[set_index][way_index]
        way.tag = tag
        way.line = DirLine(entry=self.scheme.make_entry())
        self._valid += 1
        self.policy.allocate(set_index, way_index)
        return way.line

    def _evict(self, set_index: int, way_index: int) -> Eviction:
        way = self._sets[set_index][way_index]
        assert way.line is not None
        line = way.line
        block = self._block_of(set_index, way.tag)
        if line.dirty:
            targets = (line.owner,) if line.owner is not None else ()
        else:
            targets = tuple(line.entry.targets_sorted())
        ev = Eviction(
            block=block, targets=targets, was_dirty=line.dirty, owner=line.owner
        )
        # the line is torn down, not just dropped: an entry may hold scheme
        # state (an overflow-cache wide slot) that must not outlive it
        line.reset()
        way.tag = -1
        way.line = None
        self._valid -= 1
        return ev

    def release(self, block: int) -> None:
        """Free the slot when its line is empty (e.g. after a writeback).

        The paper: "empty slots are also created when a processor cache
        replaces and writes back a dirty line."
        """
        tag, s = divmod(self._local(block), self.num_sets)
        for way in self._sets.get(s, ()):
            if way.tag == tag:
                assert way.line is not None
                if way.line.is_empty():
                    way.tag = -1
                    way.line = None
                    self._valid -= 1
                return

    def capacity_entries(self) -> Optional[int]:
        return self.num_entries

    def lines(self) -> Iterator[Tuple[int, DirLine]]:
        for s in sorted(self._sets):
            for way in self._sets[s]:
                if way.line is not None:
                    yield self._block_of(s, way.tag), way.line

    # -- introspection for tests/benchmarks --------------------------------

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return self._valid

    def to_state(self) -> Dict[str, Any]:
        """Occupied sets only, ascending, as ``(set index, row)``: one slot
        per way, ``None`` when empty, else ``(block, entry, dirty, owner)``."""
        return {
            "allocations": self.allocations,
            "replacements": self.replacements,
            "policy": self.policy.to_state(),
            "sets": [
                (
                    s,
                    [
                        (
                            self._block_of(s, way.tag),
                            way.line.entry.to_state(),
                            way.line.dirty,
                            way.line.owner,
                        )
                        if way.line is not None
                        else None
                        for way in self._sets[s]
                    ],
                )
                for s in sorted(self._sets)
                if any(way.line is not None for way in self._sets[s])
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.allocations = state["allocations"]
        self.replacements = state["replacements"]
        self.policy.load_state(state["policy"])
        self._sets = {}
        self._valid = 0
        for s, row in state["sets"]:
            if (
                not 0 <= s < self.num_sets
                or len(row) != self.associativity
                or any(slot and self.set_index(slot[0]) != s for slot in row)
            ):
                raise ValueError(
                    "sparse-directory geometry mismatch: snapshot set "
                    f"{s} does not fit {self.num_sets} sets of "
                    f"{self.associativity} ways"
                )
            ways = self._sets[s] = []
            for slot in row:
                if slot is None:
                    ways.append(_Way())
                    continue
                block, entry_state, dirty, owner = slot
                line = DirLine(
                    entry=self.scheme.entry_from_state(entry_state),
                    dirty=dirty,
                    owner=owner,
                )
                ways.append(_Way(tag=self.tag_of(block), line=line))
                self._valid += 1

    def layout(self) -> Tuple[Tuple[int, ...], ...]:
        """Resident block per (set, way); ``-1`` marks an empty way.

        A side-effect-free snapshot of the placement (no replacement-policy
        touches), used by the model checker's canonical state encoding and
        handy for audits/tests.  Dense: one row per set, touched or not.
        """
        untouched = (_Way(),) * self.associativity
        return tuple(
            tuple(
                -1 if way.line is None else self._block_of(s, way.tag)
                for way in self._sets.get(s, untouched)
            )
            for s in range(self.num_sets)
        )


def sparse_entries_for_size_factor(
    total_cache_blocks: int, size_factor: float, associativity: int
) -> int:
    """Directory entries for a §6.3-style *size factor*.

    Size factor 1 means as many directory entries as there are cache
    blocks in the whole machine; rounded up to a multiple of the
    associativity so sets are uniform.
    """
    raw = max(associativity, int(total_cache_blocks * size_factor))
    if raw % associativity:
        raw += associativity - raw % associativity
    return raw
