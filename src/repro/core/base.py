"""Abstract directory-entry protocol shared by all schemes.

A *directory entry* records which nodes (clusters in DASH terminology) may
hold a cached copy of one memory block.  Every scheme in the paper differs
only in how it represents that set:

* exactly (full bit vector),
* as a handful of pointers (limited pointer schemes),
* as a handful of pointers that degrade into a coarse region vector
  (the paper's coarse vector proposal), or
* as a composite ternary pointer (the superset scheme).

Each entry class states that set exactly once, as the side-effect-free
bitmask :meth:`DirectoryEntry.covered`; every other view of it
(``targets_sorted``, ``invalidation_targets``, ``is_empty``,
``might_share``) is derived here, so a scheme cannot disagree with itself
and reading an entry can never change a run.

The contract is deliberately *conservative*: ``covered`` may be a
superset of the true sharers (extraneous invalidations are the price the
cheap representations pay) but must never be a proper subset, because
missing an invalidation would break coherence.  The single
exception is ``Dir_iNB``, which avoids supersets by forcibly evicting
sharers at *record* time: ``record_sharer`` returns the nodes that must be
invalidated immediately to keep the representation exact.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple


class DirectoryEntry(ABC):
    """Presence bookkeeping for a single memory block.

    Entries are mutable value objects; the machinery above them (the
    :class:`~repro.core.sparse.DirectoryStore` implementations and the DASH
    directory controller) owns dirty/owner state transitions and decides
    *when* to consult the entry.
    """

    __slots__ = ()

    @abstractmethod
    def record_sharer(self, node: int) -> Tuple[int, ...]:
        """Note that ``node`` now caches the block.

        Returns a (possibly empty) tuple of nodes that must be invalidated
        *now* to make room.  Only ``Dir_iNB`` ever returns a non-empty
        tuple; every other scheme absorbs the new sharer by widening its
        representation.
        """

    @abstractmethod
    def remove_sharer(self, node: int) -> None:
        """Best-effort removal (replacement hint / writeback).

        Coarse representations may be unable to remove a single node (a
        region bit covers ``r`` nodes); they must stay conservative and
        keep the node covered rather than drop other possible sharers.
        """

    @abstractmethod
    def covered(self) -> int:
        """Bitmask of every node an invalidation of the block must reach.

        The one statement of who the entry covers: a superset of the true
        sharers, equal to them only while the representation is exact.
        Must be free of side effects — audits, the model checker and the
        protocol all read it, and only ``record_sharer`` /
        ``remove_sharer`` / ``reset`` may advance state shared between
        entries (the overflow cache's LRU).
        """

    @abstractmethod
    def is_exact(self) -> bool:
        """True while the representation still identifies sharers exactly
        (side-effect-free, like :meth:`covered`)."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all sharers (after an invalidation round completes)."""

    # -- state capture (simulation checkpointing) ------------------------

    @abstractmethod
    def to_state(self) -> Tuple[Any, ...]:
        """Plain-data snapshot of this entry, headed by a class tag.

        Together with :meth:`load_state` this must be *lossless*: a
        restored entry behaves identically to the original for every
        future operation, including representation-mode flags and the
        internal ordering that drives eviction/unravel order (pointer
        lists, SCI chains).  Shared external state — the scheme's RNG,
        the overflow cache's wide store — is snapshotted by
        :meth:`DirectoryScheme.to_state`, not here.
        """

    @abstractmethod
    def load_state(self, state: Tuple[Any, ...]) -> None:
        """Restore a snapshot produced by :meth:`to_state` (same scheme)."""

    @abstractmethod
    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        """Fingerprint of this entry with node ``n`` relabelled ``perm[n]``.

        What the model checker keys states by: everything that shapes the
        entry's future behaviour (mode flags, and pointer order where the
        scheme's ``ordered_entries`` says it is state), nothing that does
        not.  ``perm`` is drawn from the scheme's ``relabelling`` group.
        """

    # -- the views of covered(), derived once ---------------------------

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        """Covered nodes minus ``exclude``, ascending: the order the
        directory controller walks an invalidation round in."""
        mask = self.covered()
        for n in exclude:
            mask &= ~(1 << n)
        return mask_nodes(mask)

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        """:meth:`targets_sorted` as a set."""
        return frozenset(self.targets_sorted(exclude))

    def is_empty(self) -> bool:
        """True when no node is (conservatively) recorded as a sharer."""
        return not self.covered()

    def might_share(self, node: int) -> bool:
        """Conservatively: could ``node`` hold a copy?"""
        return bool(self.covered() >> node & 1)

    def _covered_as(self, perm: Sequence[int]) -> Tuple[int, ...]:
        """The covered set relabelled by ``perm``, ascending: the whole
        :meth:`encode` of an entry that is nothing but that set."""
        return tuple(sorted(perm[n] for n in mask_nodes(self.covered())))


class DirectoryScheme(ABC):
    """Factory plus metadata for one directory organization.

    ``num_nodes`` is the number of coherence participants the directory
    tracks — *clusters* in DASH.  Schemes that make randomized choices
    (victim selection in ``Dir_iNB``) draw from ``self.rng`` so whole
    simulations stay deterministic under a fixed seed.
    """

    #: short identifier, e.g. ``"Dir32"`` or ``"Dir3CV2"``
    name: str

    #: The scheme's representation contract, consumed by the runtime
    #: invariant checker (:mod:`repro.machine.invariants`):
    #:
    #: * ``"exact"`` — every entry identifies its sharers exactly at all
    #:   times (full bit vector, Dir_iNB, the SCI linked list); an entry
    #:   of such a scheme reporting ``is_exact() == False`` is a
    #:   representation bug, not a legal degradation;
    #: * ``"coarse"`` — entries may degrade to a conservative *superset*
    #:   on pointer overflow (Dir_iB's broadcast bit, Dir_iCV_r's region
    #:   vector, Dir_iX's composite pointer, the overflow cache).
    #:
    #: Either way ``covered()`` must cover the true sharers — the checker
    #: verifies coverage for all schemes and exactness only for
    #: ``"exact"`` ones.
    precision: str = "exact"

    #: the directory controller sends one invalidation at a time, each
    #: after the previous ack, in ``invalidation_chain`` order (SCI list)
    serial_invalidations: bool = False

    #: ``record_sharer`` may return victims to invalidate now (Dir_iNB);
    #: such a scheme cannot pool entries and bounds its entries'
    #: ``covered()`` to ``num_pointers`` nodes
    evicts_on_overflow: bool = False
    num_pointers: int  #: set by the limited-pointer families

    #: Node relabellings that preserve what an entry means — the model
    #: checker's symmetry group: ``"any"`` permutation, only those mapping
    #: each block of ``region_size`` nodes onto one block (``"regions"``),
    #: or ``"none"`` (bit-encoded node ids, state shared across entries).
    relabelling: str = "none"
    region_size: int  #: set by a ``"regions"`` scheme

    #: the order of an entry's pointers is state (victim slots, SCI
    #: chains), so nodes with equal covered-set membership are still not
    #: interchangeable
    ordered_entries: bool = False

    #: entries share mutable scheme state (the overflow cache's wide
    #: store), fingerprinted by :meth:`encode_shared`
    couples_entries: bool = False

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.all_nodes = (1 << num_nodes) - 1  # covered() of a broadcast
        self.rng = random.Random(seed)

    @abstractmethod
    def make_entry(self) -> DirectoryEntry:
        """A fresh, empty entry."""

    @abstractmethod
    def presence_bits(self) -> int:
        """Bits of directory memory one entry spends on sharer bookkeeping.

        Excludes the dirty bit and any sparse-directory tag/valid bits;
        :mod:`repro.core.overhead` composes those.
        """

    def entry_bits(self, *, tag_bits: int = 0) -> int:
        """Total bits per entry: presence + 1 dirty bit + optional tag."""
        return self.presence_bits() + 1 + tag_bits

    # -- state capture (simulation checkpointing) ------------------------

    def to_state(self) -> Dict[str, Any]:
        """Snapshot of scheme-level mutable state (the victim-choice RNG,
        plus whatever shared structures a subclass adds)."""
        return {"rng": self.rng.getstate()}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`to_state` onto a scheme built with identical
        constructor parameters.  Apply *after* restoring entries, so
        shared structures (the overflow cache's wide store) end up
        exactly as saved regardless of entry-restore side effects."""
        self.rng.setstate(state["rng"])

    def entry_from_state(self, state: Tuple[Any, ...]) -> DirectoryEntry:
        """A fresh entry restored from :meth:`DirectoryEntry.to_state`."""
        entry = self.make_entry()
        entry.load_state(state)
        return entry

    def encode_shared(
        self, lines: Iterable[Tuple[int, DirectoryEntry]]
    ) -> Optional[Tuple[Any, ...]]:
        """Fingerprint of the state entries share, given every live
        ``(block, entry)``; ``None`` unless ``couples_entries``."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} nodes={self.num_nodes}>"


def pointer_bits(num_nodes: int) -> int:
    """Bits needed for one node pointer: ``ceil(log2(num_nodes))``."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    return max(1, (num_nodes - 1).bit_length())


def check_node(node: int, num_nodes: int) -> None:
    """Raise ValueError unless ``0 <= node < num_nodes``."""
    if not 0 <= node < num_nodes:
        raise ValueError(f"node {node} out of range [0, {num_nodes})")


def check_state_tag(state: Tuple[Any, ...], tag: str, cls: type) -> None:
    """Raise ValueError unless ``state`` carries the expected class tag."""
    found = state[0] if state else None
    if found != tag:
        raise ValueError(
            f"cannot restore {cls.__name__} from entry state tagged {found!r}"
            f" (expected {tag!r})"
        )


class PointerListEntry(DirectoryEntry):
    """Shared plumbing for schemes that start life as a pointer list.

    ``scheme.num_pointers`` bounds the list; each subclass says what
    happens on overflow when :meth:`_record_pointer` returns ``None``.
    """

    __slots__ = ("scheme", "pointers")

    def __init__(self, scheme: "DirectoryScheme") -> None:
        self.scheme = scheme
        self.pointers: list[int] = []

    # subclasses may switch representations; this helper keeps pointer
    # handling uniform while the entry is still in pointer mode.
    def _record_pointer(self, node: int) -> Optional[Tuple[int, ...]]:
        """Add to the pointer list if possible.

        Returns the eviction tuple (usually empty) when the add was
        handled in pointer mode, or ``None`` when the list is full and the
        subclass must handle overflow.
        """
        check_node(node, self.scheme.num_nodes)
        if node in self.pointers:
            return ()
        if len(self.pointers) < self.scheme.num_pointers:
            self.pointers.append(node)
            return ()
        return None

    def _remove_pointer(self, node: int) -> None:
        try:
            self.pointers.remove(node)
        except ValueError:
            pass


def nodes_mask(nodes: Iterable[int]) -> int:
    """Bitmask with the bit of every node in ``nodes`` set."""
    mask = 0
    for n in nodes:
        mask |= 1 << n
    return mask


def mask_nodes(mask: int) -> "list[int]":
    """Ascending node ids with their bit set in ``mask``.

    Two scans, chosen by density: peeling the low bit costs one step per
    *set* bit (the 1-2 target rounds that dominate the paper's figures),
    walking ``bin(mask)`` one step per *bit* (a broadcast, a wide coarse
    vector), so the string walk wins once about a quarter are set.
    """
    if 4 * mask.bit_count() > mask.bit_length():
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
