"""Wide-entry overflow cache — the §7 "future work" scheme, as an extension.

"As suggested in [Archibald], we can associate small directory entries
with each memory block and allow these to overflow into a small cache of
much wider entries."

Every block gets ``i`` pointers.  When a block's sharer count exceeds
``i``, its sharers move into a shared, fully-associative *overflow cache*
of full-bit-vector entries.  If the overflow cache is itself full, the
least-recently-used wide entry is pushed out and its block falls back to a
broadcast bit in its small entry (coherence stays conservative).

The ablation bench compares this against ``Dir_iCV_r`` for the same
storage budget.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.base import (
    DirectoryEntry,
    DirectoryScheme,
    PointerListEntry,
    check_node,
    check_state_tag,
    nodes_mask,
    pointer_bits,
)


class _WideStore:
    """Shared LRU cache of full-bit-vector masks, keyed by entry identity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._masks: "OrderedDict[int, int]" = OrderedDict()

    def peek(self, key: int) -> int | None:
        """The mask, without counting as a use: only :meth:`put` (a
        ``record_sharer`` / ``remove_sharer``) advances the LRU, so no
        read of an entry can reorder later victims."""
        return self._masks.get(key)

    def put(self, key: int, mask: int) -> Tuple[int, int] | None:
        """Insert/update; returns an evicted (key, mask) pair if any."""
        evicted = None
        if key not in self._masks and len(self._masks) >= self.capacity:
            evicted = self._masks.popitem(last=False)
        self._masks[key] = mask
        self._masks.move_to_end(key)
        return evicted

    def drop(self, key: int) -> None:
        self._masks.pop(key, None)

    def __len__(self) -> int:
        return len(self._masks)

    def to_state(self) -> List[Tuple[int, int]]:
        """``(key, mask)`` pairs in LRU→MRU order (eviction order)."""
        return list(self._masks.items())

    def load_state(self, items: List[Tuple[int, int]]) -> None:
        self._masks = OrderedDict((int(k), int(m)) for k, m in items)


class OverflowCacheEntry(PointerListEntry):
    """Small entry: ``i`` pointers, a wide-mode flag, and a broadcast bit."""

    __slots__ = ("key", "wide", "broadcast")

    def __init__(self, scheme: "OverflowCacheScheme") -> None:
        super().__init__(scheme)
        self.key = scheme._next_key()
        self.wide = False
        self.broadcast = False

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.scheme.num_nodes)
        if self.broadcast:
            return ()
        store = self.scheme.wide_store
        if self.wide:
            mask = store.peek(self.key)
            if mask is None:
                # Our wide entry was evicted behind our back; degrade.
                self.wide = False
                self.broadcast = True
                return ()
            store.put(self.key, mask | (1 << node))
            return ()
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow into the wide store.
        evicted = store.put(self.key, nodes_mask(self.pointers) | 1 << node)
        self.wide = True
        self.scheme._wide_entries[self.key] = self
        self.pointers.clear()
        if evicted is not None:
            evicted_key, _ = evicted
            self.scheme._mark_broadcast(evicted_key)
        return ()

    def remove_sharer(self, node: int) -> None:
        if self.broadcast:
            return
        if self.wide:
            mask = self.scheme.wide_store.peek(self.key)
            if mask is not None:
                self.scheme.wide_store.put(self.key, mask & ~(1 << node))
            return
        self._remove_pointer(node)

    def covered(self) -> int:
        if self.wide:
            mask = self.scheme.wide_store.peek(self.key)
            if mask is not None:
                return mask
        elif not self.broadcast:
            return nodes_mask(self.pointers)
        return self.scheme.all_nodes  # broadcast, or evicted behind our back

    def is_exact(self) -> bool:
        if self.wide:
            return self.scheme.wide_store.peek(self.key) is not None
        return not self.broadcast

    def reset(self) -> None:
        if self.wide:
            self.scheme.wide_store.drop(self.key)
            self.scheme._wide_entries.pop(self.key, None)
        self.pointers.clear()
        self.wide = False
        self.broadcast = False

    def to_state(self) -> Tuple[Any, ...]:
        # The wide mask itself lives in the scheme's shared store and is
        # captured by OverflowCacheScheme.to_state (in LRU order); the
        # entry only carries its identity key into the snapshot.
        return ("of", tuple(self.pointers), self.key, self.wide, self.broadcast)

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "of", type(self))
        _, pointers, key, wide, broadcast = state
        registry = self.scheme._wide_entries
        # Guard the pop by identity: another entry being restored may
        # already occupy our construction-time key.
        if registry.get(self.key) is self:
            del registry[self.key]
        self.key = key
        if wide:
            # under the saved key, so our wide-store slot keeps pointing at us
            registry[key] = self
        self.pointers = list(pointers)
        self.wide = wide
        self.broadcast = broadcast

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        # ``key`` is an identity, not state; the wide mask lives in the
        # shared store, fingerprinted by OverflowCacheScheme.encode_shared
        return ("of", self.wide, self.broadcast, tuple(sorted(self.pointers)))


class OverflowCacheScheme(DirectoryScheme):
    """``Dir_i`` pointers with a shared wide-entry overflow cache."""

    precision = "coarse"  # falls back to broadcast when the cache is full
    couples_entries = True  # one entry's overflow can evict another's mask

    def __init__(
        self,
        num_nodes: int,
        num_pointers: int = 3,
        overflow_entries: int = 64,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        if overflow_entries < 1:
            raise ValueError("need at least one overflow entry")
        self.num_pointers = num_pointers
        self.overflow_entries = overflow_entries
        self.wide_store = _WideStore(overflow_entries)
        self.name = f"Dir{num_pointers}OF{overflow_entries}"
        self._key_counter = 0
        #: key -> the entry holding that wide-store slot (nothing else is
        #: ever looked up, so a discarded entry is not retained)
        self._wide_entries: Dict[int, OverflowCacheEntry] = {}

    def _next_key(self) -> int:
        self._key_counter += 1
        return self._key_counter

    def make_entry(self) -> OverflowCacheEntry:
        return OverflowCacheEntry(self)

    def _mark_broadcast(self, key: int) -> None:
        entry = self._wide_entries.pop(key, None)
        if entry is not None:
            entry.wide = False
            entry.broadcast = True

    def to_state(self) -> Dict[str, Any]:
        state = super().to_state()
        state["key_counter"] = self._key_counter
        state["wide_masks"] = self.wide_store.to_state()
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        # Applied after the entries themselves have been restored (the
        # wide ones re-registered under their saved keys); overwriting
        # the wide store here reproduces the exact saved LRU order.
        super().load_state(state)
        self._key_counter = state["key_counter"]
        self.wide_store.load_state(state["wide_masks"])

    def encode_shared(
        self, lines: Iterable[Tuple[int, DirectoryEntry]]
    ) -> Optional[Tuple[Any, ...]]:
        """Wide-store contents in LRU order, each slot named by its
        holder's block (``-1``: a slot that outlived its line)."""
        block_of = {id(entry): block for block, entry in lines}
        return tuple(
            (block_of.get(id(self._wide_entries.get(key)), -1), mask)
            for key, mask in self.wide_store.to_state()
        )

    def presence_bits(self) -> int:
        # Per-block cost: i pointers + wide flag + broadcast bit.  The
        # shared wide store is amortized over all blocks; overhead.py
        # accounts for it machine-wide.
        return self.num_pointers * pointer_bits(self.num_nodes) + 2

    def shared_bits(self) -> int:
        """Machine-wide bits of the shared wide-entry cache."""
        # Each wide entry: a full bit vector + a block-address tag
        # (conservatively 32 bits) per entry.
        return self.overflow_entries * (self.num_nodes + 32)
