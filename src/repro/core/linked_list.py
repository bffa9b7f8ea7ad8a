"""SCI-style cache-based linked-list directory (§3.3) — extension.

The paper compares memory-based directories *qualitatively* against
cache-based linked lists (the nascent Scalable Coherent Interface): each
directory entry is a doubly-linked list threaded through the sharer
caches, with head/tail pointers in memory.  It scales naturally (sharer
storage grows with cache capacity) but invalidations are *serial* — the
list is unraveled cache by cache — and the protocol needs fast cache
memory for the link pointers.

We implement it so the ablation bench ``bench_ablation_linked_list`` can
quantify that serial-invalidation penalty against ``Dir_N``/``Dir_iCV_r``.
Within the common :class:`DirectoryEntry` protocol the sharer set is
exact; the distinguishing feature is the ordered :meth:`invalidation_chain`
plus the ``serial_invalidations`` flag the DASH directory controller
honours when scheduling invalidation messages.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from repro.core.base import (
    DirectoryEntry,
    DirectoryScheme,
    check_node,
    check_state_tag,
    nodes_mask,
    pointer_bits,
)


class LinkedListEntry(DirectoryEntry):
    """Exact, ordered sharer list; new sharers attach at the head (SCI)."""

    __slots__ = ("num_nodes", "chain")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.chain: List[int] = []  # head first

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.num_nodes)
        if node in self.chain:
            # Re-reading moves the cache to the head of the list in SCI;
            # model that so invalidation order tracks recency.
            self.chain.remove(node)
        self.chain.insert(0, node)
        return ()

    def covered(self) -> int:
        return nodes_mask(self.chain)

    def invalidation_chain(self, exclude: Iterable[int] = ()) -> Tuple[int, ...]:
        """Sharers in unravel order (head first), minus ``exclude``."""
        excluded = set(exclude)
        return tuple(n for n in self.chain if n not in excluded)

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.chain.clear()

    def to_state(self) -> Tuple[Any, ...]:
        # Chain order (head first) drives serial-invalidation unravel
        # order, so it must survive a round trip exactly.
        return ("ll", tuple(self.chain))

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "ll", type(self))
        self.chain = list(state[1])

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        return ("ll", tuple(perm[n] for n in self.chain))


class LinkedListScheme(DirectoryScheme):
    """Cache-based doubly-linked list directory (SCI-flavoured)."""

    serial_invalidations = True  # the list is unravelled cache by cache
    relabelling = "any"
    ordered_entries = True  # chain order is the unravel order

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"DirLL{num_nodes}"

    def make_entry(self) -> LinkedListEntry:
        return LinkedListEntry(self.num_nodes)

    def presence_bits(self) -> int:
        # Memory-side cost only: head + tail pointers.  The forward and
        # back pointers every cache line carries live in (expensive)
        # cache memory and are not counted here.
        return 2 * pointer_bits(self.num_nodes)
