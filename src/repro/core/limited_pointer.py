"""Limited pointer schemes ``Dir_iB`` and ``Dir_iNB`` (Sections 3.2.1-3.2.2).

Both keep ``i`` pointers of ``log2(N)`` bits each and differ only in how
they survive pointer overflow:

* ``Dir_iB`` sets a *broadcast bit*; the next write invalidates everybody
  (minus requester/home), which is cheap to represent but floods the
  machine when the sharer count is just above ``i``.
* ``Dir_iNB`` refuses to overflow: it invalidates one existing sharer to
  make room, so *reads* now cause invalidations and widely read-shared
  data (LU's pivot column, DWF's pattern/library arrays) thrashes.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.core.base import (
    DirectoryScheme,
    PointerListEntry,
    check_node,
    check_state_tag,
    nodes_mask,
    pointer_bits,
)


class BroadcastEntry(PointerListEntry):
    """``Dir_iB`` entry: ``i`` pointers plus a sticky broadcast bit."""

    __slots__ = ("broadcast",)

    def __init__(self, scheme: "LimitedPointerBroadcastScheme") -> None:
        super().__init__(scheme)
        self.broadcast = False

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        if self.broadcast:
            check_node(node, self.scheme.num_nodes)
            return ()
        handled = self._record_pointer(node)
        if handled is None:
            # Pointer overflow: fall back to broadcast.  The pointers are
            # now meaningless — any node may be a sharer.
            self.broadcast = True
            self.pointers.clear()
            return ()
        return handled

    def covered(self) -> int:
        return self.scheme.all_nodes if self.broadcast else nodes_mask(self.pointers)

    def is_exact(self) -> bool:
        return not self.broadcast

    def reset(self) -> None:
        self.pointers.clear()
        self.broadcast = False

    def to_state(self) -> Tuple[Any, ...]:
        return ("b", tuple(self.pointers), self.broadcast)

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "b", type(self))
        self.pointers = list(state[1])
        self.broadcast = state[2]

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        return ("b", self.broadcast, self._covered_as(perm))


class LimitedPointerBroadcastScheme(DirectoryScheme):
    """``Dir_iB`` from Agarwal et al. [1], the paper's main strawman."""

    precision = "coarse"  # the broadcast bit covers everyone
    relabelling = "any"  # pointers are a set of labels; order is not state

    def __init__(self, num_nodes: int, num_pointers: int = 3, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.name = f"Dir{num_pointers}B"

    def make_entry(self) -> BroadcastEntry:
        return BroadcastEntry(self)

    def presence_bits(self) -> int:
        # i pointers plus the broadcast bit.
        return self.num_pointers * pointer_bits(self.num_nodes) + 1


class NoBroadcastEntry(PointerListEntry):
    """``Dir_iNB`` entry: always exact, never more than ``i`` sharers."""

    __slots__ = ()

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow: invalidate one current sharer to make room.  The paper
        # leaves victim choice unspecified; we pick uniformly at random
        # from the scheme's seeded RNG so runs stay deterministic.
        victim_index = self.scheme.rng.randrange(len(self.pointers))
        victim = self.pointers[victim_index]
        self.pointers[victim_index] = node
        return (victim,)

    def covered(self) -> int:
        return nodes_mask(self.pointers)

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.pointers.clear()

    def to_state(self) -> Tuple[Any, ...]:
        # Pointer *order* matters: the overflow victim is picked by index,
        # so a restored list must keep its exact arrangement.
        return ("nb", tuple(self.pointers))

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "nb", type(self))
        self.pointers = list(state[1])

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        # positional, like to_state: the victim is a randrange over slots
        return ("nb", tuple(perm[n] for n in self.pointers))


class LimitedPointerNoBroadcastScheme(DirectoryScheme):
    """``Dir_iNB`` from Agarwal et al. [1]: overflow evicts a sharer."""

    evicts_on_overflow = True
    relabelling = "any"
    ordered_entries = True  # the overflow victim is picked by slot index

    def __init__(self, num_nodes: int, num_pointers: int = 3, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.name = f"Dir{num_pointers}NB"

    def make_entry(self) -> NoBroadcastEntry:
        return NoBroadcastEntry(self)

    def presence_bits(self) -> int:
        return self.num_pointers * pointer_bits(self.num_nodes)
