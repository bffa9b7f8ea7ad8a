"""Full bit vector directory (``Dir_N``), Section 3.1 of the paper.

One presence bit per node gives the directory full knowledge of who
caches each block: invalidation traffic is the minimum any
invalidation-based protocol can achieve, but presence storage grows as
``num_nodes`` bits per block — O(P^2) for the whole machine when memory
grows with the processor count, which is what motivates the paper.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.core.base import (
    DirectoryEntry,
    DirectoryScheme,
    check_node,
    check_state_tag,
)


class FullBitVectorEntry(DirectoryEntry):
    """Exact sharer set, stored as a Python int used as a bitset."""

    __slots__ = ("num_nodes", "mask")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.mask = 0

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.num_nodes)
        self.mask |= 1 << node
        return ()

    def covered(self) -> int:
        return self.mask

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.mask = 0

    def to_state(self) -> Tuple[Any, ...]:
        return ("fbv", self.mask)

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "fbv", type(self))
        self.mask = state[1]

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        return ("fbv", self._covered_as(perm))


class FullBitVectorScheme(DirectoryScheme):
    """``Dir_N``: the exact baseline every other scheme is measured against."""

    relabelling = "any"  # an entry is a plain set of node labels

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"Dir{num_nodes}"

    def make_entry(self) -> FullBitVectorEntry:
        return FullBitVectorEntry(self.num_nodes)

    def presence_bits(self) -> int:
        return self.num_nodes
