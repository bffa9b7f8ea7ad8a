"""Superset / composite-pointer scheme ``Dir_iX`` (Section 3.2.3).

Keeps ``i`` pointers; on overflow they are merged into a single composite
pointer whose bits take values 0, 1, or X ("both").  Invalidations expand
every X into both values, producing a superset of the true sharers.  The
paper (Figure 2b) shows this is only marginally better than broadcast:
after a few merges most bits are X.

Representation: ``(value, x_mask)`` where bit ``b`` of the composite is X
when ``x_mask`` has bit ``b`` set, else equals bit ``b`` of ``value``.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.core.base import (
    DirectoryScheme,
    PointerListEntry,
    check_node,
    check_state_tag,
    mask_nodes,
    nodes_mask,
    pointer_bits,
)


def expand_composite(value: int, x_mask: int) -> int:
    """Bitmask of every node id the ternary pattern matches."""
    mask = 1 << (value & ~x_mask)
    for b in mask_nodes(x_mask):
        # an X in id bit b also matches every id 2**b above a match
        mask |= mask << (1 << b)
    return mask


class SupersetEntry(PointerListEntry):
    """``Dir_iX`` entry: pointer list degrading into a ternary composite."""

    __slots__ = ("composite",)

    def __init__(self, scheme: "SupersetScheme") -> None:
        super().__init__(scheme)
        self.composite: Tuple[int, int] | None = None  # (value, x_mask)

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        if self.composite is not None:
            check_node(node, self.scheme.num_nodes)
            value, x_mask = self.composite
            # Flip every disagreeing, not-yet-X bit to X.
            x_mask |= (value ^ node) & ~x_mask
            self.composite = (value, x_mask)
            return ()
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow: merge all pointers plus the newcomer into one composite.
        nodes = self.pointers + [node]
        value = nodes[0]
        x_mask = 0
        for n in nodes[1:]:
            x_mask |= value ^ n
        self.composite = (value, x_mask)
        self.pointers.clear()
        return ()

    def covered(self) -> int:
        if self.composite is None:
            return nodes_mask(self.pointers)
        # ids past the machine's last node match the pattern but name nobody
        return expand_composite(*self.composite) & self.scheme.all_nodes

    def is_exact(self) -> bool:
        return self.composite is None

    def reset(self) -> None:
        self.pointers.clear()
        self.composite = None

    def to_state(self) -> Tuple[Any, ...]:
        return ("x", tuple(self.pointers), self.composite)

    def load_state(self, state: Tuple[Any, ...]) -> None:
        check_state_tag(state, "x", type(self))
        self.pointers = list(state[1])
        composite = state[2]
        self.composite = tuple(composite) if composite is not None else None

    def encode(self, perm: Sequence[int]) -> Tuple[Any, ...]:
        # node ids are bit patterns here: no relabelling, raw state
        return ("x", self.composite, tuple(self.pointers))


class SupersetScheme(DirectoryScheme):
    """``Dir_iX`` (the paper's terminology for the scheme suggested in [1])."""

    precision = "coarse"  # the composite pointer covers a superset

    def __init__(self, num_nodes: int, num_pointers: int = 2, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.pointer_width = pointer_bits(num_nodes)
        self.name = f"Dir{num_pointers}X"

    def make_entry(self) -> SupersetEntry:
        return SupersetEntry(self)

    def presence_bits(self) -> int:
        # Each composite bit needs 2 physical bits to encode {0, 1, X};
        # pointer mode reuses the same storage, plus a mode bit.
        return self.num_pointers * self.pointer_width + 1
