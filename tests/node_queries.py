"""Test-side reading of a node's copies, composed from the kernel queries."""

from repro.core import protocol


def has_copy(procs, block: int) -> bool:
    """The node holds the block at all: a live line or a writeback ghost.

    A ghost is always DIRTY, so this is row CB or row HD.
    """
    return protocol.copies_besides_wb(procs, block) or protocol.holds_dirty(
        procs, block
    )
