"""Trace operations a processor stream may yield.

These are the *global events* Tango exposed: shared-data references and
synchronization, plus ``Work`` to stand in for the private/local
computation between them (private references hit local caches and never
reach the directory, so we charge them as busy cycles instead of
simulating each one).

The six classes are the *authoring* vocabulary: applications yield them
from ``stream()``; hooks, trace files and tests see them.  The machine
runs the packed form (:meth:`~repro.trace.workload.Workload.compile`):
one word per op, ``operand << 3 | opcode``, numbered here and only here.
"""

from __future__ import annotations

from typing import NamedTuple, Union


class Read(NamedTuple):
    """Shared-data load from byte address ``addr``."""

    addr: int


class Write(NamedTuple):
    """Shared-data store to byte address ``addr``."""

    addr: int


class Work(NamedTuple):
    """``cycles`` of local computation (private refs included)."""

    cycles: int


class Lock(NamedTuple):
    """Acquire lock ``lock_id`` (queue-based, granted by its home cluster)."""

    lock_id: int


class Unlock(NamedTuple):
    """Release lock ``lock_id``."""

    lock_id: int


class Barrier(NamedTuple):
    """Global barrier ``barrier_id``; all processors participate."""

    barrier_id: int


TraceOp = Union[Read, Write, Work, Lock, Unlock, Barrier]

#: the opcode of a packed word is its class's index here; references and
#: work come first so ``opcode > WORK`` means "synchronization"
OP_CLASSES = (Read, Write, Work, Lock, Unlock, Barrier)
READ, WRITE, WORK, LOCK, UNLOCK, BARRIER = range(6)
#: what a cursor past the last op reads: no class, and a fence like them
END = 7
OPCODE = {cls: code for code, cls in enumerate(OP_CLASSES)}


def unpack(word: int) -> TraceOp:
    """The op a packed word stands for."""
    return OP_CLASSES[word & 7](word >> 3)


__all__ = ["Read", "Write", "Work", "Lock", "Unlock", "Barrier", "TraceOp",
           "OP_CLASSES", "OPCODE", "unpack"]
