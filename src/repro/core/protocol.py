"""The directory-side DASH protocol, stated once and sans-IO.

Each transition is a plain function: it reads the line's state, applies
**every state effect of its row** — ``dirty``/``owner``, the presence
entry, and the cache-side effects at other nodes — and returns only what
its caller must price.  Nothing here knows about time, messages, counts,
tracing, faults or queues.  Three callers execute it:
``machine.directory.DirectoryController`` (adds allocation retry, message
counts, the §5 latencies and the checker hooks), ``verify.model`` (the
successor state of a delivery, over ``I``/``S``/``M`` rows) and
``verify.conformance`` (hint services of a replayed trace).

====  =========  ==============  =======================================  ===========  ========================
row   request    line state      effects, in order                        next state   returns
====  =========  ==============  =======================================  ===========  ========================
R1    read       clean           record(req)                              shared       None
R2    read       dirty(o != req) o downgrades; record(o); record(req)     shared       (o, found)
R3    read       dirty(req)      cancel_wb(req); record(req)              shared       None
W1    write      clean           cancel_wb(req); invalidation round       dirty(req)   (None, targets, mates)
W2    write      dirty(o != req) o invalidates; cancel_wb(req)            dirty(req)   (o, None, ())
W3    write      dirty(req)      cancel_wb(req); invalidation round       dirty(req)   (None, targets, mates)
B1    writeback  dirty(req)      req kept a copy ? record(req) : release  shared/gone  still_shared
B2    writeback  anything else   none (stale: ownership moved on)         unchanged    None
H1    hint       clean           remove_sharer(req); release if empty     shared/gone  None
H2    hint       dirty           none                                     unchanged    None
NB    record     pointers full   each victim invalidates (Dir_iNB only)   shared       victims
RC    recall     entry replaced  each covered node invalidates            gone         None
====  =========  ==============  =======================================  ===========  ========================

*Invalidation round* (W1/W3): collect the entry's targets besides ``req``
(SCI chain order when ``serial``); for a pooled store call ``in_flight``,
which may raise to NAK before any cache is touched; invalidate every
target (and its clean copies of the pooled group-mates); reset the entry;
a pooled entry re-records ``req``, whose own group-mate copies survive.
``record`` is :func:`record_sharer` (row NB) or the caller's wrapper of it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.core.sparse import DirectoryStore, DirLine, Eviction

READ = "read"
WRITE = "write"
WRITEBACK = "writeback"
HINT = "hint"


class Node(Protocol):
    """The cache-side effects a directory transition applies at a node."""

    def invalidate_block(self, block: int, txn_id: Optional[int] = None) -> bool:
        """Kill every copy of ``block`` here."""

    def invalidate_if_clean(self, block: int, txn_id: Optional[int] = None) -> bool:
        """Kill a clean copy of ``block``; dirty data is left alone."""

    def downgrade_block(self, block: int) -> bool:
        """Owner's DIRTY copy becomes SHARED; False if only its writeback
        (in flight, or buffered) still holds the data."""

    def copies_besides_wb(self, block: int) -> bool:
        """A live copy exists here, not counting a buffered writeback."""


CancelWb = Callable[[int, int], None]
Record = Callable[[DirLine, int, int, Optional[int]], object]
InFlight = Callable[[int, Sequence[int]], None]


def read(
    line: DirLine, block: int, req: int, nodes: Sequence[Node],
    cancel_wb: CancelWb, record: Record, txn_id: Optional[int] = None,
) -> Optional[Tuple[int, bool]]:
    """Rows R1-R3.  ``(owner, found)`` when the read was forwarded."""
    owner = line.owner
    if line.dirty and owner is not None and owner != req:
        found = nodes[owner].downgrade_block(block)
        line.dirty = False
        line.owner = None
        # no entry.reset() on any dirty -> clean edge: a dirty block's
        # entry records no sharers of it, only (pooled stores) group-mates'
        record(line, owner, block, txn_id)
        record(line, req, block, txn_id)
        return owner, found
    if line.dirty and owner == req:
        # re-read while req's own writeback is in flight: the directory
        # absorbs the data now and the writeback is obsolete
        cancel_wb(block, req)
        line.dirty = False
        line.owner = None
    record(line, req, block, txn_id)
    return None


def write(
    line: DirLine, block: int, req: int, nodes: Sequence[Node],
    cancel_wb: CancelWb, store: Optional[DirectoryStore] = None,
    in_flight: Optional[InFlight] = None, serial: bool = False,
    txn_id: Optional[int] = None,
) -> Tuple[Optional[int], Optional[List[int]], Sequence[int]]:
    """Rows W1-W3.  ``store``/``in_flight`` are passed for pooled stores only."""
    owner = line.owner
    if line.dirty and owner is not None and owner != req:
        nodes[owner].invalidate_block(block, txn_id=txn_id)
        line.owner = req
        cancel_wb(block, req)
        return owner, None, ()
    # Any writeback req still has in flight predates this grant and must
    # never match it.  That includes a *clean* line: req evicted its dirty
    # copy, then a forwarded read consumed the writeback-buffer ghost and
    # cleaned the line, and the stale writeback is still travelling.
    cancel_wb(block, req)
    if line.dirty:
        line.dirty = False
        line.owner = None
    entry = line.entry
    chain = getattr(entry, "invalidation_chain", None) if serial else None
    targets: List[int] = (
        entry.targets_sorted((req,)) if chain is None
        else list(chain(exclude=(req,)))
    )
    mates: Sequence[int] = ()
    if store is not None and in_flight is not None:
        mates = [b for b in store.blocks_invalidated_with(block) if b != block]
        in_flight(block, mates)
    for t in targets:
        node = nodes[t]
        node.invalidate_block(block, txn_id=txn_id)
        for mate in mates:
            node.invalidate_if_clean(mate, txn_id=txn_id)
    line.dirty = True
    line.owner = req
    entry.reset()
    if mates:
        entry.record_sharer(req)
    return None, targets, mates


def writeback(
    store: DirectoryStore, block: int, req: int, still_shared: bool,
    nodes: Sequence[Node],
) -> Optional[bool]:
    """Rows B1-B2.  The resolved ``still_shared`` flag; ``None`` if stale."""
    line = store.lookup(block)
    if line is None or not line.dirty or line.owner != req:
        return None
    line.dirty = False
    line.owner = None
    # a local bus read may have re-filled a cache from the writeback
    # buffer after the writeback left: ask the node's *current* state
    still_shared = still_shared or nodes[req].copies_besides_wb(block)
    if still_shared:
        line.entry.record_sharer(req)
    else:
        store.release(block)
    return still_shared


def hint(store: DirectoryStore, block: int, req: int) -> None:
    """Rows H1-H2: a replacement hint forgets a clean sharer."""
    line = store.lookup(block)
    if line is not None and not line.dirty:
        line.entry.remove_sharer(req)
        if line.is_empty():
            store.release(block)


def record_sharer(
    line: DirLine, node: int, block: int, nodes: Sequence[Node],
    txn_id: Optional[int] = None,
) -> Tuple[int, ...]:
    """Row NB: add a sharer; a Dir_iNB pointer overflow's victims die now."""
    victims = line.entry.record_sharer(node)
    for victim in victims:
        nodes[victim].invalidate_block(block, txn_id=txn_id)
    return victims


def recall(
    eviction: Eviction, nodes: Sequence[Node], txn_id: Optional[int] = None
) -> None:
    """Row RC: every copy a replaced sparse entry covered dies."""
    for t in eviction.targets:
        nodes[t].invalidate_block(eviction.block, txn_id=txn_id)
