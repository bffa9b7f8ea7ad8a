"""The DASH protocol, stated once and sans-IO: the home's rows and a node's.

Each transition is a plain function: it reads state, applies **every
state effect of its row** and returns only what its caller must price —
nothing here knows about time, messages, counts, tracing, faults or
queues.  **Directory rows** change a home's line (``dirty``/``owner``,
the presence entry) and, through the node rows, the caches of the nodes
they name; ``machine.directory`` (which adds allocation retry, counts,
§5 latencies, checker hooks), ``verify.model`` and ``verify.conformance``
execute them.

====  =========  ===============  ============================================  ===========  ======================
row   request    line state       effects, in order                             next state   returns
====  =========  ===============  ============================================  ===========  ======================
R1    read       clean            record(req)                                   shared       None
R2    read       dirty(o != req)  DG at o; record(o); record(req)               shared       (o, found)
R3    read       dirty(req)       regrant(req); record(req)                     shared       None
W1    write      clean            regrant(req); invalidation round              dirty(req)   (None, targets, mates)
W2    write      dirty(o != req)  IV at o; regrant(req)                         dirty(req)   (o, None, ())
W3    write      dirty(req)       regrant(req); invalidation round              dirty(req)   (None, targets, mates)
B1    writeback  dirty(req)       WD at req; CB at req ? record(req) : release  shared/gone  still_shared
B2    writeback  anything else    WD at req (stale: ownership moved on)         unchanged    None
H1    hint       clean            remove_sharer(req); release if empty          shared/gone  None
H2    hint       dirty            none                                          unchanged    None
NB    record     pointers full    IV at each victim (Dir_iNB only)              shared       victims
RC    recall     entry replaced   IV at each covered node                       gone         None
====  =========  ===============  ============================================  ===========  ======================

*Regrant* (R3, W1-W3): ``cancel_wb(block, req)`` — any writeback ``req``
issued before this grant is dead and the engine must drop it on arrival —
then WD at ``req``: the home has the data, and the block stays busy until
the grant completes, so no forward can need the buffered copy meanwhile.
*Invalidation round* (W1/W3): collect the entry's targets besides ``req``
(SCI chain order when ``serial``); for a pooled store call ``in_flight``,
which may raise to NAK before any cache is touched; IV at every target
(and IC for its copies of the pooled group-mates); reset the entry; a
pooled entry re-records ``req``, whose own group-mate copies survive.
``record`` is :func:`record_sharer` (row NB) or the caller's wrapper of it.

**Node rows** change one node's caches — a cluster's processors on a
snoopy bus, which keeps the node coherent by itself (§2).  ``procs`` is
the node's :class:`ProcView` s, ``i`` the requester's index.  A
processor's *ghost* is its evicted DIRTY line, parked in the writeback
buffer (still answering forwards) until the home absorbs the writeback.
``machine.cluster`` prices L1-L5, ``DashSystem`` runs FL and asks CB,
the directory rows apply the rest; ``verify.model`` runs them all.

====  ==========  ======================================  ==================================  =====================
row   event       node state                              effects, in order                   returns
====  ==========  ======================================  ==================================  =====================
L1    read        i holds the line                        none                                True (hit)
L2    read        a sibling holds a line or ghost         i fills SHARED                      (True, victim)
L3    write       i holds it DIRTY                        none                                True (hit)
L4    write       a sibling holds it DIRTY                siblings invalidate; i fills DIRTY  (True, victim)
L5    either      none of the above                       none: the home serves it            (False, None)
FL    fill        the home granted i's request            i fills SHARED (read) / DIRTY       victim
IV    invalidate  any                                     every line and ghost dies           None
IC    inval       any                                     IV unless HD                        None
DG    downgrade   any                                     each DIRTY line becomes SHARED      a DIRTY line or ghost
WD    wb done     any                                     every ghost is released             None
CB    query       any                                     none                                a live line
HD    query       any                                     none                                a DIRTY line or ghost
====  ==========  ======================================  ==================================  =====================

L1/L3 are :func:`hit` (the machine's cache probe is its priced form);
L2/L4/L5 are :func:`bus`, tried only where they do not hit.  A fill's
``victim`` is ``(block, was_dirty)`` or ``None``.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.core.sparse import DirectoryStore, DirLine, Eviction

READ = "read"
WRITE = "write"
WRITEBACK = "writeback"
HINT = "hint"


class LineState(IntEnum):
    """Cache-line coherence state; absence from the cache means INVALID."""

    SHARED = 1
    DIRTY = 2


#: a fill's evicted ``(block, was_dirty)``, if any
Victim = Optional[Tuple[int, bool]]


class ProcView(Protocol):
    """One processor's cache as the node rows see it; it decides nothing."""

    def state(self, block: int) -> Optional[LineState]:
        """The line's state, ``None`` if absent; no LRU effect."""
    def install(self, block: int, state: LineState) -> Victim:
        """Fill the line; a DIRTY victim becomes the ghost."""
    def clean(self, block: int) -> None:
        """DIRTY line -> SHARED."""
    def invalidate(self, block: int, txn_id: Optional[int] = None) -> bool:
        """Drop the line and its ghost; True if either was here."""
    def has_ghost(self, block: int) -> bool:
        """The block's evicted DIRTY line is parked here."""
    def release_ghost(self, block: int) -> None:
        """Forget the ghost: the home has absorbed its data."""


Procs = Sequence[ProcView]
CancelWb = Callable[[int, int], None]
Record = Callable[[DirLine, int, int, Optional[int]], object]
InFlight = Callable[[int, Sequence[int]], None]


# -- node rows ------------------------------------------------------------------


def hit(proc: ProcView, block: int, write: bool) -> bool:
    """Rows L1/L3: the requester's own line serves the reference."""
    state = proc.state(block)
    return state is LineState.DIRTY if write else state is not None


def bus(procs: Procs, i: int, block: int, write: bool) -> Tuple[bool, Victim]:
    """Rows L2/L4/L5, once :func:`hit` has said no: a sibling serves the
    reference over the bus, or (``False``) the home must."""
    if write:
        for j, p in enumerate(procs):
            # not a ghost: evicting its DIRTY line let ownership go, and the
            # home's regrant must cancel the writeback
            if j != i and p.state(block) is LineState.DIRTY:
                for k, q in enumerate(procs):
                    if k != i:
                        q.invalidate(block)
                return True, procs[i].install(block, LineState.DIRTY)
        return False, None
    for j, p in enumerate(procs):
        if j != i and (p.state(block) is not None or p.has_ghost(block)):
            return True, procs[i].install(block, LineState.SHARED)
    return False, None


def fill(procs: Procs, i: int, block: int, write: bool) -> Victim:
    """Row FL: the home's grant lands at the requester."""
    return procs[i].install(block, LineState.DIRTY if write else LineState.SHARED)


def invalidate(procs: Procs, block: int, txn_id: Optional[int] = None) -> None:
    """Row IV: the bus broadcast kills every copy of ``block`` here."""
    for p in procs:
        p.invalidate(block, txn_id)


def invalidate_if_clean(procs: Procs, block: int, txn_id: Optional[int] = None) -> None:
    """Row IC: a pooled group-mate's clean copies die; dirty data (live or
    ghost) is tracked by its own per-block owner state and stays."""
    if not holds_dirty(procs, block):
        invalidate(procs, block, txn_id)


def downgrade(procs: Procs, block: int) -> bool:
    """Row DG: a forwarded read reaches the owner.  False if no DIRTY line
    or ghost was here to supply the data."""
    found = False
    for p in procs:
        if p.state(block) is LineState.DIRTY:
            p.clean(block)
            found = True
        elif p.has_ghost(block):
            found = True  # the buffer supplies the data and stays
    return found


def writeback_done(procs: Procs, block: int) -> None:
    """Row WD: the home has the data; every buffered copy goes."""
    for p in procs:
        p.release_ghost(block)


def copies_besides_wb(procs: Procs, block: int) -> bool:
    """Row CB: a live line is here, not counting ghosts."""
    return any(p.state(block) is not None for p in procs)


def holds_dirty(procs: Procs, block: int) -> bool:
    """Row HD: DIRTY data is here, as a live line or a ghost."""
    return any(p.state(block) is LineState.DIRTY or p.has_ghost(block) for p in procs)


# -- directory rows ---------------------------------------------------------------


def _regrant(block: int, req: int, nodes: Sequence[Procs], cancel_wb: CancelWb) -> None:
    cancel_wb(block, req)
    writeback_done(nodes[req], block)


def read(
    line: DirLine, block: int, req: int, nodes: Sequence[Procs],
    cancel_wb: CancelWb, record: Record, txn_id: Optional[int] = None,
) -> Optional[Tuple[int, bool]]:
    """Rows R1-R3.  ``(owner, found)`` when the read was forwarded."""
    owner = line.owner
    if line.dirty and owner is not None and owner != req:
        found = downgrade(nodes[owner], block)
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
        _regrant(block, req, nodes, cancel_wb)
        line.dirty = False
        line.owner = None
    record(line, req, block, txn_id)
    return None


def write(
    line: DirLine, block: int, req: int, nodes: Sequence[Procs],
    cancel_wb: CancelWb, store: Optional[DirectoryStore] = None,
    in_flight: Optional[InFlight] = None, serial: bool = False,
    txn_id: Optional[int] = None,
) -> Tuple[Optional[int], Optional[List[int]], Sequence[int]]:
    """Rows W1-W3.  ``store``/``in_flight`` are passed for pooled stores only."""
    owner = line.owner
    if line.dirty and owner is not None and owner != req:
        invalidate(nodes[owner], block, txn_id)
        line.owner = req
        _regrant(block, req, nodes, cancel_wb)
        return owner, None, ()
    # Any writeback req still has in flight predates this grant and must
    # never match it.  That includes a *clean* line: req evicted its dirty
    # copy, then a forwarded read consumed the writeback-buffer ghost and
    # cleaned the line, and the stale writeback is still travelling.
    _regrant(block, req, nodes, cancel_wb)
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
        invalidate(nodes[t], block, txn_id)
        for mate in mates:
            invalidate_if_clean(nodes[t], mate, txn_id)
    line.dirty = True
    line.owner = req
    entry.reset()
    if mates:
        entry.record_sharer(req)
    return None, targets, mates


def writeback(
    store: DirectoryStore, block: int, req: int, still_shared: bool,
    nodes: Sequence[Procs],
) -> Optional[bool]:
    """Rows B1-B2.  The resolved ``still_shared`` flag; ``None`` if stale."""
    writeback_done(nodes[req], block)
    line = store.lookup(block)
    if line is None or not line.dirty or line.owner != req:
        return None
    line.dirty = False
    line.owner = None
    # a local bus read may have re-filled a cache from the writeback
    # buffer after the writeback left: ask the node's *current* state
    still_shared = still_shared or copies_besides_wb(nodes[req], block)
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
    line: DirLine, node: int, block: int, nodes: Sequence[Procs],
    txn_id: Optional[int] = None,
) -> Tuple[int, ...]:
    """Row NB: add a sharer; a Dir_iNB pointer overflow's victims die now."""
    victims = line.entry.record_sharer(node)
    for victim in victims:
        invalidate(nodes[victim], block, txn_id)
    return victims


def recall(
    eviction: Eviction, nodes: Sequence[Procs], txn_id: Optional[int] = None
) -> None:
    """Row RC: every copy a replaced sparse entry covered dies."""
    for t in eviction.targets:
        invalidate(nodes[t], eviction.block, txn_id)
