"""Per-cluster directory controller: the DASH coherence protocol engine.

Each cluster's controller owns the directory state for the blocks whose
home it is.  Transactions (read / write / writeback / replacement hint)
are serialized per block: a block stays *busy* from service until the
transaction's last effect lands, and later arrivals queue — the same
global ordering DASH enforces with busy-retry NAKs, but deterministic.

State effects are applied atomically at service time, by the transition
functions of :mod:`repro.core.protocol` (the one statement of the
protocol, which the model checker executes too); this module adds what
only the engine has — allocation retry, message counts, occupancy,
tracing, checker hooks, faults — and prices what they return.  Latency is
composed from the §5 constants (network legs, memory/bus service,
directory lookup, remote-cache service, invalidation service) plus FIFO
queueing on the controller itself, so heavier message traffic slows
execution the way a busier real machine would.  The paper's invalidation
accounting is stated once, in :meth:`DirectoryController._book_round`.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core import protocol
from repro.core.protocol import HINT, READ, WRITE, WRITEBACK
from repro.core.sparse import AllWaysBusy, DirectoryStore, DirLine, Eviction
from repro.machine.faults import FaultBudgetExceeded, FaultKind
from repro.machine.messages import MsgClass
from repro.machine.stats import InvalCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem


def _phases(
    sparse_recall: float = 0.0, dir_lookup: float = 0.0,
    net_forward: float = 0.0, remote_cache: float = 0.0,
    memory: float = 0.0, net_reply: float = 0.0, inval_fanout: float = 0.0,
) -> Tuple[float, ...]:
    """A service's latency legs, flat, in ``registry.SERVICE_PHASES``
    order (the tracer names the nonzero ones when the trace is read)."""
    return (sparse_recall, dir_lookup, net_forward, remote_cache, memory,
            net_reply, inval_fanout)


class Transaction:
    """One memory transaction travelling to a home directory."""

    __slots__ = ("kind", "block", "requester", "proc_idx", "on_complete",
                 "still_shared", "attempts", "delivered", "t_arrive",
                 "t_start", "txn_id", "phases", "resume", "t_issue")

    def __init__(
        self,
        kind: str,
        block: int,
        requester: int,
        proc_idx: int = 0,
        on_complete: Optional[Callable[["Transaction", float], None]] = None,
        still_shared: bool = False,
        txn_id: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.block = block
        self.requester = requester
        self.proc_idx = proc_idx
        #: completion hook, invoked as ``on_complete(txn, now)``.  Taking
        #: the transaction positionally lets the system pass one shared
        #: bound method instead of allocating a closure per miss.
        self.on_complete = on_complete
        self.still_shared = still_shared
        #: fault-layer redeliveries so far (drops and NAKs)
        self.attempts = 0
        #: accepted at the home once — duplicate deliveries are deduped
        self.delivered = False
        #: acceptance time at the home (observability's dir.service span)
        self.t_arrive = 0.0
        #: execution start — when the directory state actually changes
        #: (later than t_arrive if the block was busy or the controller
        #: occupied); trace conformance orders services by this instant
        self.t_start = 0.0
        #: causal correlation id threaded through every span this
        #: transaction produces (None when tracing is disabled — see
        #: repro.obs.causal for the chain reconstruction it enables)
        self.txn_id = txn_id
        #: exact service-latency decomposition recorded at execute time
        #: (cycles per ``_phases`` leg; they sum to the execution delta)
        self.phases: Optional[Tuple[float, ...]] = None
        #: processor continuation + issue time, carried for the system's
        #: shared miss-completion handler (None/0.0 for writebacks, hints)
        self.resume: Optional[Callable[[float, bool], None]] = None
        self.t_issue = 0.0

    def to_state(self, codec) -> dict:
        """Every slot (a transaction has no construction-time bindings);
        ``on_complete``/``resume`` become continuation descriptors."""
        return codec.fields(self, self.__slots__)

    def load_state(self, state: dict, codec) -> None:
        """Fill a blank transaction from :meth:`to_state`."""
        codec.load_fields(self, self.__slots__, state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Txn {self.kind} block={self.block} from={self.requester}>"


class DirectoryController:
    """Coherence controller for one cluster's slice of memory."""

    #: in-flight bookkeeping snapshotted through the checkpoint codec
    #: (everything else ``__init__`` sets is a construction-time binding)
    _STATE = ("_busy", "_pending", "_ctrl_free", "_cancelled_wb",
              "_wb_inflight", "_deferred_writes")

    def __init__(
        self, machine: "DashSystem", cluster_id: int, store: DirectoryStore
    ) -> None:
        self.machine = machine
        self.cluster_id = cluster_id
        self.store = store
        self._busy: Set[int] = set()
        self._pending: Dict[int, Deque[Transaction]] = {}
        self._ctrl_free = 0.0
        # Hot-path bindings: everything here is fixed before controllers
        # are built and never rebound (machine.invariants *can* be swapped
        # after construction, so it is always read through self.machine).
        self._events = machine.events
        self._cfg = machine.config
        self._net = machine.network
        self._deliver = getattr(machine.network, "deliver", None)
        self._nodes = machine.nodes
        self._stats = machine.stats
        self._obs = machine.obs
        self._fault_plan = machine.fault_plan
        #: the raw message counter — hot sites bump it directly (inlined
        #: machine.count_msg, whose src != dst guard the sites keep)
        self._messages = machine.stats.messages
        self._legs = machine.legs
        self._strict = machine.strict
        self._occupancy = machine.config.ctrl_occupancy_cycles
        #: bounded stores (sparse) victimize on allocation and need the
        #: in-flight pin set; unbounded stores never look at ``avoid``
        self._needs_pins = store.capacity_entries() is not None
        #: the store itself when it pools several blocks per presence entry
        #: (shared-entry), else None: the kernel then skips the group logic
        self._group_store = (
            store
            if type(store).blocks_invalidated_with
            is not DirectoryStore.blocks_invalidated_with
            else None
        )
        self._serial = machine.scheme.serial_invalidations
        self._execute_kind = {
            READ: self._execute_read,
            WRITE: self._execute_write,
            WRITEBACK: self._execute_writeback,
            HINT: self._execute_hint,
        }
        #: (block, cluster) -> number of in-flight writebacks that were
        #: obsoleted by a subsequent ownership re-grant and must be dropped
        self._cancelled_wb: Dict[Tuple[int, int], int] = {}
        #: (block, cluster) -> writebacks submitted but not yet serviced.
        #: The home tracks this itself because the cluster-side
        #: writeback-buffer ghost can be cleared (by an invalidation)
        #: while the writeback message is still travelling.
        self._wb_inflight: Dict[Tuple[int, int], int] = {}
        #: grouped writes currently in NAK-retry because a group-mate's
        #: transaction is in flight (see _execute_write's tie-break)
        self._deferred_writes: Set[int] = set()

    # -- checkpoint state ---------------------------------------------------

    def to_state(self, codec) -> dict:
        """The store's contents plus ``_STATE``."""
        state = codec.fields(self, self._STATE)
        state["store"] = self.store.to_state()
        return state

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state`; pending queues resolve to the
        transactions the codec has already materialised."""
        self.store.load_state(state["store"])
        codec.load_fields(self, self._STATE, state)

    # -- submission (requester side) ----------------------------------------

    def submit(self, txn: Transaction) -> None:
        """Send ``txn`` to this home; called at the requester's issue time."""
        if txn.kind == WRITEBACK:
            key = (txn.block, txn.requester)
            self._wb_inflight[key] = self._wb_inflight.get(key, 0) + 1
        if txn.requester != self.cluster_id:
            self._messages[MsgClass.REQUEST] += 1
        invariants = self.machine.invariants
        if invariants is not None:
            invariants.on_submit(txn, self._events.now)
        self._send(txn)

    def _send(self, txn: Transaction) -> None:
        """Put the request on the wire (clean path or via the fault layer)."""
        machine = self.machine
        net = self._net
        events = self._events
        now = events.now
        deliver = self._deliver
        if deliver is None:
            arrival = now + self._legs[txn.requester][self.cluster_id]
            if self._obs.enabled:
                self._trace_msg(txn, now, arrival)
            events.at(arrival, self._arrive, txn)
            return
        # Replacement hints depend on point-to-point ordering (a delayed
        # hint could erase a re-fetched sharer) and are pure optimization,
        # so they are never delayed and never retried — see faults.py.
        best_effort = txn.kind == HINT
        d = deliver(
            txn.requester, self.cluster_id, now,
            reorderable=not best_effort, txn_id=txn.txn_id,
        )
        if d.fault is not None:
            machine.stats.count_fault(d.fault)
        if not d.arrivals:
            # dropped in the interconnect: the requester's timeout fires
            # and the request is reissued with exponential backoff
            if best_effort:
                self._abandon(txn)
            else:
                self._schedule_retry(txn, 0.0)
            return
        if d.nak:
            # the home refuses service: the NAK rides the reply class, and
            # the requester retries after the observed round trip
            machine.count_msg(MsgClass.REPLY, self.cluster_id, txn.requester)
            if best_effort:
                self._abandon(txn)
            else:
                round_trip = (d.arrivals[0] - now) + net.leg(
                    self.cluster_id, txn.requester
                )
                self._schedule_retry(txn, round_trip)
            return
        for arrival in d.arrivals:
            if self._obs.enabled:
                self._trace_msg(txn, now, arrival)
            events.at(arrival, self._arrive, txn)

    def _trace_msg(self, txn: Transaction, sent: float, arrival: float) -> None:
        """Record one wire message (inject -> deliver) when tracing."""
        self._obs.record(
            "net.msg", sent, arrival - sent, txn.requester,
            txn.kind, txn.block, self.cluster_id, txn.txn_id,
        )

    def _abandon(self, txn: Transaction) -> None:
        """Drop a best-effort request for good (hints are optimizations)."""
        if self.machine.invariants is not None:
            self.machine.invariants.on_abandon(txn)

    def _schedule_retry(self, txn: Transaction, extra_delay: float) -> None:
        """Reissue a faulted request after (bounded) exponential backoff."""
        machine = self.machine
        plan = machine.fault_plan
        txn.attempts += 1
        if txn.attempts > plan.max_retries:
            raise FaultBudgetExceeded(
                f"{txn.kind} request for block {txn.block} from cluster "
                f"{txn.requester} to home {self.cluster_id} failed "
                f"{txn.attempts} deliveries (max_retries="
                f"{plan.max_retries})",
                kind=txn.kind,
                block=txn.block,
                attempts=txn.attempts,
            )
        machine.stats.fault_retries += 1
        delay = extra_delay + plan.backoff(txn.attempts)
        obs = machine.obs
        if obs.enabled:
            obs.record(
                "txn.retry", machine.events.now, None, self.cluster_id,
                txn.kind, txn.block, txn.attempts, txn.txn_id,
            )
            obs.metrics.counter("retries").inc()
            obs.metrics.histogram("retry_wait").observe(delay)
        machine.events.after(delay, self._resend, txn)

    def _resend(self, txn: Transaction) -> None:
        """The retry is a real message: count it, then send again."""
        if txn.requester != self.cluster_id:
            self._messages[MsgClass.REQUEST] += 1
        self._send(txn)

    def _arrive(self, txn: Transaction) -> None:
        if txn.delivered:
            # duplicate copy of an already-accepted request: the home
            # dedupes by sequence number and discards it silently
            return
        txn.delivered = True
        txn.t_arrive = self._events.now
        plan = self._fault_plan
        if plan is not None and plan.corruption():
            # counted at roll time: the pulse happened even if the line it
            # hit was busy/dirty/absent and absorbed it without effect
            self._stats.count_fault(FaultKind.CORRUPT)
            self._inject_corruption(txn.block)
        block = txn.block
        if block in self._busy:
            self._pending.setdefault(block, deque()).append(txn)
            return
        self._busy.add(block)
        self._start(txn)

    def _inject_corruption(self, block: int) -> None:
        """Transient directory corruption: record a phantom sharer.

        Routed through the normal :meth:`_record_sharer` path, so the
        corruption is *conservative* (the presence entry stays a superset
        of the truth) and any Dir_iNB forced eviction it triggers follows
        the real protocol.  Blocks with in-flight transactions — their
        own or a pooled group-mate's — are skipped: their installs land
        only at completion, which the phantom eviction would miss.
        """
        if any(
            b in self._busy for b in self.store.blocks_invalidated_with(block)
        ):
            return
        line = self.store.lookup(block)
        if line is None or line.dirty:
            return
        node = self.machine.fault_plan.spurious_sharer(
            self.machine.config.num_clusters
        )
        self._record_sharer(line, node, block)

    def _start(self, txn: Transaction) -> None:
        """Queue on the controller (FIFO occupancy), then execute."""
        now = self._events.now
        start = self._ctrl_free
        if start > now:
            txn.t_start = start
            self._ctrl_free = start + self._occupancy
            self._events.at(start, self._execute, txn)
        else:
            txn.t_start = now
            self._ctrl_free = now + self._occupancy
            self._execute(txn)

    # -- execution ------------------------------------------------------------

    def _execute(self, txn: Transaction) -> None:
        handler = self._execute_kind.get(txn.kind)
        if handler is None:  # pragma: no cover - defensive
            raise ValueError(f"unknown transaction kind {txn.kind!r}")
        try:
            delta = handler(txn)
        except AllWaysBusy:
            # only reads/writes allocate, so only they can land here
            self._retry_later(txn)
            return
        self._events.after(delta, self._finish, txn)

    def _retry_later(self, txn: Transaction) -> None:
        """Sparse allocation could not victimize anyone (all ways pinned by
        in-flight transactions): retry after a short backoff — the
        simulation analogue of DASH's busy NAK.  The pinned transactions
        complete at fixed future times, so this always terminates."""
        self._events.after(self._occupancy + 1.0, self._execute, txn)

    def _pinned_blocks(self, current: int) -> FrozenSet[int]:
        """Blocks whose directory entries must not be victimized now."""
        return frozenset(b for b in self._busy if b != current)

    def _finish(self, txn: Transaction) -> None:
        now = self._events.now
        obs = self._obs
        if obs.enabled:
            # t_start (and, for writebacks, the resolved still_shared flag)
            # lets repro.verify.conformance order and interpret services by
            # the instant the directory state actually changed
            kind = txn.kind
            obs.record(
                "dir.service", txn.t_arrive, now - txn.t_arrive,
                self.cluster_id, kind, txn.block, txn.requester, txn.t_start,
                txn.still_shared if kind == WRITEBACK else None,
                txn.txn_id, txn.phases,
            )
        if txn.on_complete is not None:
            # Completion effects (requester fill, processor resume) must be
            # visible before the next transaction on this block executes.
            txn.on_complete(txn, now)
        block = txn.block
        self._busy.discard(block)
        invariants = self.machine.invariants
        if invariants is not None:
            # after the completion effects and the busy release, so a
            # strict scan sees this block's final (coherent) state
            invariants.on_finish(txn, now)
        queue = self._pending.get(block)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._pending[block]
            self._busy.add(block)
            self._start(nxt)

    # -- allocation and the pricing the read and write rows share ---------------

    def _allocate(self, txn: Transaction) -> Tuple[DirLine, float]:
        """The block's line plus the recall penalty its allocation cost."""
        if self._needs_pins:
            line, evictions = self.store.get_or_allocate(
                txn.block, avoid=self._pinned_blocks(txn.block)
            )
        else:
            line, evictions = self.store.get_or_allocate(txn.block)
        obs = self._obs
        if obs.enabled:  # sample this home's occupancy (entries in use)
            occ = self.store.occupancy()
            obs.record(
                "dir.occupancy", self._events.now, None, self.cluster_id, occ
            )
            obs.metrics.gauge("dir_occupancy_peak").set_max(occ)
        if evictions:
            return line, self._process_sparse_evictions(evictions, txn.txn_id)
        return line, 0.0

    def _price_forward(self, txn: Transaction, delta: float, owner: int) -> float:
        """Home forwards to the dirty ``owner``, which replies to the
        requester and notifies home (sharing writeback / transfer notice)."""
        cfg = self._cfg
        home = self.cluster_id
        req = txn.requester
        messages = self._messages
        if home != owner:
            messages[MsgClass.REQUEST] += 2  # forward + notice
        if owner != req:
            messages[MsgClass.REPLY] += 1  # data (+ownership)
        forward_leg = self._legs[home][owner]
        reply_leg = self._legs[owner][req]
        if self._obs.enabled:
            txn.phases = _phases(
                sparse_recall=delta,
                dir_lookup=cfg.dir_service_cycles,
                net_forward=forward_leg,
                remote_cache=cfg.cache_service_cycles,
                net_reply=reply_leg,
            )
        return (
            delta
            + cfg.dir_service_cycles
            + forward_leg
            + cfg.cache_service_cycles
            + reply_leg
        )

    # -- reads ------------------------------------------------------------------

    def _execute_read(self, txn: Transaction) -> float:
        cfg = self._cfg
        home = self.cluster_id
        req = txn.requester
        line, delta = self._allocate(txn)
        forwarded = protocol.read(
            line, txn.block, req, self._nodes,
            self._cancel_inflight_writeback, self._record_sharer, txn.txn_id,
        )
        if forwarded is not None:
            owner, found = forwarded
            if not found and self._strict:  # pragma: no cover
                raise RuntimeError(
                    f"coherence bug: forward for block {txn.block} found no "
                    f"copy at owner cluster {owner}"
                )
            return self._price_forward(txn, delta, owner)
        if home != req:
            self._messages[MsgClass.REPLY] += 1
        reply_leg = self._legs[home][req]
        if self._obs.enabled:
            txn.phases = _phases(
                sparse_recall=delta,
                memory=cfg.bus_cycles,
                net_reply=reply_leg,
            )
        return delta + cfg.bus_cycles + reply_leg

    def _record_sharer(
        self, line: DirLine, node: int, block: int,
        txn_id: Optional[int] = None,
    ) -> None:
        """Add a sharer; book a Dir_iNB forced eviction's round — acked to
        the home's RAC, audited over the whole group a pooled entry forgot
        the victims for, and untimed: no latency, no controller occupancy
        (a modelling choice, docs/protocol.md "Invalidation round")."""
        victims = protocol.record_sharer(line, node, block, self._nodes, txn_id)
        if victims:
            self._stats.nb_evictions += len(victims)
            self._book_round(
                InvalCause.NB_EVICT, block, victims, self.cluster_id,
                self.store.blocks_invalidated_with(block), txn_id,
            )

    # -- writes -----------------------------------------------------------------

    def _defer_if_group_busy(self, block: int, group_mates: Sequence[int]) -> None:
        """The kernel's ``in_flight`` guard for a pooled store's write.

        A group-mate's transaction is still in flight: its requester
        installs a copy only at completion, after our entry reset would
        have forgotten it.  NAK-retry until the group is quiet.
        Mutually-deferred grouped writes would livelock, so the lowest
        block id among deferred writers wins the tie.
        """
        blockers = [b for b in group_mates if b in self._busy]
        if blockers and not all(
            b in self._deferred_writes and block < b for b in blockers
        ):
            self._deferred_writes.add(block)
            raise AllWaysBusy(f"group-mate of block {block} busy")
        self._deferred_writes.discard(block)

    def _execute_write(self, txn: Transaction) -> float:
        cfg = self._cfg
        home = self.cluster_id
        req = txn.requester
        line, delta = self._allocate(txn)
        old_owner, targets, group_mates = protocol.write(
            line, txn.block, req, self._nodes,
            self._cancel_inflight_writeback, self._group_store,
            self._defer_if_group_busy, self._serial, txn.txn_id,
        )
        if targets is None:
            # ownership transfer: the old owner hands data+ownership over
            return self._price_forward(txn, delta, old_owner)

        # Clean/shared: the paper's "invalidation event", even with nobody to
        # invalidate.  The writer collects the acks (targets exclude req by
        # the kernel's contract); the entry is already reset, so group-mates
        # are audited against the entry that must still cover their copies.
        self._book_round(
            InvalCause.WRITE, txn.block, targets, req,
            (txn.block, *group_mates), txn.txn_id,
        )
        if home != req:
            self._messages[MsgClass.REPLY] += 1  # ownership (+inval count)
        worst_ack = 0.0
        if self._serial:
            # cache-based linked list: "each write produces a serial string
            # of invalidations ... having to walk through the list, cache-by-
            # cache" (§3.3): one full hop+service per sharer before the next
            # can start, issued by the caches, so the controller is not held
            legs = self._legs
            service = cfg.inval_service_cycles
            prev, serial_path = home, 0.0
            for t in targets:
                serial_path += legs[prev][t] + service
                worst_ack = max(worst_ack, serial_path + legs[t][req])
                prev = t
        elif targets:
            worst_ack = self._fanout_cycles(targets, req)

        reply_path = cfg.bus_cycles + self._legs[home][req]
        ack_path = (cfg.dir_service_cycles + worst_ack) if targets else 0.0
        if self._obs.enabled:
            # inval_fanout is the latency the ack collection adds *beyond*
            # the direct ownership reply — the §6.2 overhead a coarse
            # vector's extra invalidations inflate
            txn.phases = _phases(
                sparse_recall=delta,
                memory=cfg.bus_cycles,
                net_reply=self._legs[home][req],
                inval_fanout=max(reply_path, ack_path) - reply_path,
            )
        return delta + max(reply_path, ack_path)

    # -- writebacks and hints ------------------------------------------------------

    def _cancel_inflight_writeback(self, block: int, cluster: int) -> None:
        """Mark the cluster's pending writeback for this block obsolete.

        The kernel calls this at every point it (re-)grants ownership of
        ``block`` to ``cluster``: any writeback the cluster issued *before*
        this grant belongs to a dead generation of the line and must never
        be accepted — under message reordering it could otherwise arrive
        after the grant, match ``dirty and owner == cluster``, and wrongly
        clean the directory (found by the repro.verify model checker).
        The kernel then releases the cluster's writeback-buffer ghost.
        """
        key = (block, cluster)
        if self._cancelled_wb.get(key, 0) < self._wb_inflight.get(key, 0):
            self._cancelled_wb[key] = self._cancelled_wb.get(key, 0) + 1

    def _execute_writeback(self, txn: Transaction) -> float:
        cfg = self._cfg
        req = txn.requester
        key = (txn.block, req)
        remaining = self._wb_inflight.get(key, 0) - 1
        if remaining > 0:
            self._wb_inflight[key] = remaining
        else:
            self._wb_inflight.pop(key, None)
        pending_cancels = self._cancelled_wb.get(key, 0)
        if pending_cancels:
            # Obsoleted by a later ownership re-grant: drop silently.
            if pending_cancels == 1:
                del self._cancelled_wb[key]
            else:
                self._cancelled_wb[key] = pending_cancels - 1
            return cfg.dir_service_cycles
        still_shared = protocol.writeback(
            self.store, txn.block, req, txn.still_shared, self._nodes
        )
        if still_shared is not None:
            # record the *resolved* flag so the traced dir.service event
            # tells conformance whether the cluster kept a clean copy
            txn.still_shared = still_shared
        return cfg.bus_cycles

    def _execute_hint(self, txn: Transaction) -> float:
        protocol.hint(self.store, txn.block, txn.requester)
        return self._cfg.dir_service_cycles

    # -- invalidation rounds: the sparse recall, and what every round shares --------

    def _process_sparse_evictions(
        self, evictions: List[Eviction], txn_id: Optional[int] = None
    ) -> float:
        """Recall replaced entries' blocks and book the rounds (RAC duty);
        returns the latency charged to the triggering transaction.  The RAC
        entry tracking a recall holds the *slot* until every acknowledgement
        is back (§7), so the transaction waits out the slowest round; the
        controller stays available to other blocks (DASH has several RAC
        entries) beyond the issue occupancy ``_fanout_cycles`` charges."""
        home = self.cluster_id
        penalty = 0.0
        for ev in evictions:
            protocol.recall(ev, self._nodes, txn_id)
            self._stats.sparse_replacements += 1
            if self._obs.enabled:
                self._obs.record(
                    "dir.sparse_evict", self._events.now, None, home,
                    ev.block, len(ev.targets), sorted(ev.targets), txn_id,
                )
            if ev.targets:
                self._book_round(
                    InvalCause.SPARSE_REPL, ev.block, ev.targets, home,
                    (ev.block,), txn_id,
                )
                penalty = max(penalty, self._fanout_cycles(ev.targets, home))
            elif self.machine.invariants is not None:
                # no round, no event — but no transaction on it will audit it
                self.machine.invariants.check_block(ev.block)
        return penalty

    def _book_round(
        self, cause: InvalCause, block: int, targets: Sequence[int],
        recipient: int, audited: Sequence[int], txn_id: Optional[int] = None,
    ) -> int:
        """Count, histogram, trace and audit one invalidation round — the
        machine's only statement of the paper's accounting.

        Only inter-cluster messages count.  The home invalidates its own
        copy over its local bus ("the home cluster ... [does] not require
        an invalidation"), so each target but the home costs one
        invalidation; each is acknowledged to ``recipient`` (the writer for
        a write, the home's RAC for a Dir_iNB eviction or a sparse recall),
        so each target but the recipient costs one acknowledgement.  The
        round is one *invalidation event*, histogrammed by the invalidations
        it sent (Figures 3-6) and returned.  The checker re-derives both
        counts and audits ``audited``, the blocks the round disturbed.
        """
        home = self.cluster_id
        invals = acks = 0
        for t in targets:
            invals += t != home
            acks += t != recipient
        self._stats.count_msg(MsgClass.INVALIDATION, invals)
        self._stats.count_msg(MsgClass.ACKNOWLEDGEMENT, acks)
        self._stats.record_inval_event(cause, invals)
        if self._obs.enabled:  # the event feeds its cause's histogram
            self._obs.record(
                "dir.inval_round", self._events.now, None, home,
                cause.value, block, invals, txn_id,
            )
        invariants = self.machine.invariants
        if invariants is not None:
            invariants.on_inval_round(
                home=home, recipient=recipient, targets=targets,
                invals=invals, acks=acks, blocks=audited,
            )
        return invals

    def _fanout_cycles(self, targets: Sequence[int], recipient: int) -> float:
        """Price a round the home fans out itself: cycles until the last
        acknowledgement reaches ``recipient``.  Invalidations leave back to
        back — the memory-based directory "can send invalidation messages as
        fast as the network can accept them" (§3.3), one per issue slot — so
        a wide round delays its last ack and occupies the controller longer."""
        issue = self._cfg.inval_issue_cycles
        service = self._cfg.inval_service_cycles
        legs = self._legs
        legs_home = legs[self.cluster_id]
        worst_ack = 0.0
        for i, t in enumerate(targets):
            ack = (i + 1) * issue + legs_home[t] + service + legs[t][recipient]
            if ack > worst_ack:
                worst_ack = ack
        self._ctrl_free += len(targets) * issue
        return worst_ack
