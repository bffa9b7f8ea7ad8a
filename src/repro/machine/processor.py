"""Trace-driven processor: advances its op stream with timing feedback.

Each processor executes one op at a time and only fetches the next when
the previous completes, so the global interleaving of shared references
is determined by simulated time — the coupled Tango mode of §5.  All
continuations go through the event queue (never direct recursion), so
arbitrarily long streams cannot overflow the Python stack.

Consistency models: under the default sequential consistency a write
stalls the processor until every acknowledgement has arrived ("when all
acknowledgements are received by the local cluster, the write is
complete", §2).  With ``MachineConfig.release_consistency`` — DASH's
actual model — writes retire in the background while the processor
continues; synchronization operations and the end of the stream act as
fences that drain outstanding writes first.

Hot-path note: the blocking-access continuation is the bound method
:meth:`Processor._mem_resume` (legal because a processor has at most one
blocking reference outstanding), and frequently chased attributes
(event queue, per-processor stats, block geometry) are bound once at
construction — this loop dominates simulation wall time.

Checkpointability: every continuation a processor hands out is a bound
method (or a ``functools.partial`` over one carrying the block number),
never a closure, and ``ops_consumed`` counts how far the trace stream
has advanced so a restored processor can fast-forward a fresh stream to
the same cursor (workload streams are restartable and oblivious by the
:class:`~repro.trace.workload.Workload` contract).  Every slot is
either a construction-time binding (``_BINDINGS``) or snapshotted state
(``_STATE`` plus the hand-encoded fence slot).
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

from repro.machine.stats import ProcessorStats
from repro.trace.event import Barrier, Lock, Read, TraceOp, Unlock, Work, Write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

#: cycles to hand a write to the write buffer under release consistency
WRITE_ISSUE_CYCLES = 1.0


class Processor:
    """One simulated processor bound to a trace stream."""

    #: bound by ``__init__`` for the life of the run; never snapshotted
    #: (``_stream`` is re-created and fast-forwarded to ``ops_consumed``)
    _BINDINGS = ("machine", "proc_id", "cluster_id", "proc_idx", "_stream",
                 "stats", "_events", "_sync", "_block_bytes",
                 "_release_consistency", "_issue_write", "_obs",
                 "_trace_hook")
    #: snapshotted verbatim through the checkpoint codec
    _STATE = ("done", "_outstanding_writes", "_fence_start",
              "_pending_blocks", "_t0", "_addr", "_is_write", "_sync_t0",
              "ops_consumed")
    __slots__ = _BINDINGS + _STATE + ("_fence",)

    def __init__(
        self, machine: "DashSystem", proc_id: int, stream: Iterator[TraceOp]
    ) -> None:
        self.machine = machine
        self.proc_id = proc_id
        self.cluster_id = machine.cluster_of_proc(proc_id)
        self.proc_idx = proc_id % machine.config.procs_per_cluster
        self._stream = stream
        self.stats: ProcessorStats = machine.stats.procs[proc_id]
        self.done = False
        #: release consistency: writes issued but not yet acknowledged
        self._outstanding_writes = 0
        #: deferred continuation waiting for the write buffer to drain
        self._fence: Optional[TraceOp] = None
        self._fence_start = 0.0
        #: blocks with an in-flight buffered write (for store forwarding)
        self._pending_blocks: dict = {}
        # hot-path bindings (never rebound for the life of the run)
        self._events = machine.events
        self._sync = machine.sync
        self._block_bytes = machine.config.block_bytes
        self._release_consistency = machine.config.release_consistency
        #: issue time/address of the one outstanding *blocking* reference
        self._t0 = 0.0
        self._addr = 0
        self._is_write = False
        #: issue time of the one outstanding synchronization op
        self._sync_t0 = 0.0
        #: trace-stream cursor: ops fetched so far (checkpoint resume)
        self.ops_consumed = 0
        self._issue_write = (
            self._issue_buffered_write
            if self._release_consistency
            else self._issue_blocking_write
        )
        # Processors are built inside run(), after any recorder has set
        # machine.trace_hook, so both hooks can be bound once here.
        self._obs = machine.obs
        self._trace_hook = machine.trace_hook

    def start(self) -> None:
        """Schedule this processor's first op at the current time."""
        self._events.at(self._events.now, self._next)

    def _next(self) -> None:
        op = next(self._stream, None)
        if op is not None:
            self.ops_consumed += 1
        if self._outstanding_writes and (
            op is None or type(op) in (Lock, Unlock, Barrier)
        ):
            # drain outstanding writes before sync ops / retirement
            self._fence = op if op is not None else _END
            self._fence_start = self._events.now
            return
        self._dispatch(op)

    def _fence_released(self) -> None:
        op = self._fence
        self._fence = None
        self.stats.sync += self._events.now - self._fence_start
        self._dispatch(None if op is _END else op)

    def _dispatch(self, op) -> None:
        if op is None:
            self.done = True
            self.stats.finish_time = self._events.now
            self.machine.proc_finished(self)
            return
        if self._trace_hook is not None:
            self._trace_hook(self.proc_id, op, self._events.now)
        kind = type(op)
        # branch order matches op frequency in the workloads: reads,
        # then writes, then work, then the rare synchronization ops
        if kind is Read:
            self.stats.reads += 1
            addr = op.addr
            if self._pending_blocks and (
                addr // self._block_bytes in self._pending_blocks
            ):
                # store-buffer forwarding: the read sees our own
                # outstanding write without touching the memory system
                self.stats.busy += WRITE_ISSUE_CYCLES
                self._events.after(WRITE_ISSUE_CYCLES, self._next)
            else:
                self._t0 = self._events.now
                self._addr = addr
                self._is_write = False
                self.machine.access(self, addr, False, self._mem_resume)
        elif kind is Write:
            self.stats.writes += 1
            self._issue_write(op.addr)
        elif kind is Work:
            self.stats.busy += op.cycles
            self._events.after(op.cycles, self._next)
        elif kind is Lock:
            self._sync_t0 = self._events.now
            self._sync.lock(self.proc_id, op.lock_id, self._sync_resume)
        elif kind is Unlock:
            self._sync_t0 = self._events.now
            self._sync.unlock(self.proc_id, op.lock_id, self._sync_resume)
        elif kind is Barrier:
            self._sync_t0 = self._events.now
            self._sync.barrier(self.proc_id, op.barrier_id, self._sync_resume)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown trace op {op!r}")

    def _issue_blocking_write(self, addr: int) -> None:
        """Sequential consistency: stall until every ack has arrived."""
        self._t0 = self._events.now
        self._addr = addr
        self._is_write = True
        self.machine.access(self, addr, True, self._mem_resume)

    def _mem_resume(self, t: float, local_hit: bool) -> None:
        """Continuation of the one outstanding blocking reference."""
        t0 = self._t0
        elapsed = t - t0
        if local_hit:
            self.stats.busy += elapsed
        else:
            self.stats.stall += elapsed
            obs = self._obs
            if obs.enabled:
                obs.record(
                    "proc.stall", t0, elapsed, self.proc_id,
                    self._addr, self._is_write,
                )
        self._next()

    def _issue_buffered_write(self, addr: int) -> None:
        """Release consistency: issue the write and keep going.

        A write to a block that already has one in flight coalesces into
        the buffered entry (write combining); otherwise the write is
        issued to the memory system and retired in the background.
        """
        block = addr // self._block_bytes
        if block in self._pending_blocks:
            self.stats.busy += WRITE_ISSUE_CYCLES
            self._events.after(WRITE_ISSUE_CYCLES, self._next)
            return
        self._outstanding_writes += 1
        self._pending_blocks[block] = True
        self.machine.access(self, addr, True, partial(self._write_retired, block))
        self.stats.busy += WRITE_ISSUE_CYCLES
        self._events.after(WRITE_ISSUE_CYCLES, self._next)

    def _write_retired(self, block: int, t: float, local_hit: bool) -> None:
        """Background completion of one buffered write."""
        self._outstanding_writes -= 1
        self._pending_blocks.pop(block, None)
        if self._outstanding_writes == 0 and self._fence is not None:
            self._fence_released()

    def _sync_resume(self, t: float) -> None:
        """Continuation of the one outstanding synchronization op."""
        t0 = self._sync_t0
        self.stats.sync += t - t0
        obs = self._obs
        if obs.enabled and t > t0:
            obs.record("proc.sync", t0, t - t0, self.proc_id)
        self._next()

    # -- checkpoint state ------------------------------------------------------

    def to_state(self, codec) -> dict:
        """``_STATE`` plus the fence slot, encoded by hand: its op is a
        NamedTuple (or the end-of-stream sentinel), which the codec
        refuses rather than flatten to a bare tuple."""
        state = codec.fields(self, self._STATE)
        op = self._fence
        if op is not None:
            op = "end" if op is _END else (type(op).__name__, *op)
        state["_fence"] = op
        return state

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state` onto a processor built on a *fresh*
        stream, which is fast-forwarded to the saved cursor (the Workload
        contract guarantees ``stream(p)`` replays identically)."""
        codec.load_fields(self, self._STATE, state)
        fence = state["_fence"]
        if fence == "end":
            self._fence = _END
        elif fence is not None:
            name, *fields = fence
            if name not in _FENCE_OPS:
                raise ValueError(f"unknown trace op {name!r} in fence slot")
            self._fence = _FENCE_OPS[name](*fields)
        consumed = self.ops_consumed
        if consumed:
            next(islice(self._stream, consumed - 1, consumed), None)


class _EndSentinel:
    """Marks 'end of stream' inside a pending fence slot."""


_END = _EndSentinel()

#: the ops a fence slot can hold, by class name (see ``Processor._next``)
_FENCE_OPS = {cls.__name__: cls for cls in (Lock, Unlock, Barrier)}
