"""Trace-driven processor: walks its compiled op stream with timing feedback.

Each processor executes one op at a time and only fetches the next when
the previous completes, so the global interleaving of shared references
is determined by simulated time — the coupled Tango mode of §5.  All
continuations go through the event queue (never direct recursion), so
arbitrarily long streams cannot overflow the Python stack.

The stream is data: an array of packed words (``operand << 3 | opcode``,
:meth:`repro.trace.workload.Workload.compile`) shared read-only with
every machine running the same workload; ``ops_consumed`` is the cursor
into it, and an op object exists only when a ``trace_hook`` asks for one.

Consistency models: under the default sequential consistency a write
stalls the processor until every acknowledgement has arrived ("when all
acknowledgements are received by the local cluster, the write is
complete", §2).  With ``MachineConfig.release_consistency`` — DASH's
actual model — writes retire in the background while the processor
continues; synchronization operations and the end of the stream act as
fences that drain outstanding writes first — the cursor rests on the
fencing op (or at the end) until the last write retires.

Hot-path note: :meth:`Processor._next` is one frame per op — it books
the blocking reference that resumed it (a processor has at most one
outstanding, so its issue time lives in a slot), then fetches, decodes
and issues the next op; frequently chased attributes are bound once at
construction — this loop dominates simulation wall time.

Checkpointability: every continuation a processor hands out is a bound
method (or a ``functools.partial`` over one carrying the block number),
never a closure, and the stream position is the integer
``ops_consumed``, so restoring a processor is setting its fields.  Every
slot is either a construction-time binding (``_BINDINGS``) or
snapshotted state (``_STATE``).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.machine.stats import ProcessorStats
from repro.trace.event import END, LOCK, READ, UNLOCK, WORK, WRITE, unpack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

#: cycles to hand a write to the write buffer under release consistency
WRITE_ISSUE_CYCLES = 1.0


class Processor:
    """One simulated processor bound to a compiled trace stream."""

    #: bound by ``__init__`` for the life of the run; never snapshotted
    _BINDINGS = ("machine", "proc_id", "cluster_id", "proc_idx", "_ops",
                 "stats", "_events", "_sync", "_block_bytes",
                 "_release_consistency", "_obs", "_trace_hook")
    #: snapshotted verbatim through the checkpoint codec
    _STATE = ("done", "_outstanding_writes", "_fence", "_fence_start",
              "_pending_blocks", "_t0", "_addr", "_is_write", "_sync_t0",
              "ops_consumed")
    __slots__ = _BINDINGS + _STATE

    def __init__(self, machine: "DashSystem", proc_id: int, ops: array) -> None:
        self.machine = machine
        self.proc_id = proc_id
        self.cluster_id = machine.cluster_of_proc(proc_id)
        self.proc_idx = proc_id % machine.config.procs_per_cluster
        self._ops = ops
        self.stats: ProcessorStats = machine.stats.procs[proc_id]
        self.done = False
        #: release consistency: writes issued but not yet acknowledged
        self._outstanding_writes = 0
        #: waiting for the write buffer to drain before the op at the cursor
        self._fence = False
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
        #: cursor into ``_ops``: ops issued so far
        self.ops_consumed = 0
        # Processors are built inside run(), after any recorder has set
        # machine.trace_hook, so both hooks can be bound once here.
        self._obs = machine.obs
        self._trace_hook = machine.trace_hook

    def start(self) -> None:
        """Schedule this processor's first op at the current time."""
        self._events.at(self._events.now, self._next)

    def _next(self, t: Optional[float] = None, local_hit: bool = False) -> None:
        """Issue the op at the cursor — first booking the blocking
        reference that just completed at ``t``, when resumed by one."""
        if t is not None:
            t0 = self._t0
            if local_hit:
                self.stats.busy += t - t0
            else:
                self.stats.stall += t - t0
                obs = self._obs
                if obs.enabled:
                    obs.record(
                        "proc.stall", t0, t - t0, self.proc_id,
                        self._addr, self._is_write,
                    )
        cursor = self.ops_consumed
        try:
            word = self._ops[cursor]
        except IndexError:
            word = END
        code = word & 7
        if code > WORK:
            if self._outstanding_writes:
                # sync ops and retirement drain outstanding writes first:
                # the cursor stays put and _write_retired comes back here
                self._fence = True
                self._fence_start = self._events.now
                return
            if code == END:
                self.done = True
                self.stats.finish_time = self._events.now
                self.machine.proc_finished(self)
                return
        self.ops_consumed = cursor + 1
        operand = word >> 3
        if self._trace_hook is not None:
            self._trace_hook(self.proc_id, unpack(word), self._events.now)
        if code == READ:
            self.stats.reads += 1
            if self._pending_blocks and (
                operand // self._block_bytes in self._pending_blocks
            ):
                # store-buffer forwarding: the read sees our own
                # outstanding write without touching the memory system
                self.stats.busy += WRITE_ISSUE_CYCLES
                self._events.after(WRITE_ISSUE_CYCLES, self._next)
                return
        elif code == WRITE:
            self.stats.writes += 1
            if self._release_consistency:
                self._issue_buffered_write(operand)
                return
        elif code == WORK:
            self.stats.busy += operand
            self._events.after(operand, self._next)
            return
        else:
            self._sync_t0 = self._events.now
            sync = self._sync
            issue = (
                sync.lock if code == LOCK
                else sync.unlock if code == UNLOCK else sync.barrier
            )
            issue(self.proc_id, operand, self._sync_resume)
            return
        # a blocking reference (under sequential consistency a write stalls
        # until every ack has arrived): the machine resumes _next itself
        self._t0 = self._events.now
        self._addr = operand
        self._is_write = is_write = code == WRITE
        self.machine.access(self, operand, is_write, self._next)

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
        if self._outstanding_writes == 0 and self._fence:
            self._fence = False
            self.stats.sync += self._events.now - self._fence_start
            self._next()

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
        """``_STATE``, the cursor among it."""
        return codec.fields(self, self._STATE)

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state` onto a processor built on the same
        workload's compiled stream."""
        codec.load_fields(self, self._STATE, state)
