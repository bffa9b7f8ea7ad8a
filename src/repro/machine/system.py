"""`DashSystem`: the whole machine, wired together and runnable.

Construction builds the clusters, the interconnect, one directory
controller per cluster (full-map or sparse, any scheme from
:mod:`repro.core`), and the synchronization manager.  :meth:`run`
attaches a workload's compiled streams to processors and drains the
event queue; the result is a :class:`~repro.machine.stats.SimStats`.

``run_workload`` is the one-call convenience used by examples and every
benchmark.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core import protocol
from repro.core.base import DirectoryScheme
from repro.core.registry import make_scheme
from repro.core.sparse import (
    DirectoryStore,
    FullMapDirectory,
    SparseDirectory,
    sparse_entries_for_size_factor,
)
from repro.machine.cluster import Cluster
from repro.machine.config import MachineConfig
from repro.machine.directory import HINT, READ, WRITE, WRITEBACK, DirectoryController, Transaction
from repro.machine.events import EventQueue
from repro.machine.faults import FaultPlan
from repro.machine.invariants import InvariantChecker, machine_state_violations
from repro.machine.messages import MsgClass
from repro.machine.network import FaultyNetwork, LegTable, make_network
from repro.machine.processor import Processor
from repro.machine.stats import SimStats
from repro.machine.sync import SyncManager
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.trace.workload import Workload


class DashSystem:
    """A simulated DASH machine bound to one workload."""

    #: run-loop bookkeeping snapshotted through the checkpoint codec
    _STATE = ("_finished", "_txn_seq")

    def __init__(
        self,
        config: MachineConfig,
        workload: Workload,
        *,
        scheme: Optional[DirectoryScheme] = None,
        strict: bool = False,
        faults: Optional[Union[int, FaultPlan]] = None,
        invariants: Optional[str] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        if workload.num_processors != config.num_processors:
            raise ValueError(
                f"workload has {workload.num_processors} processors but the "
                f"machine has {config.num_processors}"
            )
        if workload.block_bytes != config.block_bytes:
            raise ValueError(
                f"workload block size {workload.block_bytes} != machine "
                f"block size {config.block_bytes}"
            )
        self.config = config
        self.workload = workload
        #: raise on protocol anomalies instead of recovering (used in tests)
        self.strict = strict
        self.events = EventQueue()
        self.stats = SimStats(config.num_processors)
        #: observability sink — the shared NULL_TRACER unless a real
        #: Tracer is attached, so untraced runs pay one attribute load
        #: plus a falsy `.enabled` check per hook site and nothing more
        self.obs = obs if obs is not None else NULL_TRACER
        if self.obs.enabled:
            self.obs.bind_clock(lambda: self.events.now)
            self.stats.metrics = self.obs.metrics
        self.network = make_network(config.network, config.num_clusters)
        #: active fault plan, or None for the (byte-identical) clean path
        self.fault_plan: Optional[FaultPlan] = None
        if faults is not None:
            plan = faults if isinstance(faults, FaultPlan) else FaultPlan(faults)
            self.fault_plan = plan
            self.network = FaultyNetwork(self.network, plan)
        self.network.tracer = self.obs
        #: ``legs[src][dst]`` == network.leg(src, dst): directory
        #: controllers index it instead of calling ``leg`` per message leg
        self.legs = LegTable(self.network)
        #: runtime invariant checker, or None when checking is off
        self.invariants: Optional[InvariantChecker] = None
        if invariants is None:
            # default: watch faulty runs, stay out of clean runs
            invariants = "strict" if faults is not None else "off"
        if invariants not in ("strict", "off"):
            raise ValueError(
                f'invariants must be "strict" or "off", got {invariants!r}'
            )
        if invariants == "strict":
            self.invariants = InvariantChecker(self)
        self.scheme = scheme if scheme is not None else make_scheme(
            config.scheme, config.num_clusters, seed=config.seed
        )
        self.clusters: List[Cluster] = [
            Cluster(i, config, tracer=self.obs)
            for i in range(config.num_clusters)
        ]
        #: each cluster's processor caches: the nodes the kernel's rows take
        self.nodes = [cluster.caches for cluster in self.clusters]
        self.directories: List[DirectoryController] = [
            DirectoryController(self, i, self._make_store(i))
            for i in range(config.num_clusters)
        ]
        self.sync = SyncManager(self)
        self.processors: List[Processor] = []
        self._finished = 0
        # hot-path bindings (config is frozen; neither is ever rebound)
        self._block_bytes = config.block_bytes
        self._home_of = config.home_of
        #: monotone causal id for traced transactions (0 = never traced);
        #: advanced only when tracing is on, so untraced runs are untouched
        self._txn_seq = 0
        #: optional callable(proc_id, op, time) observing every op as it
        #: is issued — used by trace.recorder.InterleavingRecorder
        self.trace_hook = None
        #: set by a checkpoint restore: run() continues the restored
        #: event queue instead of (re)starting the processors
        self._restored = False

    # -- construction helpers ---------------------------------------------

    def _make_store(self, cluster_id: int) -> DirectoryStore:
        cfg = self.config
        if cfg.shared_entry_group is not None:
            from repro.core.shared_entry import SharedEntryDirectory

            if self.scheme.evicts_on_overflow:
                # a pointer eviction kills the victim's copy of one block,
                # but the pooled entry forgets the victim for the whole group
                raise ValueError(
                    f"scheme {self.scheme.name} evicts sharers on pointer "
                    f"overflow and cannot pool entries: shared_entry_group="
                    f"{cfg.shared_entry_group} would be incoherent"
                )
            return SharedEntryDirectory(
                self.scheme,
                cfg.shared_entry_group,
                stride=cfg.num_clusters,
                offset=cluster_id,
            )
        if cfg.sparse_size_factor is None:
            return FullMapDirectory(self.scheme)
        total_entries = sparse_entries_for_size_factor(
            cfg.total_cache_blocks, cfg.sparse_size_factor, cfg.sparse_assoc
        )
        per_home = max(cfg.sparse_assoc, total_entries // cfg.num_clusters)
        if per_home % cfg.sparse_assoc:
            per_home += cfg.sparse_assoc - per_home % cfg.sparse_assoc
        return SparseDirectory(
            self.scheme,
            per_home,
            cfg.sparse_assoc,
            policy=cfg.sparse_policy,
            seed=cfg.seed + cluster_id,
            stride=cfg.num_clusters,
            offset=cluster_id,
        )

    # -- topology helpers ----------------------------------------------------

    def cluster_of_proc(self, proc_id: int) -> int:
        """The cluster a processor lives in."""
        return proc_id // self.config.procs_per_cluster

    def home_of(self, block: int) -> int:
        """The home cluster of a memory block."""
        return self.config.home_of(block)

    # -- message accounting ----------------------------------------------------

    def count_msg(self, msg_class: MsgClass, src: int, dst: int) -> None:
        """Count one inter-cluster message (intra-cluster traffic is free)."""
        if src != dst:
            self.stats.count_msg(msg_class)

    # -- the memory system entry point ---------------------------------------------

    def access(
        self,
        proc: Processor,
        addr: int,
        is_write: bool,
        resume: Callable[[float, bool], None],
    ) -> None:
        """Handle one shared reference from ``proc``; resume when done.

        ``resume(time, local_hit)`` — ``local_hit`` tells the processor
        whether to book the elapsed time as busy (cache hit) or stall.
        """
        block = addr // self._block_bytes
        cluster_id = proc.cluster_id
        cluster = self.clusters[cluster_id]
        local = cluster.try_local(proc.proc_idx, block, is_write)
        stats = self.stats
        events = self.events
        if local.satisfied:
            where = local.where
            if where == "l1":
                stats.l1_hits += 1
                hit = True
            elif where == "l2":
                stats.l2_hits += 1
                hit = True
            else:
                stats.local_misses += 1
                hit = False
            if local.eviction is not None:
                self._handle_eviction(cluster_id, *local.eviction)
            done = events.now + local.latency
            events.at(done, resume, done, hit)
            return

        stats.remote_misses += 1
        home = self._home_of(block)
        txn_id: Optional[int] = None
        if self.obs.enabled:
            # the causal correlation id every span this transaction
            # produces carries (see repro.obs.causal)
            self._txn_seq += 1
            txn_id = self._txn_seq

        txn = Transaction(
            WRITE if is_write else READ,
            block,
            cluster_id,
            proc.proc_idx,
            self._complete_miss,
            txn_id=txn_id,
        )
        txn.resume = resume
        txn.t_issue = events.now
        self.directories[home].submit(txn)

    def _complete_miss(self, txn: Transaction, t: float) -> None:
        """Directory transaction done: fill the requester and resume.

        Shared completion handler for every remote miss — the transaction
        carries its own continuation (``txn.resume``) and issue time, so
        no per-miss closure is allocated.
        """
        is_write = txn.kind == WRITE
        block = txn.block
        cluster_id = txn.requester
        obs = self.obs
        if obs.enabled:
            t_issue = txn.t_issue
            obs.record(
                "txn.write" if is_write else "txn.read", t_issue,
                t - t_issue, self._home_of(block),
                block, cluster_id, txn.txn_id,
            )
        eviction = protocol.fill(self.nodes[cluster_id], txn.proc_idx, block, is_write)
        if eviction is not None:
            self._handle_eviction(cluster_id, *eviction)
        txn.resume(t, False)

    def _handle_eviction(
        self, cluster_id: int, vblock: int, was_dirty: bool
    ) -> None:
        """Issue the writeback (or optional hint) for a cache fill's victim."""
        procs = self.nodes[cluster_id]
        if was_dirty:
            self.stats.writebacks += 1
            if self.obs.enabled:
                self.obs.record(
                    "wb.issue", self.events.now, None, cluster_id, vblock
                )
            still_shared = protocol.copies_besides_wb(procs, vblock)
            self.directories[self._home_of(vblock)].submit(
                Transaction(
                    WRITEBACK, vblock, cluster_id, still_shared=still_shared
                )
            )
        elif self.config.replacement_hints:
            if not protocol.copies_besides_wb(procs, vblock):
                if self.obs.enabled:
                    self.obs.record(
                        "hint.issue", self.events.now, None, cluster_id, vblock
                    )
                self.directories[self._home_of(vblock)].submit(
                    Transaction(HINT, vblock, cluster_id)
                )

    # -- checkpointing --------------------------------------------------------------

    def checkpoint(self, path: Optional[str] = None, *, meta=None):
        """Snapshot the live machine; atomically written when ``path`` given.

        Returns the :class:`~repro.machine.checkpoint.SimCheckpoint`.
        The snapshot is captured *before* any instrumentation is
        emitted, so checkpoint contents never depend on how many
        checkpoints preceded them (see the determinism contract in
        ``docs/robustness.md``).
        """
        from repro.machine.checkpoint import SimCheckpoint

        ckpt = SimCheckpoint.capture(self, meta=meta)
        nbytes = len(ckpt.payload())
        if path is not None:
            nbytes = ckpt.save(path)
        obs = self.obs
        if obs.enabled:
            obs.record(
                "ckpt.save", self.events.now, None, 0,
                nbytes, self.events.events_run,
            )
            obs.metrics.counter("ckpt_saves").inc()
            obs.metrics.counter("ckpt_bytes").inc(nbytes)
        return ckpt

    def to_state(self, codec) -> dict:
        """``_STATE`` plus every processor's state.  The other components
        are walked by :mod:`repro.machine.checkpoint`, in its order."""
        state = codec.fields(self, self._STATE)
        state["procs"] = [proc.to_state(codec) for proc in self.processors]
        return state

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state` onto a never-run system: rebuild the
        processors, set their cursors and flag :meth:`run` to continue the
        restored event queue rather than start them."""
        codec.load_fields(self, self._STATE, state)
        self._build_processors()
        for proc, proc_state in zip(self.processors, state["procs"]):
            proc.load_state(proc_state, codec)
        self._restored = True

    def restore(self, ckpt) -> None:
        """Restore a checkpoint onto this freshly constructed system.

        ``ckpt`` is a :class:`~repro.machine.checkpoint.SimCheckpoint`
        (from :func:`~repro.machine.checkpoint.load_checkpoint` or a
        live :meth:`checkpoint` call).  The next :meth:`run` continues
        the restored event queue to completion.
        """
        ckpt.restore_into(self)
        obs = self.obs
        if obs.enabled:
            obs.record(
                "ckpt.restore", self.events.now, None, 0,
                self.events.events_run,
            )
            obs.metrics.counter("ckpt_resumes").inc()

    # -- run loop -------------------------------------------------------------------

    def _build_processors(self) -> None:
        self.processors = [
            Processor(self, p, ops)
            for p, ops in enumerate(self.workload.compile())
        ]

    def proc_finished(self, proc: Processor) -> None:
        """A processor drained its stream (run-loop bookkeeping)."""
        self._finished += 1

    def run(
        self,
        *,
        max_events: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        on_checkpoint: Optional[Callable[[object], None]] = None,
        checkpoint_meta: Optional[dict] = None,
    ) -> SimStats:
        """Simulate to completion and return the statistics.

        ``checkpoint_path`` + ``checkpoint_interval`` snapshot the
        machine to ``checkpoint_path`` every ``checkpoint_interval``
        events (skipping the final drain, where the completed results
        supersede any snapshot).  ``on_checkpoint(ckpt)`` fires after
        each periodic snapshot is on disk — the chaos harness uses it
        to kill the process at a moment a resumable checkpoint is
        guaranteed to exist.  After a :meth:`restore`, ``run``
        continues the restored queue instead of restarting.
        """
        if self._restored:
            self._restored = False
        else:
            self._build_processors()
            for proc in self.processors:
                proc.start()
        if checkpoint_interval is not None:
            if checkpoint_interval < 1:
                raise ValueError("checkpoint_interval must be >= 1")
            if max_events is not None:
                raise ValueError(
                    "checkpoint_interval and max_events are exclusive"
                )
            events = self.events
            while events:
                events.run(max_events=checkpoint_interval)
                if events:
                    ckpt = self.checkpoint(
                        checkpoint_path, meta=checkpoint_meta
                    )
                    if on_checkpoint is not None:
                        on_checkpoint(ckpt)
        else:
            self.events.run(max_events=max_events)
        if self._finished != len(self.processors) and max_events is None:
            stuck = [p.proc_id for p in self.processors if not p.done]
            raise RuntimeError(
                f"simulation deadlocked: processors {stuck} never finished "
                f"({self.sync.pending_waiters()} sync waiters pending)"
            )
        self.stats.exec_time = max(
            (p.stats.finish_time for p in self.processors), default=0.0
        )
        if self.invariants is not None and max_events is None:
            self.invariants.finalize(self.events.now)
        return self.stats

    # -- invariant checking (used heavily in tests) ------------------------------------

    def check_coherence(self) -> None:
        """Sweep the machine for the state invariants of
        :mod:`repro.machine.invariants` (single-writer, directory
        coverage, precision contract, cache inclusion) and raise the first
        :class:`~repro.machine.invariants.CoherenceViolation` found (a
        subclass of :class:`AssertionError`, so historical callers keep
        working).
        """
        for violation in machine_state_violations(self):
            raise violation


def run_workload(
    config: MachineConfig,
    workload: Workload,
    *,
    scheme: Optional[DirectoryScheme] = None,
    check: bool = False,
    strict: bool = False,
    faults: Optional[Union[int, FaultPlan]] = None,
    invariants: Optional[str] = None,
    obs: Optional[Tracer] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_meta: Optional[dict] = None,
) -> SimStats:
    """Build a machine, run the workload, optionally verify coherence.

    ``faults`` — an int seed or a :class:`FaultPlan` enables fault
    injection; ``invariants`` — ``"strict"`` / ``"off"``
    (default: strict when faults are enabled, off otherwise);
    ``strict`` makes the first invariant violation raise immediately;
    ``obs`` — attach a :class:`~repro.obs.tracer.Tracer` to record
    structured events and metrics (off by default, and free when off);
    ``checkpoint_path`` + ``checkpoint_interval`` — periodic crash-
    consistent snapshots, as documented on :meth:`DashSystem.run`.
    """
    system = DashSystem(
        config,
        workload,
        scheme=scheme,
        strict=strict,
        faults=faults,
        invariants=invariants,
        obs=obs,
    )
    stats = system.run(
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
        checkpoint_meta=checkpoint_meta,
    )
    if check:
        system.check_coherence()
    return stats
