"""Crash-consistent simulation checkpoints: snapshot/restore of live runs.

A :class:`SimCheckpoint` captures the *entire* in-flight machine — the
event queue (continuations serialized as ``(component, method, args)``
descriptors), every directory entry, the cache arrays, in-flight
transactions, per-store RNG states, workload cursors, statistics, fault
and invariant state, and (when tracing) the observability buffers — so a
run killed at any cycle can be restored and continued to a result
byte-identical to the uninterrupted run.

Serialization strategy
----------------------

The event heap holds ``(time, seq, callback, args)`` tuples whose
callbacks are *bound methods* of long-lived machine components (the
machine layer never schedules closures — enforced by the
``unpicklable-continuation`` lint rule).  Each callback is encoded as a
descriptor naming its component (``("system",)``, ``("proc", i)``,
``("dir", i)``, ``("sync",)``) and method; only methods in
:data:`CONTINUATIONS` are accepted, and anything else — a lambda, a
closure, an unregistered method — raises
:class:`UnregisteredContinuationError` at capture time rather than
producing a checkpoint that cannot be restored.

Arguments are encoded structurally: scalars pass through, tuples/lists
recurse, :class:`~repro.machine.directory.Transaction` objects are
interned into a serial-numbered table (preserving identity — the same
transaction referenced from the heap, a pending queue, and the
invariant checker is restored as one object), and nested callables
(processor resumes riding in sync-grant events) re-enter the callback
encoder.

File format
-----------

Line 1 is a JSON header: magic, schema version, the writing build's
code fingerprint, the machine config, workload/scheme identity, clock
and event counts, payload length and SHA-256, and caller metadata.  The
pickled payload follows as raw bytes.  Files are written atomically
(``<path>.tmp`` + ``os.replace``) and loads verify length and digest,
so a torn write is detected as :class:`CheckpointIntegrityError`
instead of a garbage restore.  Restores are refused across schema
versions, code fingerprints, or differing machine configs — a
checkpoint is a continuation of one exact simulation, not a portable
trace.

Determinism contract
--------------------

Checkpoint instrumentation (``ckpt.*`` trace events, ``ckpt_*``
counters) is *excluded* from captured tracer state, so a checkpoint's
payload does not depend on how many checkpoints preceded it, and a
resumed run's simulation state is byte-identical to the uninterrupted
run's (see ``docs/robustness.md`` for the full contract).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import deque
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.machine.directory import DirectoryController, Transaction
from repro.machine.invariants import CoherenceViolation
from repro.machine.processor import _END, Processor
from repro.machine.stats import InvalCause, SimStats
from repro.machine.sync import SyncManager, _BarrierState, _LockState
from repro.obs.tracer import TraceEvent
from repro.trace import event as trace_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

#: checkpoint file format version; restores are refused across versions
CKPT_SCHEMA = 2

#: first bytes of every checkpoint header line
MAGIC = "repro-ckpt"

#: pickle protocol for the payload (4 = stable since Python 3.4)
_PICKLE_PROTOCOL = 4

#: the complete set of (class name, method name) pairs the machine layer
#: may schedule into the event queue or park as a waiter continuation.
#: Scheduling anything else makes the run uncheckpointable — additions
#: here must be bound methods of a long-lived component reachable from
#: the DashSystem (and should extend the determinism-gate tests).
CONTINUATIONS = frozenset(
    {
        ("DashSystem", "_complete_miss"),
        ("Processor", "_next"),
        ("Processor", "_mem_resume"),
        ("Processor", "_write_retired"),
        ("Processor", "_sync_resume"),
        ("Processor", "_fence_released"),
        ("DirectoryController", "_arrive"),
        ("DirectoryController", "_resend"),
        ("DirectoryController", "_execute"),
        ("DirectoryController", "_finish"),
        ("SyncManager", "_lock_at_home"),
        ("SyncManager", "_unlock_at_home"),
        ("SyncManager", "_barrier_at_home"),
    }
)

#: fence-slot trace ops a processor can hold (restored by name)
_TRACE_OPS = {
    cls.__name__: cls
    for cls in (
        trace_event.Read,
        trace_event.Write,
        trace_event.Work,
        trace_event.Lock,
        trace_event.Unlock,
        trace_event.Barrier,
    )
}

#: FaultPlan construction parameters that must match between the
#: checkpointing and restoring runs (the RNG stream depends on them)
_FAULT_PARAMS = (
    "seed", "drop_prob", "dup_prob", "delay_prob", "nak_prob",
    "corrupt_prob", "delay_max_legs", "retry_timeout_cycles",
    "max_retries", "max_faults",
)


class CheckpointError(RuntimeError):
    """Base class for checkpoint capture/restore failures."""


class CheckpointIntegrityError(CheckpointError):
    """The file on disk is torn, truncated, or corrupted."""


class CheckpointSchemaError(CheckpointError):
    """The file was written by an incompatible schema or build."""


class UnregisteredContinuationError(CheckpointError):
    """A scheduled callback is not a registered bound-method descriptor."""


def _current_fingerprint() -> str:
    # Imported lazily: analysis/ imports machine/, never the reverse.
    from repro.analysis.cache import code_fingerprint

    return code_fingerprint()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# encoding: live machine -> plain-data state tree


class _Encoder:
    """Encodes callbacks/arguments against one live system.

    Transactions are interned: the first encounter assigns a serial and
    serializes the fields (including the nested ``on_complete``/
    ``resume`` continuations); later encounters reuse the serial, so
    object identity survives the round trip.
    """

    def __init__(self, system: "DashSystem") -> None:
        self.system = system
        self.txns: List[Dict[str, Any]] = []
        self._txn_memo: Dict[int, int] = {}

    # -- components --------------------------------------------------------

    def component_path(self, obj: object) -> Tuple[Any, ...]:
        system = self.system
        if obj is system:
            return ("system",)
        if isinstance(obj, Processor):
            return ("proc", obj.proc_id)
        if isinstance(obj, DirectoryController):
            return ("dir", obj.cluster_id)
        if obj is system.sync:
            return ("sync",)
        raise UnregisteredContinuationError(
            f"continuation owner {obj!r} is not an addressable machine "
            f"component (system/processor/directory/sync)"
        )

    # -- callbacks ---------------------------------------------------------

    def encode_callback(self, cb: Callable[..., Any]) -> Tuple[Any, ...]:
        if isinstance(cb, partial):
            inner = self.encode_callback(cb.func)
            if inner[0] != "@cb" or cb.keywords:
                raise UnregisteredContinuationError(
                    f"cannot checkpoint partial {cb!r}: only positional "
                    f"partials over registered bound methods are supported"
                )
            return ("@partial", inner[1], inner[2], self.encode_args(cb.args))
        owner = getattr(cb, "__self__", None)
        name = getattr(cb, "__name__", None)
        if owner is None or name is None:
            raise UnregisteredContinuationError(
                f"cannot checkpoint continuation {cb!r}: the machine layer "
                f"must schedule bound methods, never lambdas or closures "
                f"(see the unpicklable-continuation lint rule)"
            )
        if (type(owner).__name__, name) not in CONTINUATIONS:
            raise UnregisteredContinuationError(
                f"continuation {type(owner).__name__}.{name} is not in "
                f"repro.machine.checkpoint.CONTINUATIONS; register it "
                f"there (it must be a bound method of a long-lived "
                f"component) before scheduling it"
            )
        return ("@cb", self.component_path(owner), name)

    # -- values ------------------------------------------------------------

    def encode_value(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, Transaction):
            return ("@txn", self.encode_txn(value))
        if isinstance(value, tuple):
            return ("@tuple", [self.encode_value(v) for v in value])
        if isinstance(value, list):
            return ("@list", [self.encode_value(v) for v in value])
        if callable(value):
            return self.encode_callback(value)
        raise CheckpointError(
            f"cannot checkpoint event argument of type "
            f"{type(value).__name__}: {value!r}"
        )

    def encode_args(self, args: Tuple[Any, ...]) -> List[Any]:
        return [self.encode_value(a) for a in args]

    def encode_txn(self, txn: Transaction) -> int:
        serial = self._txn_memo.get(id(txn))
        if serial is not None:
            return serial
        serial = len(self.txns)
        self._txn_memo[id(txn)] = serial
        # Reserve the slot first: the nested continuations below cannot
        # reference transactions, but a future field might.
        self.txns.append({})
        self.txns[serial] = {
            "kind": txn.kind,
            "block": txn.block,
            "requester": txn.requester,
            "proc_idx": txn.proc_idx,
            "on_complete": (
                self.encode_callback(txn.on_complete)
                if txn.on_complete is not None
                else None
            ),
            "still_shared": txn.still_shared,
            "attempts": txn.attempts,
            "delivered": txn.delivered,
            "t_arrive": txn.t_arrive,
            "t_start": txn.t_start,
            "txn_id": txn.txn_id,
            "phases": dict(txn.phases) if txn.phases is not None else None,
            "resume": (
                self.encode_callback(txn.resume)
                if txn.resume is not None
                else None
            ),
            "t_issue": txn.t_issue,
        }
        return serial


def _encode_fence(op: Any) -> Any:
    if op is None:
        return None
    if op is _END:
        return ("end",)
    return ("op", type(op).__name__, list(op))


def _capture_tracer(system: "DashSystem") -> Optional[Dict[str, Any]]:
    """Snapshot the tracer, excluding checkpoint instrumentation.

    ``ckpt.*`` events and ``ckpt_*`` metrics record *harness* activity
    (how many times this process saved/restored), not simulation state;
    excluding them keeps a checkpoint's payload independent of how many
    checkpoints preceded it.
    """
    obs = system.obs
    if not obs.enabled:
        return None
    events = [
        (e.name, e.ts, e.kind, e.dur, e.comp, e.tid,
         dict(e.args) if e.args else None)
        for e in obs
        if not e.name.startswith("ckpt.")
    ]
    ckpt_emitted = sum(
        n for name, n in obs.counts.items() if name.startswith("ckpt.")
    )
    metrics = obs.metrics
    return {
        "capacity": obs.capacity,
        "emitted": obs.emitted - ckpt_emitted,
        "counts": {
            name: n for name, n in obs.counts.items()
            if not name.startswith("ckpt.")
        },
        "comp_counts": {
            comp: n for comp, n in obs.comp_counts.items() if comp != "ckpt"
        },
        "buf": events,
        "metrics": {
            "counters": {
                name: c.value for name, c in metrics.counters.items()
                if not name.startswith("ckpt_")
            },
            "gauges": {name: g.value for name, g in metrics.gauges.items()},
            "histograms": {
                name: (dict(h.buckets), h.count, h.total)
                for name, h in metrics.histograms.items()
            },
        },
    }


def capture_state(system: "DashSystem") -> Dict[str, Any]:
    """Encode the complete live machine as a plain-data state tree."""
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot checkpoint a run with an attached trace hook "
            "(interleaving recorders are not serializable)"
        )
    enc = _Encoder(system)
    events = system.events
    heap = [
        (time, seq, enc.encode_callback(cb), enc.encode_args(args))
        for time, seq, cb, args in events._heap
    ]
    dirs = []
    for ctrl in system.directories:
        dirs.append(
            {
                "busy": sorted(ctrl._busy),
                "pending": [
                    (block, [enc.encode_txn(t) for t in queue])
                    for block, queue in ctrl._pending.items()
                ],
                "ctrl_free": ctrl._ctrl_free,
                "cancelled_wb": list(ctrl._cancelled_wb.items()),
                "wb_inflight": list(ctrl._wb_inflight.items()),
                "deferred_writes": sorted(ctrl._deferred_writes),
                "store": ctrl.store.to_state(),
            }
        )
    procs = []
    for proc in system.processors:
        procs.append(
            {
                "done": proc.done,
                "outstanding_writes": proc._outstanding_writes,
                "fence": _encode_fence(proc._fence),
                "fence_start": proc._fence_start,
                "pending_blocks": sorted(proc._pending_blocks),
                "t0": proc._t0,
                "addr": proc._addr,
                "is_write": proc._is_write,
                "sync_t0": proc._sync_t0,
                "ops_consumed": proc.ops_consumed,
            }
        )
    sync = system.sync
    sync_state = {
        "locks": [
            (
                lock_id,
                st.held,
                st.holder,
                [(p, enc.encode_callback(r)) for p, r in st.waiters],
            )
            for lock_id, st in sync._locks.items()
        ],
        "barriers": [
            (
                bar_id,
                st.arrived,
                [(p, enc.encode_callback(r)) for p, r in st.waiters],
            )
            for bar_id, st in sync._barriers.items()
        ],
    }
    plan = system.fault_plan
    faults = None
    if plan is not None:
        faults = {
            "params": {name: getattr(plan, name) for name in _FAULT_PARAMS},
            "rng": plan.rng.getstate(),
            "injected": plan.injected,
        }
    checker = system.invariants
    invariants = None
    if checker is not None:
        invariants = {
            "mode": checker.mode,
            "outstanding": [
                (enc.encode_txn(txn), t0)
                for txn, t0 in checker._outstanding.values()
            ],
            "finished": checker._finished,
            "inval_rounds": checker.inval_rounds,
            "checks_run": checker.checks_run,
            "violations": [
                (v.invariant,
                 str(v)[len(f"[{v.invariant}] "):],
                 v.block)
                for v in checker.violations
            ],
        }
    return {
        "events": {
            "now": events.now,
            "seq": events._seq,
            "events_run": events.events_run,
            "heap": heap,
        },
        "system": {
            "finished": system._finished,
            "txn_seq": system._txn_seq,
        },
        "procs": procs,
        "caches": [
            [cache.to_state() for cache in cluster.caches]
            for cluster in system.clusters
        ],
        "dirs": dirs,
        "scheme": system.scheme.to_state(),
        "stats": system.stats.to_state(),
        "sync": sync_state,
        "faults": faults,
        "invariants": invariants,
        "txns": enc.txns,
        "obs": _capture_tracer(system),
    }


# ---------------------------------------------------------------------------
# decoding: state tree -> live machine


class _Decoder:
    """Resolves descriptors back to components of one fresh system."""

    def __init__(self, system: "DashSystem") -> None:
        self.system = system
        self.txn_objs: List[Transaction] = []

    def component(self, path: Any) -> object:
        kind = path[0]
        if kind == "system":
            return self.system
        if kind == "proc":
            return self.system.processors[path[1]]
        if kind == "dir":
            return self.system.directories[path[1]]
        if kind == "sync":
            return self.system.sync
        raise CheckpointError(f"unknown component path {path!r}")

    def decode_callback(self, enc: Any) -> Callable[..., Any]:
        tag = enc[0]
        if tag == "@partial":
            _, path, name, args = enc
            method = self._resolve(path, name)
            return partial(method, *self.decode_args(args))
        if tag == "@cb":
            _, path, name = enc
            return self._resolve(path, name)
        raise CheckpointError(f"malformed continuation descriptor {enc!r}")

    def _resolve(self, path: Any, name: str) -> Callable[..., Any]:
        owner = self.component(tuple(path))
        if (type(owner).__name__, name) not in CONTINUATIONS:
            raise CheckpointError(
                f"checkpoint names unregistered continuation "
                f"{type(owner).__name__}.{name}"
            )
        return getattr(owner, name)

    def decode_value(self, value: Any) -> Any:
        if isinstance(value, tuple) or isinstance(value, list):
            tag = value[0]
            if tag == "@txn":
                return self.txn_objs[value[1]]
            if tag == "@tuple":
                return tuple(self.decode_value(v) for v in value[1])
            if tag == "@list":
                return [self.decode_value(v) for v in value[1]]
            if tag in ("@cb", "@partial"):
                return self.decode_callback(value)
            raise CheckpointError(f"malformed encoded value {value!r}")
        return value

    def decode_args(self, args: List[Any]) -> Tuple[Any, ...]:
        return tuple(self.decode_value(a) for a in args)

    def decode_txns(self, states: List[Dict[str, Any]]) -> List[Transaction]:
        # Two phases: materialize every object first, then decode the
        # nested continuations (which may only reference components, but
        # keeping the phases separate makes that a non-assumption).
        objs = []
        for st in states:
            txn = Transaction(
                st["kind"],
                st["block"],
                st["requester"],
                st["proc_idx"],
                None,
                still_shared=st["still_shared"],
                txn_id=st["txn_id"],
            )
            txn.attempts = st["attempts"]
            txn.delivered = st["delivered"]
            txn.t_arrive = st["t_arrive"]
            txn.t_start = st["t_start"]
            txn.phases = (
                dict(st["phases"]) if st["phases"] is not None else None
            )
            txn.t_issue = st["t_issue"]
            objs.append(txn)
        self.txn_objs = objs
        for txn, st in zip(objs, states):
            if st["on_complete"] is not None:
                txn.on_complete = self.decode_callback(st["on_complete"])
            if st["resume"] is not None:
                txn.resume = self.decode_callback(st["resume"])
        return objs


def _decode_fence(enc: Any) -> Any:
    if enc is None:
        return None
    tag = enc[0]
    if tag == "end":
        return _END
    if tag == "op":
        _, name, fields = enc
        cls = _TRACE_OPS.get(name)
        if cls is None:
            raise CheckpointError(f"unknown trace op {name!r} in fence slot")
        return cls(*fields)
    raise CheckpointError(f"malformed fence state {enc!r}")


def _restore_stats_in_place(stats: SimStats, state: Dict[str, Any]) -> None:
    """Apply a stats snapshot without replacing any bound-in objects.

    Directory controllers bind ``machine.stats`` and its ``messages``
    counter at construction, and processors bind their ``ProcessorStats``
    rows, so the restore must mutate those objects, never rebind them.
    """
    fresh = SimStats.from_state(state)  # validates the snapshot shape
    if len(fresh.procs) != len(stats.procs):
        raise CheckpointError(
            f"stats snapshot has {len(fresh.procs)} processors, "
            f"machine has {len(stats.procs)}"
        )
    stats.messages.clear()
    stats.messages.update(fresh.messages)
    for cause in InvalCause:
        hist = stats.inval_hist[cause]
        hist.clear()
        hist.update(fresh.inval_hist[cause])
    stats.fault_counts.clear()
    stats.fault_counts.update(fresh.fault_counts)
    for proc, fresh_proc in zip(stats.procs, fresh.procs):
        for field_name, value in vars(fresh_proc).items():
            setattr(proc, field_name, value)
    for name in SimStats._SCALAR_FIELDS:
        setattr(stats, name, getattr(fresh, name))


def _restore_tracer(system: "DashSystem", state: Optional[Dict[str, Any]]) -> None:
    obs = system.obs
    if state is None:
        if obs.enabled:
            raise CheckpointError(
                "checkpoint was written without tracing but this machine "
                "has a tracer attached; restore with tracing disabled"
            )
        return
    if not obs.enabled:
        raise CheckpointError(
            "checkpoint was written with tracing enabled but this machine "
            "has no tracer; attach one with the same capacity"
        )
    if obs.capacity != state["capacity"]:
        raise CheckpointError(
            f"tracer capacity mismatch: checkpoint has {state['capacity']}, "
            f"machine has {obs.capacity}"
        )
    obs._buf.clear()
    for name, ts, kind, dur, comp, tid, args in state["buf"]:
        obs._buf.append(
            TraceEvent(name, ts, kind=kind, dur=dur, comp=comp, tid=tid,
                       args=args)
        )
    obs.emitted = state["emitted"]
    obs.counts.clear()
    obs.counts.update(state["counts"])
    obs.comp_counts.clear()
    obs.comp_counts.update(state["comp_counts"])
    metrics = obs.metrics
    saved = state["metrics"]
    metrics.counters.clear()
    for name, value in saved["counters"].items():
        metrics.counter(name).value = value
    metrics.gauges.clear()
    for name, value in saved["gauges"].items():
        metrics.gauge(name).value = value
    metrics.histograms.clear()
    for name, (buckets, count, total) in saved["histograms"].items():
        hist = metrics.histogram(name)
        hist.buckets = dict(buckets)
        hist.count = count
        hist.total = total


def restore_state(system: "DashSystem", state: Dict[str, Any]) -> None:
    """Rebuild a captured machine onto a freshly constructed system.

    The target must be a just-built :class:`DashSystem` (same config,
    workload, scheme, fault plan, invariant mode, and tracing setup as
    the checkpointing run) whose :meth:`run` has not been called.
    """
    if system.events.events_run or system.events._heap or system.processors:
        raise CheckpointError(
            "restore target must be a freshly constructed DashSystem "
            "(its run() has already been started)"
        )
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot restore into a system with an attached trace hook"
        )

    # Statistics first (in place: controllers bound the objects).
    _restore_stats_in_place(system.stats, state["stats"])

    # Caches.
    saved_caches = state["caches"]
    if len(saved_caches) != len(system.clusters):
        raise CheckpointError("cluster count mismatch in checkpoint")
    for cluster, cache_states in zip(system.clusters, saved_caches):
        if len(cache_states) != len(cluster.caches):
            raise CheckpointError("cache count mismatch in checkpoint")
        for cache, cache_state in zip(cluster.caches, cache_states):
            cache.load_state(cache_state)

    # Directory stores, then the shared scheme (the scheme snapshot must
    # win over any transient effects of entry restoration — overflow-
    # cache key counters and wide-store LRU order are exact).
    dirs_state = state["dirs"]
    if len(dirs_state) != len(system.directories):
        raise CheckpointError("directory count mismatch in checkpoint")
    for ctrl, dstate in zip(system.directories, dirs_state):
        ctrl.store.load_state(dstate["store"])
        ctrl._busy = set(dstate["busy"])
        ctrl._ctrl_free = dstate["ctrl_free"]
        ctrl._cancelled_wb = {
            tuple(k): v for k, v in dstate["cancelled_wb"]
        }
        ctrl._wb_inflight = {
            tuple(k): v for k, v in dstate["wb_inflight"]
        }
        ctrl._deferred_writes = set(dstate["deferred_writes"])
    system.scheme.load_state(state["scheme"])

    # Processors: fresh streams fast-forwarded to the saved cursor (the
    # Workload contract guarantees stream(p) replays identically).
    procs_state = state["procs"]
    if len(procs_state) != system.config.num_processors:
        raise CheckpointError("processor count mismatch in checkpoint")
    processors = []
    for proc_id, pstate in enumerate(procs_state):
        stream = system.workload.stream(proc_id)
        consumed = pstate["ops_consumed"]
        if consumed:
            next(islice(stream, consumed - 1, consumed), None)
        proc = Processor(system, proc_id, stream)
        proc.done = pstate["done"]
        proc._outstanding_writes = pstate["outstanding_writes"]
        proc._fence = _decode_fence(pstate["fence"])
        proc._fence_start = pstate["fence_start"]
        proc._pending_blocks = {b: True for b in pstate["pending_blocks"]}
        proc._t0 = pstate["t0"]
        proc._addr = pstate["addr"]
        proc._is_write = pstate["is_write"]
        proc._sync_t0 = pstate["sync_t0"]
        proc.ops_consumed = consumed
        processors.append(proc)
    system.processors = processors

    dec = _Decoder(system)
    txn_objs = dec.decode_txns(state["txns"])

    # Event queue: the saved heap list is a valid heap (seq is unique,
    # so tuple comparison never reaches the callbacks) — restore as is.
    ev_state = state["events"]
    events = system.events
    events._heap = [
        (time, seq, dec.decode_callback(cb), dec.decode_args(args))
        for time, seq, cb, args in ev_state["heap"]
    ]
    events._seq = ev_state["seq"]
    events.now = ev_state["now"]
    events.events_run = ev_state["events_run"]

    # Pending queues (transactions parked behind busy blocks).
    for ctrl, dstate in zip(system.directories, dirs_state):
        ctrl._pending = {
            block: deque(txn_objs[s] for s in serials)
            for block, serials in dstate["pending"]
        }

    # Synchronization waiters.
    sync_state = state["sync"]
    system.sync._locks = {
        lock_id: _LockState(
            held=held,
            holder=holder,
            waiters=deque(
                (p, dec.decode_callback(r)) for p, r in waiters
            ),
        )
        for lock_id, held, holder, waiters in sync_state["locks"]
    }
    system.sync._barriers = {
        bar_id: _BarrierState(
            arrived=arrived,
            waiters=[(p, dec.decode_callback(r)) for p, r in waiters],
        )
        for bar_id, arrived, waiters in sync_state["barriers"]
    }

    # Fault plan (RNG stream position and budget).
    saved_faults = state["faults"]
    plan = system.fault_plan
    if (saved_faults is None) != (plan is None):
        raise CheckpointError(
            "fault-injection mismatch: checkpoint "
            + ("has" if saved_faults is not None else "has no")
            + " fault plan but the restore target "
            + ("does not" if plan is None else "does")
        )
    if saved_faults is not None and plan is not None:
        for name in _FAULT_PARAMS:
            if getattr(plan, name) != saved_faults["params"][name]:
                raise CheckpointError(
                    f"fault plan parameter {name} differs: checkpoint has "
                    f"{saved_faults['params'][name]!r}, restore target has "
                    f"{getattr(plan, name)!r}"
                )
        plan.rng.setstate(saved_faults["rng"])
        plan.injected = saved_faults["injected"]

    # Invariant checker.
    saved_inv = state["invariants"]
    checker = system.invariants
    if (saved_inv is None) != (checker is None):
        raise CheckpointError(
            "invariant-checker mismatch: build the restore target with "
            "the same `invariants` mode as the checkpointing run"
        )
    if saved_inv is not None and checker is not None:
        if checker.mode != saved_inv["mode"]:
            raise CheckpointError(
                f"invariant mode differs: checkpoint has "
                f"{saved_inv['mode']!r}, restore target has "
                f"{checker.mode!r}"
            )
        checker._outstanding = {
            id(txn_objs[s]): (txn_objs[s], t0)
            for s, t0 in saved_inv["outstanding"]
        }
        checker._finished = saved_inv["finished"]
        checker.inval_rounds = saved_inv["inval_rounds"]
        checker.checks_run = saved_inv["checks_run"]
        checker.violations = [
            CoherenceViolation(inv, msg, block=block)
            for inv, msg, block in saved_inv["violations"]
        ]

    # Observability (buffers, tallies, metric instruments).
    _restore_tracer(system, state["obs"])

    # Run-loop bookkeeping; flag run() to continue rather than restart.
    sys_state = state["system"]
    system._finished = sys_state["finished"]
    system._txn_seq = sys_state["txn_seq"]
    system._restored = True


# ---------------------------------------------------------------------------
# the on-disk artifact


class SimCheckpoint:
    """One captured machine state plus its self-describing header."""

    def __init__(
        self,
        header: Dict[str, Any],
        state: Dict[str, Any],
        payload: Optional[bytes] = None,
    ) -> None:
        self.header = header
        self.state = state
        self._payload = payload

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls, system: "DashSystem", *, meta: Optional[Dict[str, Any]] = None
    ) -> "SimCheckpoint":
        """Snapshot a live system (does not emit any instrumentation)."""
        state = capture_state(system)
        payload = pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        header = {
            "magic": MAGIC,
            "schema": CKPT_SCHEMA,
            "code_fingerprint": _current_fingerprint(),
            "config": system.config.cache_key_fields(),
            "workload": getattr(
                system.workload, "name", type(system.workload).__name__
            ),
            "scheme": system.scheme.name,
            "now": system.events.now,
            "events_run": system.events.events_run,
            "events_pending": len(system.events),
            "payload_bytes": len(payload),
            "payload_sha256": _sha256(payload),
            "meta": dict(meta) if meta else {},
        }
        return cls(header, state, payload)

    # -- persistence -------------------------------------------------------

    def payload(self) -> bytes:
        """The pickled state blob (memoized; what the header digests)."""
        if self._payload is None:
            self._payload = pickle.dumps(
                self.state, protocol=_PICKLE_PROTOCOL
            )
        return self._payload

    def save(self, path: str) -> int:
        """Atomically write ``<path>`` (tmp + rename); returns bytes written.

        The temporary file is ``<path>.tmp`` — for the conventional
        ``*.ckpt`` checkpoint names that yields ``*.ckpt.tmp``, which the
        result cache's orphan sweep garbage-collects if a worker dies
        between write and rename.
        """
        payload = self.payload()
        header_line = (
            json.dumps(self.header, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(header_line)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return len(header_line) + len(payload)

    # -- restore -----------------------------------------------------------

    def restore_into(self, system: "DashSystem") -> None:
        """Restore onto a fresh system, gating on build and config identity."""
        fingerprint = _current_fingerprint()
        if self.header.get("code_fingerprint") != fingerprint:
            raise CheckpointSchemaError(
                "checkpoint was written by a different build of the "
                "simulator (code fingerprint "
                f"{self.header.get('code_fingerprint', '?')[:12]} != "
                f"{fingerprint[:12]}); continuation across code changes "
                "is undefined — re-run the point from scratch"
            )
        config_fields = system.config.cache_key_fields()
        if config_fields != self.header.get("config"):
            saved = self.header.get("config") or {}
            diff = sorted(
                k
                for k in set(saved) | set(config_fields)
                if saved.get(k) != config_fields.get(k)
            )
            raise CheckpointError(
                f"machine config differs from the checkpoint's in fields "
                f"{diff}; a checkpoint only continues the exact "
                f"configuration that wrote it"
            )
        restore_state(system, self.state)


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate a checkpoint file's JSON header line only."""
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointIntegrityError(
            f"{path}: not a checkpoint file (unparsable header)"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointIntegrityError(
            f"{path}: not a checkpoint file (bad magic)"
        )
    if header.get("schema") != CKPT_SCHEMA:
        raise CheckpointSchemaError(
            f"{path}: checkpoint schema {header.get('schema')!r} is not "
            f"readable by this build (expects {CKPT_SCHEMA})"
        )
    return header


def load_checkpoint(path: str) -> SimCheckpoint:
    """Load and integrity-check a checkpoint file.

    Raises :class:`CheckpointIntegrityError` on torn or corrupted files
    (length or SHA-256 mismatch) and :class:`CheckpointSchemaError` on
    unreadable schema versions.  The code-fingerprint gate fires at
    :meth:`SimCheckpoint.restore_into`, so headers of foreign builds can
    still be inspected.
    """
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.readline()  # header line, already parsed
        payload = fh.read()
    expected_bytes = header.get("payload_bytes")
    if len(payload) != expected_bytes:
        raise CheckpointIntegrityError(
            f"{path}: torn checkpoint (payload is {len(payload)} bytes, "
            f"header promises {expected_bytes})"
        )
    if _sha256(payload) != header.get("payload_sha256"):
        raise CheckpointIntegrityError(
            f"{path}: corrupted checkpoint (payload SHA-256 mismatch)"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointIntegrityError(
            f"{path}: checkpoint payload does not unpickle: {exc}"
        ) from exc
    return SimCheckpoint(header, state, payload)


def verify_checkpoint(path: str) -> Dict[str, Any]:
    """Full verification pass for the ``repro ckpt verify`` CLI.

    Returns the header augmented with a ``fingerprint_match`` flag;
    integrity failures raise as in :func:`load_checkpoint`.
    """
    ckpt = load_checkpoint(path)
    header = dict(ckpt.header)
    header["fingerprint_match"] = (
        header.get("code_fingerprint") == _current_fingerprint()
    )
    return header
