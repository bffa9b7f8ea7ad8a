"""Crash-consistent simulation checkpoints: snapshot/restore of live runs.

A :class:`SimCheckpoint` captures the *entire* in-flight machine so a
run killed at any event boundary can be restored and continued to a
result byte-identical to the uninterrupted run.

One state contract
------------------

Every stateful component owns ``to_state``/``load_state`` next to the
fields they describe, and this module never reads another class's
private attributes (``docs/robustness.md`` has the table of who owns
what).  What stays here is cross-cutting: the value codec
(:class:`StateCodec`), the walk (:func:`capture_machine` /
:func:`restore_machine` — the restore order is load-bearing and is
stated once, there), and the file format with its gates.

A component whose state holds continuations or transactions takes the
codec (``to_state(codec)`` / ``load_state(state, codec)``); most name
their fields once, in a ``_STATE`` tuple walked by
:meth:`StateCodec.fields` / :meth:`StateCodec.load_fields`, and
hand-write only what the codec cannot express.  Optional components
(fault plan, invariant checker, tracer) also declare ``MUST_MATCH``: the
construction parameters a restore target has to share.

The codec
---------

Scalars pass through; ``tuple``/``list``/``deque``/``set``/``dict``
recurse under a tag (sets sorted, dicts in insertion order).  Callbacks
— the heap holds ``(time, seq, callback, args)`` — must be *bound
methods* of long-lived components (or positional ``functools.partial``
objects over one) listed in :data:`CONTINUATIONS`; each is encoded as a
``(class name, index, method)`` descriptor.  Anything else — a lambda, a
closure, an unregistered method — raises
:class:`UnregisteredContinuationError` at capture time rather than
producing a checkpoint that cannot be restored (the
``unpicklable-continuation`` lint rule catches it at review time).
:class:`~repro.machine.directory.Transaction` objects are interned, so
one transaction referenced from the heap, a pending queue and the
invariant checker is restored as one object.

File format
-----------

Line 1 is a JSON header (magic, schema version, code fingerprint,
machine config, workload/scheme identity, clock and event counts,
payload length and SHA-256, caller metadata); the pickled payload
follows as raw bytes.  Files are written atomically (``<path>.tmp`` +
``os.replace``) and loads verify length and digest, so a torn write is
detected as :class:`CheckpointIntegrityError`.  Restores are refused
across schema versions, code fingerprints, or differing machine configs
— a checkpoint continues one exact simulation; it is not a portable
trace.

Determinism contract
--------------------

Checkpoint instrumentation (``ckpt.*`` trace events, ``ckpt_*``
counters) is *excluded* from ``Tracer.to_state``, so a checkpoint's
payload does not depend on how many checkpoints preceded it, and a
restored machine re-captures the original payload byte for byte (see
``docs/robustness.md`` for the full contract).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.machine.directory import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

#: checkpoint file format version; restores are refused across versions
CKPT_SCHEMA = 7

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
        ("Processor", "_write_retired"),
        ("Processor", "_sync_resume"),
        ("DirectoryController", "_arrive"),
        ("DirectoryController", "_resend"),
        ("DirectoryController", "_execute"),
        ("DirectoryController", "_finish"),
        ("SyncManager", "_lock_at_home"),
        ("SyncManager", "_unlock_at_home"),
        ("SyncManager", "_barrier_at_home"),
    }
)

#: where a continuation's owner lives, for every class in CONTINUATIONS:
#: (DashSystem attribute holding it, "" for the system itself; attribute
#: of the owner giving its index there, None for a singleton).  A
#: descriptor names its owner as ``(class name, index)``.
_ADDRESS = {
    "DashSystem": ("", None),
    "SyncManager": ("sync", None),
    "Processor": ("processors", "proc_id"),
    "DirectoryController": ("directories", "cluster_id"),
}

#: container type <-> tag (exact types only: a NamedTuple or a Counter
#: would lose its class, so its owner must encode it by hand)
_SEQUENCE_TAGS = {tuple: "@tuple", list: "@list", deque: "@deque", set: "@set"}
_SEQUENCE_TYPES = {tag: kind for kind, tag in _SEQUENCE_TAGS.items()}


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


# ---------------------------------------------------------------------------
# the value codec: live values <-> plain data, against one system


class StateCodec:
    """Encodes and decodes component state against one live system.

    Transactions are interned: the first encounter assigns a serial and
    encodes the object's own state; later encounters reuse the serial,
    so object identity survives the round trip.
    """

    def __init__(self, system: "DashSystem") -> None:
        self.system = system
        #: capture: encoded transaction table, indexed by serial
        self.txns: List[Any] = []
        self._serials: Dict[int, int] = {}
        #: restore: the materialised transactions (see :meth:`load_txns`)
        self._txn_objs: List[Transaction] = []

    # -- a component's named fields -----------------------------------------

    def fields(self, obj: object, names: Iterable[str]) -> Dict[str, Any]:
        """Encode the attributes ``names`` of ``obj`` (its ``_STATE``)."""
        return {name: self.encode(getattr(obj, name)) for name in names}

    def load_fields(
        self, obj: object, names: Iterable[str], state: Dict[str, Any]
    ) -> None:
        """Inverse of :meth:`fields`: decode and assign each attribute."""
        for name in names:
            setattr(obj, name, self.decode(state[name]))

    # -- encoding -----------------------------------------------------------

    def encode(self, value: Any) -> Any:
        """Plain-data form of ``value`` (raises on a type it cannot carry)."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, Transaction):
            return ("@txn", self._intern(value))
        tag = _SEQUENCE_TAGS.get(type(value))
        if tag is not None:
            # sets serialise sorted: a canonical, run-independent order
            items = sorted(value) if tag == "@set" else value
            return (tag, [self.encode(v) for v in items])
        if type(value) is dict:
            return (
                "@dict",
                [(self.encode(k), self.encode(v)) for k, v in value.items()],
            )
        if callable(value):
            return self._encode_callback(value)
        raise CheckpointError(
            f"cannot checkpoint a value of type {type(value).__name__}: "
            f"{value!r}"
        )

    def _intern(self, txn: Transaction) -> int:
        serial = self._serials.get(id(txn))
        if serial is None:
            serial = self._serials[id(txn)] = len(self.txns)
            # Reserve the slot first: the nested continuations cannot
            # reference transactions today, but a future field might.
            self.txns.append(None)
            self.txns[serial] = txn.to_state(self)
        return serial

    def _encode_callback(self, cb: Callable[..., Any]) -> Tuple[Any, ...]:
        if isinstance(cb, partial):
            inner = self._encode_callback(cb.func)
            if inner[0] != "@cb" or cb.keywords:
                raise UnregisteredContinuationError(
                    f"cannot checkpoint partial {cb!r}: only positional "
                    f"partials over registered bound methods are supported"
                )
            return ("@partial", *inner[1:], self.encode(cb.args))
        owner = getattr(cb, "__self__", None)
        name = getattr(cb, "__name__", None)
        if owner is None or name is None:
            raise UnregisteredContinuationError(
                f"cannot checkpoint continuation {cb!r}: the machine layer "
                f"must schedule bound methods, never lambdas or closures "
                f"(see the unpicklable-continuation lint rule)"
            )
        kind = type(owner).__name__
        if (kind, name) not in CONTINUATIONS:
            raise UnregisteredContinuationError(
                f"continuation {kind}.{name} is not in "
                f"repro.machine.checkpoint.CONTINUATIONS; register it "
                f"there (it must be a bound method of a long-lived "
                f"component) before scheduling it"
            )
        key = _ADDRESS[kind][1]
        index = None if key is None else getattr(owner, key)
        if self._owner(kind, index) is not owner:
            raise UnregisteredContinuationError(
                f"continuation owner {owner!r} is not a component of the "
                f"machine being checkpointed"
            )
        return ("@cb", kind, index, name)

    # -- decoding -----------------------------------------------------------

    def decode(self, value: Any) -> Any:
        """Inverse of :meth:`encode`, against this codec's system."""
        if not isinstance(value, (tuple, list)):
            return value
        tag = value[0]
        kind = _SEQUENCE_TYPES.get(tag)
        if kind is not None:
            return kind(self.decode(v) for v in value[1])
        if tag == "@dict":
            return {self.decode(k): self.decode(v) for k, v in value[1]}
        if tag == "@txn":
            return self._txn_objs[value[1]]
        if tag == "@cb":
            return self._resolve(*value[1:])
        if tag == "@partial":
            return partial(self._resolve(*value[1:4]), *self.decode(value[4]))
        raise CheckpointError(f"malformed encoded value {value!r}")

    def load_txns(self, states: List[Any]) -> None:
        """Materialise the transaction table ``@txn`` references resolve to.

        Two phases — every object exists before any field is decoded —
        so a transaction's state may reference any other transaction.
        """
        self._txn_objs = [Transaction.__new__(Transaction) for _ in states]
        for txn, state in zip(self._txn_objs, states):
            txn.load_state(state, self)

    def _owner(self, kind: str, index: Optional[int]) -> object:
        where, key = _ADDRESS[kind]
        found = getattr(self.system, where) if where else self.system
        return found if key is None else found[index]

    def _resolve(self, kind: str, index: Any, name: str) -> Callable[..., Any]:
        if (kind, name) not in CONTINUATIONS:
            raise CheckpointError(
                f"checkpoint names unregistered continuation {kind}.{name}"
            )
        return getattr(self._owner(kind, index), name)


# ---------------------------------------------------------------------------
# the walker: which component is captured / restored when


def _paired(what: str, live: Any, saved: Any) -> Iterable[Tuple[Any, Any]]:
    """``zip(live, saved)``, refusing a snapshot of a different shape."""
    if len(live) != len(saved):
        raise CheckpointError(f"{what} count mismatch in checkpoint")
    return zip(live, saved)


def _optional_state(component: Any, *args: Any) -> Optional[Dict[str, Any]]:
    """An optional component's state plus its ``MUST_MATCH`` parameters."""
    if component is None:
        return None
    return {
        "params": {n: getattr(component, n) for n in component.MUST_MATCH},
        "state": component.to_state(*args),
    }


def _load_optional(
    what: str, component: Any, saved: Optional[Dict[str, Any]], *args: Any
) -> None:
    """Gate on presence and ``MUST_MATCH`` parameters, then load."""
    if (saved is None) != (component is None):
        raise CheckpointError(
            f"{what} mismatch: the checkpoint was written "
            f"{'without' if saved is None else 'with'} a {what} but the "
            f"restore target has {'none' if component is None else 'one'}; "
            f"build the target with the same setup as the checkpointing run"
        )
    if saved is None:
        return
    for name, value in saved["params"].items():
        if getattr(component, name) != value:
            raise CheckpointError(
                f"{what} parameter {name} differs: checkpoint has "
                f"{value!r}, restore target has {getattr(component, name)!r}"
            )
    component.load_state(saved["state"], *args)


def _tracer(system: "DashSystem") -> Any:
    return system.obs if system.obs.enabled else None


def capture_machine(system: "DashSystem") -> Dict[str, Any]:
    """Encode the complete live machine as a plain-data state tree."""
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot checkpoint a run with an attached trace hook "
            "(interleaving recorders are not serializable)"
        )
    codec = StateCodec(system)
    state = {
        "stats": system.stats.to_state(),
        "caches": [
            [cache.to_state() for cache in cluster.caches]
            for cluster in system.clusters
        ],
        "system": system.to_state(codec),
        "dirs": [ctrl.to_state(codec) for ctrl in system.directories],
        "scheme": system.scheme.to_state(),
        "events": system.events.to_state(codec),
        "sync": system.sync.to_state(codec),
        "faults": _optional_state(system.fault_plan),
        "invariants": _optional_state(system.invariants, codec),
        "obs": _optional_state(_tracer(system)),
    }
    state["txns"] = codec.txns  # complete only once every holder is walked
    return state


def restore_machine(system: "DashSystem", state: Dict[str, Any]) -> None:
    """Rebuild a captured machine onto a freshly constructed system.

    The target must be a just-built :class:`DashSystem` (same config,
    workload, scheme, fault plan, invariant mode, and tracing setup as
    the checkpointing run) whose :meth:`run` has not been called.
    """
    if system.events.events_run or system.events or system.processors:
        raise CheckpointError(
            "restore target must be a freshly constructed DashSystem "
            "(its run() has already been started)"
        )
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot restore into a system with an attached trace hook"
        )
    codec = StateCodec(system)

    # 1. Statistics, in place: controllers bound `stats` and its message
    #    counter, and the processors built in step 3 bind their rows.
    _paired("stats processor", system.stats.procs, state["stats"]["procs"])
    system.stats.load_state(state["stats"])

    # 2. Caches (independent of everything else).
    for cluster, saved in _paired("cluster", system.clusters, state["caches"]):
        for cache, cache_state in _paired("cache", cluster.caches, saved):
            cache.load_state(cache_state)

    # 3. Processors, rebuilt on the compiled streams with their cursors
    #    set — before any callback is decoded, since most continuations
    #    resolve to one.
    _paired(
        "processor", range(system.config.num_processors),
        state["system"]["procs"],
    )
    system.load_state(state["system"], codec)

    # 4. Transactions, so the heap, the pending queues, the sync waiters
    #    and the checker's outstanding table all share one object each.
    codec.load_txns(state["txns"])

    # 5. Directory stores, then the shared scheme: the scheme snapshot
    #    must win over any transient effects of entry restoration
    #    (overflow-cache key counters and wide-store LRU order are exact).
    for ctrl, saved in _paired("directory", system.directories, state["dirs"]):
        ctrl.load_state(saved, codec)
    system.scheme.load_state(state["scheme"])

    # 6. Everything that only references what now exists.
    system.events.load_state(state["events"], codec)
    system.sync.load_state(state["sync"], codec)
    _load_optional("fault plan", system.fault_plan, state["faults"])
    _load_optional(
        "invariant checker", system.invariants, state["invariants"], codec
    )
    _load_optional("tracer", _tracer(system), state["obs"])


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
        state = capture_machine(system)
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
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
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
        restore_machine(system, self.state)


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
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
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
