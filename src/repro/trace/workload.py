"""Workload base class: a parallel application as per-processor streams."""

from __future__ import annotations

import dataclasses
import json
import random
from abc import ABC, abstractmethod
from array import array
from typing import Any, Dict, Iterator, Tuple

from repro.trace.address_space import AddressSpace
from repro.trace.event import OPCODE, TraceOp

#: most ops the memo keeps resident (4 bytes each, normally); the newest
#: identity stays whatever its size
MEMO_MAX_OPS = 2_000_000

#: (workload class, canonical fingerprint) -> compiled streams, oldest first;
#: an entry is never written after its fill, so forked workers share them
_MEMO: Dict[Tuple[type, str], Tuple[array, ...]] = {}


def _canonical(value: Any) -> Any:
    """JSON-safe form of ``value`` that keeps what a stream could depend
    on — a trace op or dataclass keeps its class name, so ``Read(16)``
    and ``Write(16)`` differ; ``TypeError`` for what it cannot express."""
    if value is None or type(value) in (str, int, float, bool):
        return value
    if isinstance(value, (list, tuple)):
        items = [_canonical(v) for v in value]
        return [type(value).__name__, *items] if hasattr(value, "_fields") else items
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
        return [type(value).__name__, *_canonical(fields)]
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def compile_stream(workload: "Workload", proc_id: int) -> array:
    """Drain ``stream(proc_id)`` into packed words, ``operand << 3 |
    opcode``: 32-bit until one does not fit, 64-bit from then on.  Streams
    enter the machine here, so the trace format's contract — six op
    classes, non-negative ``int`` operands — is enforced here."""
    words = array("I")
    for op in workload.stream(proc_id):
        try:
            word = op[0] << 3 | OPCODE[type(op)]
            try:
                words.append(word)
            except OverflowError:  # too wide — or negative, which "Q" refuses too
                words = array("Q", words)
                words.append(word)
        except (TypeError, KeyError, IndexError, OverflowError) as exc:
            kind = ValueError if isinstance(exc, OverflowError) else TypeError
            raise kind(
                f"processor {proc_id} op {len(words)}: {op!r} is not a trace "
                f"op with a non-negative int operand"
            ) from None
    return array(words.typecode, words)  # trimmed: memo entries are long-lived


class Workload(ABC):
    """A parallel application, expressed as one op stream per processor.

    Subclasses allocate their shared data in :meth:`build` (called once by
    ``__init__``) and implement :meth:`stream`.  Streams must be
    *restartable*: calling ``stream(p)`` twice yields identical sequences,
    so one workload object can characterize itself (Table 2) and then be
    simulated.

    Streams must also be *oblivious*: the op sequence may depend on the
    seed but not on simulated timing.  Synchronization ops (locks and
    barriers) are how a stream expresses ordering constraints; the
    simulator enforces them in simulated time exactly as Tango's coupled
    mode did.  Non-deterministic applications (the paper's LocusRoute and
    MP3D) get their nondeterminism from the seed.

    Together they make a stream a *value*, a pure function of the class
    and the instance attributes — which is what lets :meth:`compile` drain
    it once and share the result by :meth:`fingerprint`.
    """

    name: str = "workload"

    def __init__(
        self, num_processors: int, *, block_bytes: int = 16, seed: int = 0
    ) -> None:
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        self.num_processors = num_processors
        self.block_bytes = block_bytes
        self.seed = seed
        self.space = AddressSpace(block_bytes=block_bytes)
        self._lock_counter = 0
        self._barrier_counter = 0
        self.build()

    @abstractmethod
    def build(self) -> None:
        """Allocate shared arrays, locks, and barriers."""

    @abstractmethod
    def stream(self, proc_id: int) -> Iterator[TraceOp]:
        """The op stream for processor ``proc_id`` (restartable)."""

    # -- identity and the compiled form ----------------------------------

    def fingerprint(self) -> Dict[str, Any]:
        """Stable identity of this built workload: equal fingerprints mean
        "same simulation" to the result cache and "same streams" to
        :meth:`compile`.  Class, declared name, every instance attribute
        in canonical form (sizes, seed, shared arrays, plans, scripts) and
        the shared footprint; ``space`` is left out (its arrays are
        attributes already, its size is ``shared_bytes``).  An attribute
        with no canonical form is named under ``opaque`` — the identity is
        then lossy.  Code changes inside :meth:`stream` are the cache's
        code fingerprint's to cover, not this one's."""
        attrs, opaque = {}, []
        for name, value in sorted(vars(self).items()):
            if name == "space":
                continue
            try:
                attrs[name] = _canonical(value)
            except TypeError:
                opaque.append(name)
        return {
            "class": f"{type(self).__module__}.{type(self).__qualname__}",
            "name": self.name,
            "attrs": attrs,
            "opaque": opaque,
            "shared_bytes": self.shared_bytes,
        }

    def compile(self) -> Tuple[array, ...]:
        """Every processor's stream as packed words (:func:`compile_stream`)
        — what the machine, ``characterize`` and ``dump_trace`` read.  Shared,
        read-only, by fingerprint; a lossy fingerprint compiles privately."""
        identity = self.fingerprint()
        if identity["opaque"]:
            return self._compile_privately()
        key = (type(self), json.dumps(identity, sort_keys=True))
        streams = _MEMO.get(key)
        if streams is None:
            streams = _MEMO[key] = self._compile_privately()
            resident = sum(len(s) for entry in _MEMO.values() for s in entry)
            while resident > MEMO_MAX_OPS and len(_MEMO) > 1:
                resident -= sum(len(s) for s in _MEMO.pop(next(iter(_MEMO))))
        return streams

    def _compile_privately(self) -> Tuple[array, ...]:
        return tuple(compile_stream(self, p) for p in range(self.num_processors))

    def compiled(self, proc_id: int) -> array:
        """Processor ``proc_id``'s compiled stream."""
        return self.compile()[proc_id]

    # -- resource allocation helpers -------------------------------------

    def new_lock(self) -> int:
        """Allocate a fresh lock id."""
        lock_id = self._lock_counter
        self._lock_counter += 1
        return lock_id

    def new_locks(self, count: int) -> list[int]:
        """Allocate several fresh lock ids."""
        return [self.new_lock() for _ in range(count)]

    def new_barrier(self) -> int:
        """Allocate a fresh barrier id."""
        barrier_id = self._barrier_counter
        self._barrier_counter += 1
        return barrier_id

    def rng_for(self, proc_id: int, salt: int = 0) -> random.Random:
        """Deterministic per-processor RNG (stream restarts must match)."""
        return random.Random(f"{self.seed}:{proc_id}:{salt}")

    @property
    def shared_bytes(self) -> int:
        return self.space.total_shared_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name} procs={self.num_processors} "
            f"shared={self.shared_bytes}B>"
        )
