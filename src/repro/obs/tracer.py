"""Ring-buffered structured tracer with a zero-cost disabled twin.

The machine layer holds one tracer per :class:`~repro.machine.system.
DashSystem`.  By default that is :data:`NULL_TRACER` — a shared
singleton whose ``enabled`` flag is ``False`` and whose methods all
no-op — and every hook point is gated::

    if machine.obs.enabled:
        machine.obs.emit("txn.read", ts=t0, dur=now - t0, ...)

so a tracing-disabled run executes one attribute load and a falsy branch
per hook: statistics are byte-identical to a build without the hooks
(guarded by ``tests/test_obs_zero_cost.py``).

Timestamps are *simulated cycles* (the event-queue clock), never wall
time — machine code is forbidden wall clocks by the ``unseeded-random``
lint rule, and cycle timestamps make traces deterministic per seed.
The buffer is a bounded ring: when full, the oldest events fall out and
``dropped`` counts them, so tracing a long run cannot exhaust memory.
Per-name/per-component tallies survive the ring (they are plain
counters), so summaries stay exact even after wraparound.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.registry import EVENTS

#: event kinds (mirrors the Chrome trace_event phases we export to)
SPAN = "span"  # has a duration (ph "X")
INSTANT = "instant"  # a point in time (ph "i")
COUNTER = "counter"  # a sampled value series (ph "C")
BEGIN = "begin"  # open half of a split span (ph "B") — must be paired
END = "end"  # close half of a split span (ph "E")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record (immutable once emitted)."""

    name: str
    ts: float  # simulated cycles
    kind: str = INSTANT  # SPAN / INSTANT / COUNTER
    dur: Optional[float] = None  # spans only
    comp: str = ""  # component: system/directory/network/cache/proc
    tid: int = 0  # cluster or processor id within the component
    args: Optional[Dict[str, object]] = field(default=None)

    def to_json_dict(self) -> Dict[str, object]:
        """Flat dict for the JSONL exporter (stable key order)."""
        out: Dict[str, object] = {
            "name": self.name,
            "ts": self.ts,
            "kind": self.kind,
            "comp": self.comp,
            "tid": self.tid,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Enabled tracer: bounded ring buffer plus exact tallies."""

    enabled = True

    #: construction parameter a checkpoint's restore target must share
    MUST_MATCH = ("capacity",)

    def __init__(
        self,
        capacity: int = 65536,
        *,
        clock: Optional[Callable[[], float]] = None,
        strict: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: Deque[TraceEvent] = deque(maxlen=capacity)
        self._clock = clock
        self.strict = strict
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry(strict=strict)
        )
        self.emitted = 0
        #: exact per-event-name tallies (not subject to ring wraparound)
        self.counts: TallyCounter = TallyCounter()
        #: exact per-component tallies (profiler + summaries)
        self.comp_counts: TallyCounter = TallyCounter()

    # -- clock binding ------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock (``lambda: events.now``)."""
        self._clock = clock

    def now(self) -> float:
        """Current simulated time, 0.0 when no clock is bound."""
        return self._clock() if self._clock is not None else 0.0

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        name: str,
        *,
        ts: float,
        dur: Optional[float] = None,
        kind: Optional[str] = None,
        comp: str = "",
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one event at ``ts`` (a span when ``dur`` is given)."""
        if self.strict and name not in EVENTS:
            raise ValueError(
                f"trace event {name!r} is not declared in "
                f"repro.obs.registry.EVENTS; add it there first"
            )
        if kind is None:
            kind = SPAN if dur is not None else INSTANT
        self._buf.append(
            TraceEvent(name, ts, kind=kind, dur=dur, comp=comp, tid=tid,
                       args=args)
        )
        self.emitted += 1
        self.counts[name] += 1
        if comp:
            self.comp_counts[comp] += 1

    def emit_now(
        self,
        name: str,
        *,
        comp: str = "",
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Instant event stamped with the bound clock."""
        self.emit(name, ts=self.now(), comp=comp, tid=tid, args=args)

    def emit_counter(
        self, name: str, *, ts: float, value: float, comp: str = "",
        tid: int = 0,
    ) -> None:
        """Counter sample (renders as a value-over-time track)."""
        self.emit(
            name, ts=ts, kind=COUNTER, comp=comp, tid=tid,
            args={"value": value},
        )

    # -- checkpoint state ---------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Ring, tallies and metrics — minus checkpoint instrumentation.

        ``ckpt.*`` events, the ``ckpt`` component tally and ``ckpt_*``
        counters record *harness* activity (how many times this process
        saved or restored), not simulation state; excluding them keeps a
        checkpoint's payload independent of how many checkpoints
        preceded it.  ``emitted`` is the sum of ``counts`` and is not
        stored.
        """
        return {
            "buf": [
                (e.name, e.ts, e.kind, e.dur, e.comp, e.tid,
                 dict(e.args) if e.args else None)
                for e in self._buf
                if not e.name.startswith("ckpt.")
            ],
            "counts": {
                name: n for name, n in self.counts.items()
                if not name.startswith("ckpt.")
            },
            "comp_counts": {
                comp: n for comp, n in self.comp_counts.items()
                if comp != "ckpt"
            },
            "metrics": self.metrics.to_state(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`to_state` onto a tracer of equal capacity."""
        self._buf.clear()
        self._buf.extend(TraceEvent(*row) for row in state["buf"])
        self.counts.clear()
        self.counts.update(state["counts"])
        self.emitted = sum(self.counts.values())
        self.comp_counts.clear()
        self.comp_counts.update(state["comp_counts"])
        self.metrics.load_state(state["metrics"])

    # -- inspection ---------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by later ones."""
        return self.emitted - len(self._buf)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buf)

    def summary(self) -> Dict[str, object]:
        """Headline numbers for reports and the CLI."""
        return {
            "emitted": self.emitted,
            "retained": len(self._buf),
            "dropped": self.dropped,
            "by_name": dict(sorted(self.counts.items())),
            "by_component": dict(sorted(self.comp_counts.items())),
        }


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Shared as :data:`NULL_TRACER`; hook points gate on :attr:`enabled`
    so disabled runs never build event payloads, and any ungated call
    still costs only a no-op method dispatch.
    """

    enabled = False
    strict = False
    capacity = 0
    emitted = 0
    metrics = NullMetrics()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Discard."""

    def now(self) -> float:
        """Always 0.0 (no clock is ever bound)."""
        return 0.0

    def emit(self, name: str, **kwargs: object) -> None:
        """Discard."""

    def emit_now(self, name: str, **kwargs: object) -> None:
        """Discard."""

    def emit_counter(self, name: str, **kwargs: object) -> None:
        """Discard."""

    @property
    def dropped(self) -> int:
        """Always 0."""
        return 0

    def events(self) -> List[TraceEvent]:
        """Always empty."""
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def summary(self) -> Dict[str, object]:
        """The all-zero summary."""
        return {
            "emitted": 0,
            "retained": 0,
            "dropped": 0,
            "by_name": {},
            "by_component": {},
        }


#: the shared disabled tracer every machine starts with
NULL_TRACER = NullTracer()
