"""Ring-buffered structured tracer with a zero-cost disabled twin.

The machine layer holds one tracer per :class:`~repro.machine.system.
DashSystem`.  By default that is :data:`NULL_TRACER` — a shared
singleton whose ``enabled`` flag is ``False`` and whose methods all
no-op — and every hook point is gated::

    if machine.obs.enabled:
        machine.obs.record("txn.read", t0, now - t0, home, block, ...)

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

Record flat, materialise on read: an event is one ring row, the tuple
``(name, ts, dur, tid, *values)`` — for a hook, the argument tuple of
its :meth:`Tracer.record` call itself, so recording allocates nothing
else.  Kind, component and field names are looked up in the registry
when the ring is read and :class:`TraceEvent` objects built
(``events()``, iteration, export); a keyword-adapter row carries them
in slot 0 instead.  A row holds only scalars and tuples of scalars, so
the cyclic collector untracks it at its first pass and a full ring
costs later collections nothing.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.registry import (  # noqa: F401  (kinds re-exported)
    BEGIN,
    COUNTER,
    END,
    EVENTS,
    INSTANT,
    RECORD,
    SERVICE_PHASES,
    SPAN,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record (immutable once emitted)."""

    name: str
    ts: float  # simulated cycles
    kind: str = INSTANT  # SPAN / INSTANT / COUNTER
    dur: Optional[float] = None  # spans only
    comp: str = ""  # component: system/directory/network/cache/proc
    tid: int = 0  # cluster or processor id within the component
    args: Optional[Dict[str, object]] = None

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


def _undeclared(name: object) -> ValueError:
    return ValueError(
        f"trace event {name!r} is not declared in "
        f"repro.obs.registry.EVENTS; add it there first"
    )


def _shape(row: tuple) -> tuple:
    """``(name, kind, comp, fields)``: the declaration of the event a
    row names, or what a keyword-adapter row states itself."""
    head = row[0]
    return RECORD[head][0] if type(head) is str else head


def _materialise(row: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a ring row stands for: a ``None`` value
    is an absent optional field, and a ``dir.service`` row's flat
    ``phases`` tuple becomes its named, nonzero legs."""
    name, kind, comp, fields = _shape(row)
    _, ts, dur, tid = row[:4]
    args = {k: v for k, v in zip(fields, row[4:], strict=True) if v is not None}
    legs = args.get("phases")
    if type(legs) is tuple:
        args["phases"] = {p: c for p, c in zip(SERVICE_PHASES, legs) if c}
    return TraceEvent(name, ts, kind, dur, comp, tid, args or None)


class Tracer:
    """Enabled tracer: bounded ring buffer plus exact tallies."""

    enabled = True

    #: construction parameter a checkpoint's restore target must share
    MUST_MATCH = ("capacity",)

    def __init__(
        self, capacity: int = 65536, *,
        clock: Optional[Callable[[], float]] = None, strict: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: rows ``(head, ts, dur, tid, *values)``; ``head`` is a declared
        #: event's name or an explicit ``(name, kind, comp, fields)``
        self._buf: Deque[tuple] = deque(maxlen=capacity)
        self._clock = clock
        self.strict = strict
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry(strict=strict)
        )
        self._histograms = self.metrics.histograms  # cleared, never rebound
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

    def record(self, *row: object) -> None:
        """``record(name, ts, dur, tid, *values)`` — the hooks' entry
        point: declared event ``name`` with its field values in the
        registry's order (``None`` for an absent optional field, and
        for ``dur`` on a non-span).  Kind, component, field names and
        the histogram fed come from the declaration; the argument tuple
        is the ring row.
        """
        name = row[0]
        try:
            shape, feed = RECORD[name]
        except KeyError:
            raise _undeclared(name) from None
        self._buf.append(row)
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        counts, comp = self.comp_counts, shape[2]
        counts[comp] = counts.get(comp, 0) + 1
        if feed is not None:
            metric, at, key = feed
            if key is not None:
                metric += row[key]
            # the instrument is created, and its name validated, at the
            # first observation
            hist = self._histograms.get(metric)
            if hist is None:
                hist = self.metrics.histogram(metric)
            hist.observe(row[at])

    def emit(
        self, name: str, *, ts: float, dur: Optional[float] = None,
        kind: Optional[str] = None, comp: str = "", tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one event at ``ts`` (a span when ``dur`` is given).

        Keyword adapter onto :meth:`record`'s ring, tallies and metric
        feed, for callers that state kind, component and argument names
        themselves (on a non-strict tracer, undeclared names too).
        """
        spec = EVENTS.get(name)
        if spec is None and self.strict:
            raise _undeclared(name)
        if kind is None:
            kind = SPAN if dur is not None else INSTANT
        args = args or {}
        self._buf.append(
            ((name, kind, comp, tuple(args)), ts, dur, tid, *args.values())
        )
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        if comp:
            counts = self.comp_counts
            counts[comp] = counts.get(comp, 0) + 1
        if spec is not None and spec.feeds is not None:
            # the declared feed, by field name: ``args`` may omit fields
            metric, source, *key = spec.feeds
            value = dur if source == "dur" else args.get(source)
            keyed = args.get(key[0]) if key else ""
            if value is not None and keyed is not None:
                self.metrics.histogram(metric + keyed).observe(value)

    def emit_now(
        self, name: str, *, comp: str = "", tid: int = 0,
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
        preceded it.  The ring's rows are immutable: shared, not copied.
        """
        return {
            "buf": [
                r for r in self._buf if not _shape(r)[0].startswith("ckpt.")
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
        self._buf.extend(state["buf"])
        self.counts.clear()
        self.counts.update(state["counts"])
        self.comp_counts.clear()
        self.comp_counts.update(state["comp_counts"])
        self.metrics.load_state(state["metrics"])

    # -- inspection ---------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Events recorded so far, retained or not."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by later ones."""
        return self.emitted - len(self._buf)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return [_materialise(row) for row in self._buf]

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_materialise, self._buf)

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
    dropped = 0
    metrics = NullMetrics()

    def _discard(self, *args: object, **kwargs: object) -> None:
        """Discard."""

    bind_clock = record = emit = emit_now = emit_counter = _discard

    def now(self) -> float:
        """Always 0.0 (no clock is ever bound)."""
        return 0.0

    def events(self) -> List[TraceEvent]:
        """Always empty."""
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def summary(self) -> Dict[str, object]:
        """The all-zero summary."""
        return {"emitted": 0, "retained": 0, "dropped": 0,
                "by_name": {}, "by_component": {}}


#: the shared disabled tracer every machine starts with
NULL_TRACER = NullTracer()
