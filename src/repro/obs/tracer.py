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

Record, then tally: :meth:`Tracer.record` only appends its row.  The
counts, the histogram each declared event feeds and the gauge it raises
are derived from the rows a chunk at a time (:meth:`Tracer.settle`,
before a chunk is sealed and before any read of them, the metrics
registry's included), grouped by event, with the same result as one row
at a time.

Record flat, materialise on read: an event is one ring row, the tuple
``(name, ts, dur, tid, *values)`` — for a hook, the argument tuple of
its :meth:`Tracer.record` call itself, so recording allocates nothing
else.  Kind, component and field names are looked up in the registry
when the ring is read and :class:`TraceEvent` objects built
(``events()``, iteration, export).  :meth:`Tracer.emit` is a keyword
front that builds the same row.  A hook's row holds only scalars and
tuples of scalars, so the cyclic collector untracks it at its first
pass.

Seal what is retained: the newest rows sit in an open list; every
:data:`CHUNK` rows the list is sealed into one ``marshal`` blob (~46
bytes a row, against ~155 for the live tuple and its boxed values), and
a sealed chunk is dropped once it lies wholly behind the newest
``capacity`` rows.  So the ring holds ``capacity`` rows plus at most one
chunk sealed and one chunk open, and every reader decodes one chunk at
a time.  Sealed bytes never leave the process: readers yield plain
rows equal to the recorded ones, and :meth:`Tracer.to_state` rows whose
event names are the objects the hooks passed (see :func:`_seal`), so a
checkpoint payload pickles to the same bytes.
"""

from __future__ import annotations

import marshal
from collections import Counter as TallyCounter
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import Gauge, Log2Histogram, MetricsRegistry, NullMetrics
from repro.obs.registry import (  # noqa: F401  (kinds re-exported)
    COUNTER,
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


def _materialise(row: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a ring row stands for: a ``None`` value
    is an absent optional field, and a ``dir.service`` row's flat
    ``phases`` tuple becomes its named, nonzero legs."""
    name, ts, dur, tid = row[:4]
    spec = EVENTS[name]
    args = {
        k: v for k, v in zip(spec.fields, row[4:], strict=True)
        if v is not None
    }
    legs = args.get("phases")
    if type(legs) is tuple:
        args["phases"] = {p: c for p, c in zip(SERVICE_PHASES, legs) if c}
    return TraceEvent(name, ts, spec.kind, dur, spec.comp, tid, args or None)


def _columns(
    group: List[tuple], metric: str, at: int, key: Optional[int] = None,
) -> Dict[str, Tuple[tuple, List[Any]]]:
    """Instrument name -> ``(first row, values in record order)`` for the
    rows of one event: the values at ``at`` go to ``metric`` or, with a
    ``key`` index, to ``metric + <the row's key>``."""
    values = list(map(itemgetter(at), group))
    if key is None:
        return {metric: (group[0], values)}
    out: Dict[str, Tuple[tuple, List[Any]]] = {}
    for row, value in zip(group, values):
        out.setdefault(metric + row[key], (row, []))[1].append(value)
    return out


#: rows per sealed chunk (the open list seals when it reaches this)
CHUNK = 4096

#: ``(n, blob, names)``: ``blob`` is the ``marshal`` image of ``n`` rows
#: (or, when marshal refuses a value, the row list itself) and ``names``
#: the ``str`` event-name objects those rows carry
_Chunk = Tuple[int, Any, Tuple[str, ...]]

_head = itemgetter(0)


def _seal(rows: List[tuple]) -> _Chunk:
    """One chunk of ``rows``.

    ``marshal`` keeps every type a row holds (``bool``, ``None``, tuple
    versus list) and returns an interned string as the interned object,
    but an event name like ``"net.msg"`` is not interned: it comes back
    as an equal copy, and a checkpoint payload (pickle memoises strings
    by identity) would change bytes.  So the chunk keeps the name objects
    themselves, one per name — a hook names its event with one literal,
    and :meth:`Tracer.load_state` does not seal restored rows — and an
    exact :func:`_unseal` puts them back.
    """
    try:
        blob: Any = marshal.dumps(rows)
    except ValueError:  # a value marshal cannot write
        return len(rows), rows, ()
    return len(rows), blob, tuple(set(map(_head, rows)))


def _unseal(chunk: _Chunk, exact: bool) -> List[tuple]:
    """The rows of a chunk; when ``exact``, each event name is the object
    recorded (an equal copy serves every reader but a snapshot)."""
    _, blob, names = chunk
    if type(blob) is not bytes:
        return blob
    rows: List[tuple] = marshal.loads(blob)
    if exact and names:
        recorded = {name: name for name in names}
        rows = [(recorded[r[0]], *r[1:]) for r in rows]
    return rows


class Tracer:
    """Enabled tracer: bounded ring of sealed chunks plus exact tallies,
    settled a chunk at a time."""

    enabled = True

    #: construction parameter a checkpoint's restore target must share
    MUST_MATCH = ("capacity",)

    def __init__(self, capacity: int = 65536) -> None:
        #: the open rows ``(name, ts, dur, tid, *values)``, fewer than
        #: :data:`CHUNK`.  The first ``_tallied`` of them are counted.
        #: (Set before anything can raise: ``__del__`` reads them.)
        self._buf: List[tuple] = []
        self._tallied = 0
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: older rows, oldest chunk first, and how many rows they hold
        self._sealed: Deque[_Chunk] = deque()
        self._sealed_rows = 0
        self._clock: Optional[Callable[[], float]] = None
        self.metrics = MetricsRegistry()
        self.metrics.derive_from(self.settle)
        self._counts: TallyCounter = TallyCounter()
        self._comp_counts: TallyCounter = TallyCounter()

    def __del__(self) -> None:
        # a run's stats may keep the registry after the tracer is gone
        if self._tallied < len(self._buf):
            self.settle()

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
        for ``dur`` on a non-span).  The argument tuple is the ring row;
        kind, component, field names, the histogram fed and the gauge
        raised come from the declaration when the row is tallied.
        """
        if row[0] not in RECORD:
            raise _undeclared(row[0])
        buf = self._buf
        buf.append(row)
        if len(buf) >= CHUNK:
            self._roll()

    def emit(
        self, name: str, *, ts: float, dur: Optional[float] = None,
        comp: Optional[str] = None, tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Keyword front for :meth:`record`: ``args`` maps declared field
        names to values (a field it leaves out is ``None``), and ``comp``,
        when given, must be the declared component.  A field the
        declaration feeds a histogram or gauge from (``"dur"``, the fed
        value, a keyed feed's key) must be given."""
        spec = EVENTS.get(name)
        if spec is None:
            raise _undeclared(name)
        if comp is not None and comp != spec.comp:
            raise ValueError(
                f"trace event {name!r} is declared on component "
                f"{spec.comp!r}, not {comp!r}"
            )
        args = args or {}
        unknown = args.keys() - spec.fields
        if unknown:
            raise ValueError(
                f"trace event {name!r} declares no field "
                f"{sorted(unknown)[0]!r}; its fields are {spec.fields}"
            )
        for field in (spec.feeds or ())[1:] + (spec.peak or ())[1:]:
            if (dur if field == "dur" else args.get(field)) is None:
                raise ValueError(
                    f"trace event {name!r} feeds a metric from field "
                    f"{field!r}, which the call leaves out"
                )
        self.record(name, ts, dur, tid, *map(args.get, spec.fields))

    # -- tallies ------------------------------------------------------------

    def settle(self) -> None:
        """Tally the rows recorded since the last tally: every reader of
        the counts, histograms and gauges calls this first."""
        buf = self._buf
        if self._tallied < len(buf):
            rows = buf[self._tallied:] if self._tallied else buf
            self._tallied = len(buf)
            self._tally(rows)

    def _tally(self, rows: List[tuple]) -> None:
        """Count ``rows``, feed their histograms and raise their gauges,
        exactly as one row at a time would, in one pass per event.

        The rows are grouped by event; an instrument a group opens is
        created in the order its first row was recorded.  (No two
        events feed one instrument, so each reads one group's values.)
        """
        groups: Dict[str, List[tuple]] = defaultdict(list)
        for row in rows:
            groups[row[0]].append(row)
        counts, comp_counts = self._counts, self._comp_counts
        fed: Dict[str, Tuple[tuple, List[Any]]] = {}
        raised: Dict[str, Tuple[tuple, List[Any]]] = {}
        for name, group in groups.items():
            comp, (feed, peak) = EVENTS[name].comp, RECORD[name]
            counts[name] = counts.get(name, 0) + len(group)
            comp_counts[comp] = comp_counts.get(comp, 0) + len(group)
            if feed is not None:
                fed.update(_columns(group, *feed))
            if peak is not None:
                raised.update(_columns(group, *peak))
        metrics = self.metrics
        for table, make, columns, update in (
            (metrics.histograms, metrics.histogram, fed,
             Log2Histogram.observe_all),
            (metrics.gauges, metrics.gauge, raised, Gauge.set_max_all),
        ):
            # instruments appear in the order their first rows did
            for _, metric in sorted(
                (rows.index(first), metric)
                for metric, (first, _) in columns.items()
                if metric not in table
            ):
                make(metric)
            for metric, (_, values) in columns.items():
                update(table[metric], values)

    # -- the ring -----------------------------------------------------------

    def _roll(self) -> None:
        """Tally and seal the open rows, then drop the chunks that lie
        wholly behind the newest ``capacity`` rows."""
        self.settle()
        chunk = _seal(self._buf)
        self._buf = []
        self._tallied = 0
        sealed = self._sealed
        sealed.append(chunk)
        self._sealed_rows += chunk[0]
        while self._sealed_rows - sealed[0][0] >= self.capacity:
            self._sealed_rows -= sealed.popleft()[0]

    def _rows(self, exact: bool = False) -> Iterator[tuple]:
        """The retained rows, oldest first, one chunk decoded at a time
        (``exact``: see :func:`_unseal`)."""
        skip = self._sealed_rows + len(self._buf) - self.capacity
        for chunk in self._sealed:
            if skip >= chunk[0]:
                skip -= chunk[0]
                continue
            rows = _unseal(chunk, exact)
            yield from rows[skip:] if skip > 0 else rows
            skip = 0
        yield from self._buf[skip:] if skip > 0 else self._buf

    # -- checkpoint state ---------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Ring, tallies and metrics — minus checkpoint instrumentation.

        ``ckpt.*`` events, the ``ckpt`` component tally and ``ckpt_*``
        counters record *harness* activity (how many times this process
        saved or restored), not simulation state; excluding them keeps a
        checkpoint's payload independent of how many checkpoints
        preceded it.  The ring's rows are immutable: open rows are shared,
        sealed ones decoded.
        """
        return {
            "buf": [
                r for r in self._rows(exact=True)
                if not r[0].startswith("ckpt.")
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
        # restored rows stay as restored, in unsealed chunks, until they
        # age out: their strings came out of a pickle, not interned, and
        # a seal would not give them back as the same objects
        rows = state["buf"]
        self._sealed = deque(
            (len(rows[i:i + CHUNK]), rows[i:i + CHUNK], ())
            for i in range(0, len(rows), CHUNK)
        )
        self._sealed_rows = len(rows)
        # the open rows are dropped untallied: the restored tallies
        # replace whatever they would have added
        self._buf = []
        self._tallied = 0
        self._counts.clear()
        self._counts.update(state["counts"])
        self._comp_counts.clear()
        self._comp_counts.update(state["comp_counts"])
        self.metrics.load_state(state["metrics"])

    # -- inspection ---------------------------------------------------------

    @property
    def counts(self) -> TallyCounter:
        """Exact per-event-name tallies (not subject to ring wraparound)."""
        self.settle()
        return self._counts

    @property
    def comp_counts(self) -> TallyCounter:
        """Exact per-component tallies (profiler + summaries)."""
        self.settle()
        return self._comp_counts

    @property
    def emitted(self) -> int:
        """Events recorded so far, retained or not."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by later ones."""
        return self.emitted - len(self)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self)

    def __len__(self) -> int:
        return min(self.capacity, self._sealed_rows + len(self._buf))

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_materialise, self._rows())

    def summary(self) -> Dict[str, object]:
        """Headline numbers for reports and the CLI."""
        return {
            "emitted": self.emitted,
            "retained": len(self),
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
    capacity = 0
    emitted = 0
    dropped = 0
    metrics = NullMetrics()

    def _discard(self, *args: object, **kwargs: object) -> None:
        """Discard."""

    bind_clock = record = emit = _discard

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
