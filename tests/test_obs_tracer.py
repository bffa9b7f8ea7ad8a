"""Tracer ring buffer, null twin, and metric instruments."""

import gc
import json
import marshal
import pickle
import tracemalloc
import weakref
from collections import Counter as Tally
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import MP3DWorkload
from repro.machine import DashSystem, MachineConfig
from repro.machine.faults import FaultKind
from repro.obs.metrics import (
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRegistry,
    NullMetrics,
    histogram_delta,
    load_metrics_dict,
)
from repro.obs.registry import EVENTS, METRICS_SCHEMA, RECORD
from repro.obs.tracer import (
    CHUNK,
    COUNTER,
    INSTANT,
    NULL_TRACER,
    SPAN,
    NullTracer,
    Tracer,
)


class TestTracer:
    def test_emit_span_and_instant_kinds(self):
        t = Tracer()
        t.emit("txn.read", ts=10.0, dur=5.0, comp="directory", tid=2)
        t.emit("wb.issue", ts=12.0, comp="cluster")
        span, instant = t.events()
        assert span.kind == SPAN and span.dur == 5.0 and span.tid == 2
        assert instant.kind == INSTANT and instant.dur is None

    def test_emit_counter_kind_carries_value(self):
        t = Tracer()
        t.emit("dir.occupancy", ts=3.0, comp="directory", args={"value": 17.0})
        (ev,) = t.events()
        assert ev.kind == COUNTER
        assert ev.args == {"value": 17.0}

    def test_now_reads_the_bound_clock(self):
        t = Tracer()
        assert t.now() == 0.0
        now = [0.0]
        t.bind_clock(lambda: now[0])
        now[0] = 42.0
        t.record("wb.issue", t.now(), None, 0, 5)
        assert t.events()[0].ts == 42.0

    def test_strict_rejects_undeclared_name(self):
        t = Tracer()
        with pytest.raises(ValueError, match="not declared"):
            t.emit("no.such.event", ts=0.0)

    @pytest.mark.parametrize("call, message", [
        (dict(comp="directory"), "declared on component 'network'"),
        (dict(args={"kind": "read", "latency": 3}), "no field 'latency'"),
    ])
    def test_emit_takes_only_what_the_declaration_states(self, call, message):
        t = Tracer()
        with pytest.raises(ValueError, match=message):
            t.emit("net.msg", ts=0.0, dur=1.0, **call)
        assert len(t) == 0 and t.emitted == 0

    @pytest.mark.parametrize("name, call, field", [
        ("net.msg", {}, "dur"),  # a span's duration feeds msg_latency
        ("dir.occupancy", {}, "value"),  # feeds a histogram and a gauge
        ("dir.occupancy", {"args": {"value": None}}, "value"),
        ("dir.inval_round", {"args": {"invals": 2}}, "cause"),  # the key
        ("dir.inval_round", {"args": {"cause": "write"}}, "invals"),
    ])
    def test_emit_rejects_a_missing_fed_value_at_the_call(
            self, name, call, field):
        t = Tracer()
        with pytest.raises(ValueError, match=f"{name!r} .* field {field!r}"):
            t.emit(name, ts=0.0, **call)
        assert len(t) == 0 and t.emitted == 0
        t.metrics.to_dict()  # nothing left to fail at the next read

    def test_ring_wraparound_keeps_exact_tallies(self):
        t = Tracer(capacity=4)
        for i in range(10):
            t.emit("wb.issue", ts=float(i), comp="cluster")
        assert len(t) == 4
        assert t.emitted == 10
        assert t.dropped == 6
        assert t.counts["wb.issue"] == 10  # tallies survive the ring
        assert t.comp_counts["cluster"] == 10
        # the retained window is the newest events, oldest first
        assert [ev.ts for ev in t.events()] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_summary_shape(self):
        t = Tracer()
        t.emit("txn.read", ts=0.0, dur=1.0, comp="directory")
        t.emit("wb.issue", ts=1.0, comp="cluster")
        s = t.summary()
        assert s["emitted"] == 2 and s["retained"] == 2 and s["dropped"] == 0
        assert s["by_name"] == {"txn.read": 1, "wb.issue": 1}
        assert s["by_component"] == {"cluster": 1, "directory": 1}


#: the fields a hook may leave out (it passes ``None``)
OPTIONAL = {"txn_id", "still_shared", "phases"}

_FIELD_VALUES = {
    "cause": st.sampled_from(["write", "nb_evict", "sparse_repl"]),
    "kind": st.sampled_from(["read", "write", "writeback", "drop"]),
    "label": st.text(max_size=6),
    "write": st.booleans(), "dirty": st.booleans(),
    "cached": st.booleans(), "still_shared": st.booleans(),
    "t_start": st.floats(0, 1e6), "value": st.integers(0, 4096),
    "nodes": st.lists(st.integers(0, 31), max_size=4),
    "phases": st.tuples(*[st.sampled_from([0.0, 1.0, 20.0, 23.5])] * 7),
}


@st.composite
def _calls(draw, name):
    """Some ``(ts, dur, tid, values)`` calls of declared event ``name``."""
    spec = EVENTS[name]
    calls = []
    for _ in range(draw(st.integers(1, 9))):
        values = tuple(
            None if field in OPTIONAL and draw(st.booleans())
            else draw(_FIELD_VALUES.get(field, st.integers(0, 10**6)))
            for field in spec.fields
        )
        dur = draw(st.floats(0, 1e5)) if spec.kind == SPAN else None
        calls.append((draw(st.floats(0, 1e6)), dur, draw(st.integers(0, 31)),
                      values))
    return calls


def _observable(tracer):
    return (
        tracer.events(), dict(tracer.counts), dict(tracer.comp_counts),
        tracer.emitted, tracer.dropped, tracer.metrics.to_state(),
        [json.dumps(ev.to_json_dict()) for ev in tracer],
        pickle.dumps(tracer.to_state(), 4),
    )


class TestOneRecordPath:
    """``emit`` is a keyword front for ``record``: for every declared
    event, equal calls leave equal rows, tallies and histograms."""

    @pytest.mark.parametrize("name", sorted(EVENTS))
    @pytest.mark.parametrize("capacity", [4, 64])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_keyword_and_positional_calls_agree(self, name, capacity, data):
        spec = EVENTS[name]
        flat, keyword = Tracer(capacity), Tracer(capacity)
        for ts, dur, tid, values in data.draw(_calls(name)):
            flat.record(name, ts, dur, tid, *values)
            args = {f: v for f, v in zip(spec.fields, values) if v is not None}
            keyword.emit(name, ts=ts, dur=dur, comp=spec.comp, tid=tid,
                         args=args)
        assert _observable(flat) == _observable(keyword)
        assert flat.emitted - flat.dropped == len(flat) <= capacity

    def test_none_valued_optional_fields_are_absent(self):
        t = Tracer()
        t.record("dir.service", 5.0, 9.0, 2, "read", 7, 1, 6.0, None, None, None)
        t.record("dir.service", 5.0, 9.0, 2, "writeback", 7, 1, 6.0, False, 3,
                 (0.0, 0.0, 0.0, 0.0, 23.0, 20.0, 0.0))
        bare, full = t.events()
        assert bare.args == {"kind": "read", "block": 7, "requester": 1,
                             "t_start": 6.0}
        assert list(full.args) == list(EVENTS["dir.service"].fields)
        assert full.args["still_shared"] is False
        assert full.args["phases"] == {"memory": 23.0, "net_reply": 20.0}

    def test_keyword_calls_feed_like_record(self):
        a, b = Tracer(), Tracer()
        a.emit("dir.occupancy", ts=8.0, comp="directory", tid=3,
               args={"value": 12})
        a.emit("dir.inval_round", ts=8.0, tid=3,
               args={"invals": 2, "cause": "write", "block": 4})
        b.record("dir.occupancy", 8.0, None, 3, 12)
        b.record("dir.inval_round", 8.0, None, 3, "write", 4, 2, None)
        assert _observable(a) == _observable(b)
        assert sorted(a.metrics.histograms) == ["dir_occupancy",
                                                "invals_per_event.write"]
        assert list(a.metrics.gauges) == ["dir_occupancy_peak"]

    def test_the_benchmark_emit_call_is_a_record_call(self):
        """``bench/micro.py`` times this exact call as ``obs.emit_ns``."""
        a, b = Tracer(), Tracer()
        a.emit("net.msg", ts=0.0, dur=20.0, comp="network", tid=3)
        b.record("net.msg", 0.0, 20.0, 3, None, None, None, None)
        row = ("net.msg", 0.0, 20.0, 3, None, None, None, None)
        assert list(a._rows()) == list(b._rows()) == [row]
        assert _observable(a) == _observable(b)
        assert a.counts == {"net.msg": 1}
        assert a.comp_counts == {"network": 1}
        assert a.metrics.histogram("msg_latency").to_dict() == {
            "count": 1, "total": 20.0, "mean": 20.0, "buckets": {"32": 1}}

    def test_instrument_absent_until_first_observed(self):
        t = Tracer()
        t.record("cache.inval", 1.0, None, 0, 5, None)
        assert t.metrics.empty
        t.record("proc.sync", 1.0, 4.0, 0)
        assert list(t.metrics.histograms) == ["sync_cycles"]

    def test_record_takes_declared_events_only(self):
        t = Tracer()
        with pytest.raises(ValueError, match="not declared"):
            t.record("no.such.event", 0.0, None, 0)
        assert len(t) == 0 and t.emitted == 0

    def test_wrong_arity_is_caught_when_the_row_is_read(self):
        t = Tracer()
        t.record("wb.issue", 0.0, None, 0)  # its one field is missing
        with pytest.raises(ValueError):
            t.events()

    def test_retained_rows_are_invisible_to_the_collector(self):
        """What the RSS and GC saving rest on: a ring row holds scalars
        (and tuples of scalars) only, so one collection untracks it."""
        t = Tracer()
        t.record("net.msg", 1.0, 20.0, 3, "read", 700, 5, 41)
        t.record("dir.service", 5.0, 9.0, 2, "write", 700, 1, 6.0, None, 41,
                 (0.0, 0.0, 0.0, 0.0, 23.0, 20.0, 1.5))
        t.record("proc.sync", 1.0, 4.0, 0)
        gc.collect()
        assert not any(gc.is_tracked(row) for row in t._buf)

    def test_state_round_trip_shares_rows(self):
        t = Tracer(capacity=8)
        for i in range(12):
            t.record("net.msg", float(i), 20.0, 3, "read", i, 5, i)
        t.record("ckpt.save", 12.0, None, 0, 100, 12)
        state = t.to_state()
        assert all(any(row is kept for kept in t._buf) for row in state["buf"])
        u = Tracer(capacity=8)
        u.load_state(state)
        assert [e for e in t.events() if e.name != "ckpt.save"] == u.events()
        assert u.emitted == 12 and u.counts["ckpt.save"] == 0
        assert u.metrics.to_state() == t.metrics.to_state()
        u.record("net.msg", 13.0, 20.0, 3, "read", 13, 5, 13)  # feeds restored
        assert u.metrics.histogram("msg_latency").count == 13


class TestDeclarations:
    def test_every_event_is_a_span_an_instant_or_a_counter(self):
        """No declared event opens a split span (``begin`` / ``end``), so
        no tracer call can leave one unclosed in a trace."""
        assert {spec.kind for spec in EVENTS.values()} <= {SPAN, INSTANT,
                                                           COUNTER}

    def test_no_two_events_feed_one_instrument(self):
        """The tally reads each instrument's values from one event's rows."""
        fed = [spec.feeds[0] for spec in EVENTS.values() if spec.feeds]
        raised = [spec.peak[0] for spec in EVENTS.values() if spec.peak]
        assert len(set(fed)) == len(fed) and len(set(raised)) == len(raised)
        assert not any(a != b and b.startswith(a) for a in fed for b in fed)


def _typed(rows):
    """Rows with the type of every field beside it: ``True == 1`` and
    ``[1] != (1,)`` alike must survive a seal."""
    return [(row, tuple(map(type, row))) for row in rows]


#: a few rows of each shape a hook records (declared name first)
_ROW_SHAPES = st.sampled_from([
    ("net.msg", 20.0, 3, "read", 700, 5, 41),
    ("dir.service", 9.0, 2, "writeback", 700, 1, 6.0, False, None,
     (0.0, 0.0, 0.0, 0.0, 23.0, 20.0, 1.5)),
    ("dir.sparse_evict", None, 0, 12, 2, [3, 9], None),
    ("cache.evict", None, 4, 88, True),
    ("proc.sync", 4.0, 0),
])


@st.composite
def _ring_ops(draw):
    """``(n, shapes, keyword_every)``: ``n`` calls cycling over ``shapes``,
    every ``keyword_every``-th through ``emit`` (0: never)."""
    n = draw(st.sampled_from([0, 1, 2, 4095, 4096, 4097, 8192, 8193, 13000]))
    n = max(0, n + draw(st.integers(-2, 2)))
    shapes = draw(st.lists(_ROW_SHAPES, min_size=1, max_size=3))
    return n, shapes, draw(st.sampled_from([0, 1, 7, 5000]))


def _drive(tracer, reference, n, shapes, keyword_every):
    """Make the same calls on ``tracer`` and append the rows a
    ``deque(maxlen=capacity)`` ring would retain to ``reference``."""
    for i in range(n):
        name, dur, tid, *values = shapes[i % len(shapes)]
        row = (name, float(i), dur, tid, *values)
        if keyword_every and i % keyword_every == 0:
            args = dict(zip(EVENTS[name].fields, values))
            tracer.emit(name, ts=float(i), dur=dur, tid=tid, args=args)
        else:
            tracer.record(*row)
        reference.append(row)


class TestSealedRing:
    """The ring seals every ``CHUNK`` rows into bytes; what it retains
    reads back as a ``deque(maxlen=capacity)`` of the recorded rows."""

    @pytest.mark.parametrize("capacity", [1, 3, 4095, 4096, 4097, 10000])
    @settings(max_examples=12, deadline=None)
    @given(ops=_ring_ops())
    def test_matches_a_deque_ring(self, capacity, ops):
        n, shapes, _ = ops
        tracer, reference = Tracer(capacity), deque(maxlen=capacity)
        _drive(tracer, reference, *ops)
        assert _typed(tracer._rows()) == _typed(reference)
        assert _typed(tracer._rows(exact=True)) == _typed(reference)
        assert len(tracer) == len(reference)
        assert tracer.emitted == n
        assert tracer.dropped == n - len(reference)
        assert tracer.counts == Tally(
            shapes[i % len(shapes)][0] for i in range(n)
        )
        # the memory bound: capacity rows plus one chunk sealed, one open
        assert tracer._sealed_rows < capacity + CHUNK
        assert len(tracer._buf) < CHUNK

    def test_state_round_trip_mid_chunk(self):
        capacity = 2 * CHUNK + 100
        t, ref = Tracer(capacity), deque(maxlen=capacity)
        _drive(t, ref, 3 * CHUNK + 17, [("net.msg", 20.0, 3, "read", 7, 5, 4),
                                         ("proc.sync", 4.0, 0)], 0)
        assert 0 < len(t._buf) < CHUNK and t._sealed
        u = Tracer(capacity)
        u.load_state(t.to_state())
        assert _typed(u._rows()) == _typed(t._rows()) == _typed(ref)
        assert (u.emitted, u.dropped, len(u)) == (t.emitted, t.dropped, len(t))
        more = [("cache.inval", None, 1, 3, None)]
        _drive(t, ref, CHUNK + 5, more, 0)
        _drive(u, deque(), CHUNK + 5, more, 0)
        assert _typed(u._rows()) == _typed(t._rows()) == _typed(ref)
        assert u.events() == t.events()

    def test_state_pickles_as_the_recorded_rows(self):
        """A checkpoint payload pickles strings by identity: a sealed row
        must come back holding the very name object the hook passed,
        not an equal copy, or the payload bytes move."""
        name = "".join(["net", ".msg"])  # equal to, not, the declared key
        capacity = CHUNK + 10
        t, ref = Tracer(capacity), deque(maxlen=capacity)
        _drive(t, ref, 3 * CHUNK, [(name, 20.0, 3, "read", 7, 5, 4)], 0)
        assert len(t._sealed) == 2
        state = t.to_state()["buf"]
        assert pickle.dumps(state, 4) == pickle.dumps(list(ref), 4)
        assert all(row[0] is name for row in state)
        # restored rows name the event with the unpickled object, rows
        # recorded after the restore with the hook's: both kept apart
        restored = pickle.loads(pickle.dumps(t.to_state(), 4))
        u, ref = Tracer(capacity), deque(restored["buf"], maxlen=capacity)
        u.load_state(restored)
        _drive(u, ref, CHUNK // 2 + 3, [(name, 20.0, 3, "read", 7, 5, 4)], 0)
        state = u.to_state()["buf"]
        assert pickle.dumps(state, 4) == pickle.dumps(list(ref), 4)

    @pytest.mark.parametrize("name", sorted(EVENTS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_every_declared_row_survives_a_seal(self, name, data):
        """Bools, ``None``, the ``phases`` tuple and ``dir.sparse_evict``'s
        ``nodes`` list: each field reads back equal and of its type."""
        rows = [(name, ts, dur, tid, *values)
                for ts, dur, tid, values in data.draw(_calls(name))]
        rows = (rows * (CHUNK // len(rows) + 1))[:CHUNK + 1]
        t = Tracer(len(rows))
        for row in rows:
            t.record(*row)
        assert t._sealed, "no chunk was sealed"
        assert _typed(t._rows()) == _typed(rows)

    def test_retained_row_cost_on_a_traced_mp3d(self):
        """What dropping a full default ring frees, per retained row, on
        the 32-cluster MP3D: its sealed bytes plus the open rows.  The
        run keeps every row; replaying them all into a default ring under
        tracemalloc leaves the ring the run itself would have left."""
        config = MachineConfig(num_clusters=32, procs_per_cluster=1,
                               block_bytes=16, scheme="Dir3CV2")
        workload = MP3DWorkload(32, num_particles=4096, space_cells=96,
                                steps=2)
        everything = Tracer(1 << 20)
        DashSystem(config, workload, obs=everything).run()
        rows = marshal.dumps(list(everything._rows()))
        del everything
        gc.collect()
        tracemalloc.start()
        try:
            tracer = Tracer()
            for row in marshal.loads(rows):
                tracer.record(*row)
            gc.collect()
            retained, dropped = len(tracer), tracer.dropped
            before = tracemalloc.get_traced_memory()[0]
            tracer._sealed.clear()
            tracer._buf = []
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dropped > 0 and retained == tracer.capacity
        assert freed / retained <= 64, f"{freed / retained:.1f} B per row"

    def test_value_marshal_refuses_reads_back(self):
        t = Tracer(2 * CHUNK)
        t.emit("net.fault", ts=0.0, comp="network",
               args={"kind": FaultKind.DROP, "src": 1, "dst": 2})
        for i in range(CHUNK):
            t.record("proc.sync", float(i), 1.0, 0)
        assert t._sealed
        first = t.events()[0]
        assert first.args["kind"] is FaultKind.DROP
        assert len(t) == CHUNK + 1 and t.dropped == 0


class _RowAtATime(Tracer):
    """The reference model: the tracer's accounting before it settled a
    chunk at a time.  Each row is counted, and feeds its histogram and
    raises its gauge, at its call; the ring is the tracer's own."""

    def settle(self):
        """Nothing is ever left to tally."""

    def record(self, *row):
        name = row[0]
        try:
            feed, peak = RECORD[name]
        except KeyError:
            raise ValueError(f"{name!r} is not declared") from None
        self._buf.append(row)
        if len(self._buf) >= CHUNK:
            self._roll()
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1
        counts, comp = self._comp_counts, EVENTS[name].comp
        counts[comp] = counts.get(comp, 0) + 1
        if feed is not None:
            metric, at, key = feed
            if key is not None:
                metric += row[key]
            self.metrics.histogram(metric).observe(row[at])
        if peak is not None:
            metric, at = peak
            self.metrics.gauge(metric).set_max(row[at])


def _exact(x):
    """``x`` with its type, a float by its bits."""
    return type(x), x.hex() if type(x) is float else x


def _accounts(tracer):
    """Everything a tracer derives from its rows, orders and bits included."""
    metrics = tracer.metrics
    return (
        list(tracer.counts.items()), list(tracer.comp_counts.items()),
        tracer.emitted, tracer.dropped, tracer.summary(),
        [(name, list(h.buckets.items()), h.count, _exact(h.total))
         for name, h in metrics.histograms.items()],
        [(name, _exact(g.value)) for name, g in metrics.gauges.items()],
        metrics.to_dict(), metrics.empty,
        pickle.dumps(tracer.to_state(), 4),
    )


#: what a fed field may hold: 0, whole, fractional (some large enough
#: that the order of a float sum shows), negative, NaN, None
_FED = st.one_of(
    st.just(0), st.integers(1, 5000), st.floats(0, 1e4),
    st.sampled_from([1e16, 1.0, 0.1, 2.5]), st.integers(-50, -1),
    st.floats(-10, 0), st.just(float("nan")), st.none(),
)
#: the fed events, an unfed one, and the keyed feed's causes
_ORACLE_EVENTS = ["dir.inval_round", "dir.occupancy", "net.msg",
                  "proc.sync", "cache.inval"]
_CAUSES = st.sampled_from(["write", "nb_evict", "sparse_repl", "bogus", None])


@st.composite
def _oracle_op(draw):
    kind = draw(st.sampled_from(
        ["record"] * 5 + ["emit"] * 3 + ["read", "read", "bulk", "reload"]))
    if kind in ("read", "reload"):
        return (kind,)
    if kind == "bulk":  # up to, exactly at, or just past a chunk boundary
        return kind, draw(st.integers(-1, 1)), draw(st.sampled_from(
            ["net.msg", "dir.occupancy", "proc.sync"]))
    name = draw(st.sampled_from(_ORACLE_EVENTS))
    values = {
        field: (draw(_CAUSES) if field == "cause" else
                draw(_FED) if field in ("invals", "value") else
                draw(st.integers(0, 99)))
        for field in EVENTS[name].fields
    }
    dur = draw(_FED) if EVENTS[name].kind == SPAN else None
    if kind == "record":
        return kind, name, dur, tuple(values.values())
    # a keyword caller may leave fields out and order them as it likes;
    # an undeclared name, component or field is rejected at the call
    fields = draw(st.permutations(list(values)))
    args = {f: values[f] for f in fields[:draw(st.integers(0, len(fields)))]}
    if draw(st.integers(0, 9)) == 0:
        name = "x.custom"
    if draw(st.integers(0, 9)) == 0:
        args["bogus"] = 1
    comp = draw(st.sampled_from([None, None, EVENTS[name].comp, "proc"])
                if name in EVENTS else st.none())
    return kind, name, dur, args, comp


def _apply(tracer, op, i):
    kind = op[0]
    if kind == "record":
        _, name, dur, values = op
        tracer.record(name, float(i), dur, i % 4, *values)
    elif kind == "emit":
        _, name, dur, args, comp = op
        tracer.emit(name, ts=float(i), dur=dur, comp=comp, tid=i % 4,
                    args=dict(args))
    elif kind == "bulk":
        _, past, name = op
        for j in range(CHUNK - len(tracer._buf) + past):
            tracer.record(name, float(i), 3.5 if name == "net.msg" else None,
                          j % 4, *([j % 7] if name == "dir.occupancy" else
                                   [] if name == "proc.sync" else
                                   ["read", j, 1, None]))


class TestTallyOracle:
    """Tallies settled a chunk at a time equal the row-at-a-time model's:
    counts in insertion order, histogram buckets, counts and bit-exact
    totals, gauges and checkpoint bytes, read at any point."""

    @pytest.mark.parametrize("capacity", [3, CHUNK + 7])
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_oracle_op(), max_size=40))
    def test_matches_row_at_a_time(self, capacity, ops):
        tracer = Tracer(capacity)
        model = _RowAtATime(capacity)
        for i, op in enumerate(ops):
            if op[0] == "read":
                assert _accounts(tracer) == _accounts(model)
                continue
            if op[0] == "reload":
                state = pickle.dumps(model.to_state(), 4)
                assert pickle.dumps(tracer.to_state(), 4) == state
                tracer = Tracer(capacity)
                tracer.load_state(pickle.loads(state))
                model = _RowAtATime(capacity)
                model.load_state(pickle.loads(state))
                continue
            try:
                _apply(model, op, i)
            except (TypeError, ValueError) as rejected:
                # the model rejected the row at its call; the tracer
                # rejects it at the call or when it is tallied
                with pytest.raises(type(rejected)):
                    _apply(tracer, op, i)
                    tracer.settle()
                return
            _apply(tracer, op, i)
        assert _accounts(tracer) == _accounts(model)

    def test_a_keyed_feed_splits_by_key_in_record_order(self):
        t, model = Tracer(), _RowAtATime()
        causes = ["write", "nb_evict", "write", "sparse_repl", "write",
                  "nb_evict"]
        for tracer in (t, model):
            for i, cause in enumerate(causes):
                tracer.record("dir.inval_round", float(i), None, 0, cause, i,
                              i + 0.5, None)
        assert _accounts(t) == _accounts(model)
        assert t.metrics.histogram("invals_per_event.write").count == 3

    def test_a_row_fed_none_is_rejected_when_tallied(self):
        t = Tracer()
        t.record("dir.occupancy", 1.0, None, 0, None)
        with pytest.raises(TypeError):
            t.metrics.to_dict()

    @pytest.mark.parametrize("values, keyword", [
        ([1.0, 1e16, 1.0], {1}),  # 1 + 1e16 + 1 is not 1 + 1 + 1e16
        ([1.0, 1.0, 1e16, 1.0, 3.0], set()),  # nor its reverse
        ([float("nan"), 5.0, 5], set()),  # and the peak is 5.0, as set_max
    ])
    def test_float_totals_add_in_record_order(self, values, keyword):
        """Declared rows, and a keyword row of the same event between
        them, feed one histogram and one gauge: the total adds them in
        record order, and the gauge keeps what ``set_max`` one at a time
        would."""
        t, model = Tracer(), _RowAtATime()
        for tracer in (t, model):
            for i, v in enumerate(values):
                if i in keyword:
                    tracer.emit("dir.occupancy", ts=0.0, args={"value": v})
                else:
                    tracer.record("dir.occupancy", 0.0, None, 0, v)
        assert _accounts(t) == _accounts(model)


class TestNoReferenceCycle:
    def test_tracer_and_registry_are_freed_by_refcount(self):
        """A run's stats keep its metrics registry, and the registry
        reaches its tracer only weakly: the tracer is freed (settling its
        open rows into the registry) once nothing else holds it, and the
        registry once the stats go, with the collector off."""
        config = MachineConfig(num_clusters=8, procs_per_cluster=1,
                               block_bytes=16, scheme="Dir3CV2")

        def traced():
            workload = MP3DWorkload(8, num_particles=256, space_cells=32,
                                    steps=1)
            system = DashSystem(config, workload, obs=Tracer())
            system.run()
            return system

        expected = traced().stats.to_dict()
        gc.disable()
        try:
            system = traced()
            tracer, stats = system.obs, system.stats
            assert tracer._buf, "no open rows left to settle"
            tracer_ref = weakref.ref(tracer)
            metrics_ref = weakref.ref(tracer.metrics)
            del system
            gc.collect()  # the machine's own cycles; the tracer is held
            del tracer
            assert tracer_ref() is None
            assert stats.to_dict() == expected
            del stats
            assert metrics_ref() is None
        finally:
            gc.enable()


class TestNullTracer:
    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_all_operations_noop(self):
        n = NullTracer()
        n.bind_clock(lambda: 99.0)
        n.record("anything", 1.0, None, 0, 5)
        n.emit("anything", ts=1.0)
        assert n.now() == 0.0
        assert len(n) == 0 and n.events() == [] and n.dropped == 0
        assert list(n) == []
        assert n.summary()["emitted"] == 0

    def test_null_metrics_discard(self):
        m = NULL_TRACER.metrics
        m.counter("x").inc()
        m.gauge("x").set_max(5.0)
        m.histogram("x").observe(3.0)
        assert m.empty is True
        assert m.to_dict()["counters"] == {}


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        g.set(3.0)
        g.set_max(1.0)  # lower: keeps 3.0
        assert g.value == 3.0
        g.set_max(7.0)
        assert g.value == 7.0

    def test_log2_histogram_bucketing(self):
        h = Log2Histogram()
        for v in (0, 0.5, 1, 2, 3, 4, 100):
            h.observe(v)
        # v < 1 -> bucket 0 (ub 1); 1 -> ub 2; 2,3 -> ub 4; 4 -> ub 8;
        # 100 -> ub 128
        assert dict(h.items()) == {1: 2, 2: 1, 4: 2, 8: 1, 128: 1}
        assert h.count == 7
        assert h.mean == pytest.approx(110.5 / 7)

    def test_log2_histogram_to_dict(self):
        h = Log2Histogram()
        h.observe(20)
        d = h.to_dict()
        assert d["count"] == 1 and d["buckets"] == {"32": 1}


class TestMetricsRegistry:
    def test_lazy_creation_and_reuse(self):
        m = MetricsRegistry()
        assert m.empty is True
        h = m.histogram("msg_latency")
        assert m.histogram("msg_latency") is h
        assert m.empty is False

    def test_strict_rejects_undeclared(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="not declared"):
            m.counter("no_such_metric")

    def test_to_dict_versioned_and_sorted(self):
        m = MetricsRegistry()
        m.counter("retries").inc(2)
        m.gauge("dir_occupancy_peak").set_max(9.0)
        m.histogram("msg_latency").observe(12.0)
        d = m.to_dict()
        assert d["schema"] == METRICS_SCHEMA
        assert d["counters"] == {"retries": 2}
        assert d["gauges"] == {"dir_occupancy_peak": 9.0}
        assert d["histograms"]["msg_latency"]["count"] == 1

    def test_load_metrics_dict_roundtrip(self):
        m = MetricsRegistry()
        m.histogram("msg_latency").observe(5.0)
        out = load_metrics_dict(m.to_dict())
        assert out["histograms"]["msg_latency"]["count"] == 1

    def test_load_metrics_dict_rejects_newer(self):
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            load_metrics_dict({"schema": METRICS_SCHEMA + 1})

    def test_null_metrics_to_dict_empty(self):
        d = NullMetrics().to_dict()
        assert d == {
            "schema": METRICS_SCHEMA,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestHistogramDelta:
    def test_bucketwise_difference(self):
        a = {"count": 3, "mean": 2.0, "buckets": {"2": 1, "4": 2}}
        b = {"count": 5, "mean": 4.0, "buckets": {"4": 3, "8": 2}}
        d = histogram_delta(a, b)
        assert d["count"] == 2
        assert d["buckets"] == {"2": -1, "4": 1, "8": 2}
        assert d["mean_a"] == 2.0 and d["mean_b"] == 4.0

    def test_empty_inputs(self):
        d = histogram_delta({}, {})
        assert d["count"] == 0 and d["buckets"] == {}
