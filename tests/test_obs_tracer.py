"""Tracer ring buffer, null twin, and metric instruments."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRegistry,
    NullMetrics,
    histogram_delta,
    load_metrics_dict,
)
from repro.obs.registry import EVENTS, METRICS_SCHEMA, SERVICE_PHASES
from repro.obs.tracer import (
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
        t.emit_counter("dir.occupancy", ts=3.0, value=17.0, comp="directory")
        (ev,) = t.events()
        assert ev.kind == COUNTER
        assert ev.args == {"value": 17.0}

    def test_emit_now_uses_bound_clock(self):
        t = Tracer()
        now = [0.0]
        t.bind_clock(lambda: now[0])
        now[0] = 42.0
        t.emit_now("wb.issue")
        assert t.events()[0].ts == 42.0

    def test_strict_rejects_undeclared_name(self):
        t = Tracer(strict=True)
        with pytest.raises(ValueError, match="not declared"):
            t.emit("no.such.event", ts=0.0)

    def test_non_strict_accepts_any_name(self):
        t = Tracer(strict=False)
        t.emit("experimental.event", ts=0.0)
        assert t.counts["experimental.event"] == 1

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
    )


class TestOneRecordPath:
    """``record`` and the keyword adapters fill the same ring, tallies and
    histograms: for every declared event, equal calls leave equal state."""

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
            if "phases" in args:  # a keyword caller names the nonzero legs
                args["phases"] = {
                    leg: c for leg, c in zip(SERVICE_PHASES, args["phases"]) if c
                }
            keyword.emit(name, ts=ts, dur=dur, kind=spec.kind, comp=spec.comp,
                         tid=tid, args=args)
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

    def test_emit_counter_and_emit_now_feed_like_record(self):
        a, b = Tracer(), Tracer()
        a.bind_clock(lambda: 8.0)
        a.emit_counter("dir.occupancy", ts=8.0, value=12, comp="directory", tid=3)
        a.emit_now("dir.inval_round", comp="directory", tid=3,
                   args={"cause": "write", "block": 4, "invals": 2})
        b.record("dir.occupancy", 8.0, None, 3, 12)
        b.record("dir.inval_round", 8.0, None, 3, "write", 4, 2, None)
        assert _observable(a) == _observable(b)
        assert sorted(a.metrics.histograms) == ["dir_occupancy",
                                                "invals_per_event.write"]

    def test_instrument_absent_until_first_observed(self):
        t = Tracer()
        t.record("cache.inval", 1.0, None, 0, 5, None)
        assert t.metrics.empty
        t.record("proc.sync", 1.0, 4.0, 0)
        assert list(t.metrics.histograms) == ["sync_cycles"]

    @pytest.mark.parametrize("strict", [True, False])
    def test_record_takes_declared_events_only(self, strict):
        t = Tracer(strict=strict)
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


class TestNullTracer:
    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_all_operations_noop(self):
        n = NullTracer()
        n.bind_clock(lambda: 99.0)
        n.record("anything", 1.0, None, 0, 5)
        n.emit("anything", ts=1.0)
        n.emit_now("anything")
        n.emit_counter("anything", ts=1.0, value=2.0)
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
        m = MetricsRegistry(strict=True)
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
