"""Cross-worker telemetry: exact merged tallies, Perfetto worker lanes.

The acceptance guard for sweep-scale observability: per-name tallies of
a merged parallel sweep equal the sums over the same points run
serially — even when every worker's ring buffer wrapped — and the
merged Chrome trace maps worker processes to ``pid`` lanes and
components to named ``tid`` lanes.
"""

import json

import pytest

from repro.analysis.sweeps import PointSpec, run_points
from repro.apps import UniformRandomWorkload
from repro.machine.config import MachineConfig
from repro.machine.system import run_workload
from repro.obs.aggregate import (
    AGGREGATE_SCHEMA,
    LANE_GAP_CYCLES,
    PointTelemetry,
    SweepAggregator,
    merge_metrics_dict,
)
from repro.obs.export import read_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.registry import EVENTS
from repro.obs.tracer import Tracer


def _factory():
    return UniformRandomWorkload(4, refs_per_proc=60, heap_blocks=16)


def _specs(schemes=("full", "Dir2B")):
    base = MachineConfig(num_clusters=4)
    return [
        PointSpec(
            config=base.with_(scheme=s),
            workload_factory=_factory,
            label=f"scheme={s}",
        )
        for s in schemes
    ]


def _serial_reference(specs, capacity=1 << 20):
    """Per-name/per-comp tally sums over the points run one by one."""
    counts, comp_counts, emitted = {}, {}, 0
    for spec in specs:
        tracer = Tracer(capacity)
        run_workload(spec.config, spec.workload_factory(), obs=tracer)
        emitted += tracer.emitted
        for name, n in tracer.counts.items():
            counts[name] = counts.get(name, 0) + n
        for comp, n in tracer.comp_counts.items():
            comp_counts[comp] = comp_counts.get(comp, 0) + n
    return counts, comp_counts, emitted


class TestPointTelemetry:
    def test_capture_is_exact_after_ring_wraparound(self):
        spec = _specs()[0]
        tracer = Tracer(32)  # far smaller than the event volume
        run_workload(spec.config, spec.workload_factory(), obs=tracer)
        telemetry = PointTelemetry.capture(
            tracer, index=0, label=spec.label, wall_s=0.5
        )
        assert telemetry.dropped > 0  # the ring really wrapped
        assert len(telemetry.events) <= 32
        assert telemetry.emitted == tracer.emitted
        assert sum(telemetry.counts.values()) == telemetry.emitted
        assert telemetry.emitted - len(telemetry.events) == telemetry.dropped

    def test_capture_snapshots_not_references(self):
        tracer = Tracer(16)
        tracer.emit("sweep.point", ts=0.0, comp="sweep")
        telemetry = PointTelemetry.capture(
            tracer, index=0, label="", wall_s=0.0
        )
        tracer.emit("sweep.point", ts=1.0, comp="sweep")
        assert telemetry.counts == {"sweep.point": 1}
        assert len(telemetry.events) == 1


class TestMergedTallies:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_merged_equal_serial_sums_despite_wraparound(self, jobs):
        specs = _specs()
        ref_counts, ref_comps, ref_emitted = _serial_reference(specs)
        aggregate = SweepAggregator(capacity=64)  # forces wraparound
        stats = run_points(specs, jobs=jobs, aggregate=aggregate)
        assert all(s is not None for s in stats)
        assert aggregate.counts == ref_counts
        assert aggregate.comp_counts == ref_comps
        assert aggregate.emitted == ref_emitted
        assert aggregate.dropped > 0  # wraparound actually happened

    def test_parallel_sweep_uses_multiple_worker_lanes(self):
        aggregate = SweepAggregator(capacity=64)
        run_points(_specs(), jobs=2, aggregate=aggregate)
        assert aggregate.workers == 2

    def test_stats_identical_with_aggregation_on(self):
        specs = _specs()
        plain = [s.to_dict() for s in run_points(specs, jobs=2)]
        traced = [
            s.to_dict()
            for s in run_points(
                specs, jobs=2, aggregate=SweepAggregator(capacity=64)
            )
        ]
        assert json.dumps(traced, sort_keys=True) == json.dumps(
            plain, sort_keys=True
        )

    def test_cached_points_do_not_feed_the_aggregator(self, tmp_path):
        from repro.analysis.cache import ResultCache

        specs = _specs()
        cache = ResultCache(tmp_path)
        first = SweepAggregator()
        run_points(specs, cache=cache, aggregate=first)
        again = SweepAggregator()
        run_points(specs, cache=cache, aggregate=again)
        assert len(first.points) == len(specs)
        assert again.points == []  # everything came from the cache


class TestDeclaredFields:
    def test_sweep_records_carry_exactly_their_declared_fields(self, tmp_path):
        """``summarize --strict`` reads a merged trace against the
        registry: each ``sweep.*`` record's args are its declared
        fields, in declaration order."""
        aggregate = SweepAggregator(capacity=64)
        run_points(_specs(), jobs=2, aggregate=aggregate)
        trace = json.loads(aggregate.write(tmp_path)["trace"].read_text())
        records = [
            r for r in trace["traceEvents"] if r["name"].startswith("sweep.")
        ]
        assert {r["name"] for r in records} == {"sweep.point", "sweep.worker"}
        for r in records:
            assert tuple(r["args"]) == EVENTS[r["name"]].fields, r


class TestMergeMetricsDict:
    def test_counters_sum_gauges_max_histograms_add(self):
        a = MetricsRegistry()
        a.counter("retries").inc(3)
        a.gauge("dir_occupancy_peak").set_max(5.0)
        a.histogram("txn_latency.read").observe(10.0)
        a.histogram("txn_latency.read").observe(100.0)
        block = a.to_dict()
        merged = MetricsRegistry()
        merge_metrics_dict(merged, block)
        merge_metrics_dict(merged, block)
        out = merged.to_dict()
        assert out["counters"]["retries"] == 6
        assert out["gauges"]["dir_occupancy_peak"] == 5.0
        hist = out["histograms"]["txn_latency.read"]
        assert hist["count"] == 4
        assert hist["buckets"] == {
            ub: 2 * n
            for ub, n in block["histograms"]["txn_latency.read"][
                "buckets"
            ].items()
        }


def _telemetry(pid, index, events, *, counts=None):
    return PointTelemetry(
        index=index,
        label=f"p{index}",
        worker_pid=pid,
        wall_s=0.1,
        emitted=len(events),
        dropped=0,
        counts=counts or {},
        comp_counts={},
        events=events,
        metrics={"schema": 1, "counters": {}, "gauges": {}, "histograms": {}},
    )


class TestChromeLanes:
    def _aggregate(self):
        from repro.obs.tracer import TraceEvent

        agg = SweepAggregator(capacity=128)
        ev = [TraceEvent("txn.read", 5.0, kind="span", dur=20.0,
                         comp="directory", tid=1)]
        agg.add(_telemetry(101, 0, ev))
        agg.add(_telemetry(202, 1, list(ev)))
        agg.add(_telemetry(101, 2, list(ev)))  # second point, same worker
        return agg

    def test_worker_pids_become_process_lanes(self):
        trace = self._aggregate().to_chrome_trace()
        names = {
            r["pid"]: r["args"]["name"]
            for r in trace["traceEvents"]
            if r["name"] == "process_name"
        }
        assert names == {101: "worker 101", 202: "worker 202"}

    def test_components_become_named_thread_lanes(self):
        trace = self._aggregate().to_chrome_trace()
        threads = {
            (r["pid"], r["tid"]): r["args"]["name"]
            for r in trace["traceEvents"]
            if r["name"] == "thread_name"
        }
        assert threads[(101, 1)] == "directory"
        assert threads[(202, 1)] == "directory"

    def test_same_worker_points_lay_out_end_to_end(self):
        trace = self._aggregate().to_chrome_trace()
        spans = [
            r for r in trace["traceEvents"]
            if r["name"] == "sweep.point" and r["pid"] == 101
        ]
        assert [s["ts"] for s in spans] == [0.0, 25.0 + LANE_GAP_CYCLES]

    def test_merged_header(self):
        trace = self._aggregate().to_chrome_trace(meta={"app": "mp3d"})
        other = trace["otherData"]
        assert other["merged"] is True
        assert other["points"] == 3
        assert other["workers"] == 2
        assert other["app"] == "mp3d"

    def test_write_and_read_back(self, tmp_path):
        agg = self._aggregate()
        paths = agg.write(tmp_path)
        events = read_trace(paths["trace"])
        assert sum(1 for ev in events if ev.name == "txn.read") == 3
        # cat carries the component through the round trip
        assert {ev.comp for ev in events if ev.name == "txn.read"} == {
            "directory"
        }
        summary = json.loads(paths["summary"].read_text())
        assert summary["schema"] == AGGREGATE_SCHEMA
        assert summary["points"] == 3

    def test_write_gzipped(self, tmp_path):
        paths = self._aggregate().write(tmp_path, compress=True)
        assert paths["trace"].name.endswith(".gz")
        events = read_trace(paths["trace"])  # sniffed, not suffix-driven
        assert any(ev.name == "txn.read" for ev in events)


class TestSummary:
    def test_summary_counts(self):
        agg = SweepAggregator(capacity=8)
        tracer = Tracer(8)
        for i in range(12):
            tracer.emit("net.msg", ts=float(i), dur=20.0, comp="network")
        agg.add(PointTelemetry.capture(tracer, index=0, label="", wall_s=0.0))
        s = agg.summary()
        assert s["emitted"] == 12
        assert s["retained"] == 8
        assert s["dropped"] == 4
        assert s["by_name"] == {"net.msg": 12}
        assert s["by_component"] == {"network": 12}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepAggregator(capacity=0)
