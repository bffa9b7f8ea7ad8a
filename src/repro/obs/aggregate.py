"""Cross-worker sweep telemetry: capture, merge, and Perfetto export.

A parallel sweep forks workers, and each worker's tracer dies with its
process — PR 3's observability ended at the fork boundary.  This module
carries it across:

* :class:`PointTelemetry` — the compact, picklable record one worker
  captures from its per-point :class:`~repro.obs.tracer.Tracer` when a
  grid point completes: the retained ring events, the *exact* per-name /
  per-component tallies (plain counters, immune to ring wraparound), the
  drop count, and the point's metrics block.  It rides the existing
  supervisor duplex pipe alongside the point's ``SimStats``.
* :class:`SweepAggregator` — the parent-side merge.  Tallies add
  exactly (so the sweep-level ``by_name`` counts equal the sum over the
  same points run serially, even when every worker ring wrapped),
  metrics merge (counters sum, peak gauges max, histogram buckets add),
  and the retained events from all workers land in **one**
  Perfetto-loadable Chrome trace where each worker process is a ``pid``
  lane and each simulator component a named ``tid`` lane within it.

Worker lanes lay points out end-to-end: each point's events keep their
simulated-cycle spacing but start at the worker's running cursor, so
the merged timeline reads as worker occupancy — which worker simulated
what, in what order — while ``cat`` still records the component, which
is what :func:`~repro.obs.export.read_chrome_trace` folds back into
``TraceEvent.comp`` on reload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Set, Tuple, Union

from repro.obs.export import chrome_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.registry import TRACE_SCHEMA
from repro.obs.tracer import TraceEvent, Tracer

#: version of the aggregate summary.json envelope
AGGREGATE_SCHEMA = 1

#: simulated-cycle gap between consecutive points in one worker's lane
#: (purely visual: keeps adjacent points distinguishable in Perfetto)
LANE_GAP_CYCLES = 1000.0


@dataclass
class PointTelemetry:
    """One grid point's observability payload, shipped worker -> parent.

    Everything here is plain data (no live tracer references), so the
    record pickles across the supervisor pipe.  ``counts`` and
    ``comp_counts`` are the tracer's *exact* tallies — they keep
    counting after the ring wraps, so merged sums stay exact no matter
    how small the per-worker capacity was.  ``events`` is the retained
    ring only (at most ``capacity`` records).
    """

    index: int
    label: str
    worker_pid: int
    wall_s: float
    emitted: int
    dropped: int
    counts: Dict[str, int]
    comp_counts: Dict[str, int]
    events: List[TraceEvent]
    metrics: Dict[str, object]

    @classmethod
    def capture(
        cls, tracer: Tracer, *, index: int, label: str, wall_s: float
    ) -> "PointTelemetry":
        """Snapshot a finished point's tracer in the current process."""
        return cls(
            index=index,
            label=label,
            worker_pid=os.getpid(),
            wall_s=wall_s,
            emitted=tracer.emitted,
            dropped=tracer.dropped,
            counts=dict(tracer.counts),
            comp_counts=dict(tracer.comp_counts),
            events=tracer.events(),
            metrics=tracer.metrics.to_dict(),
        )


def merge_metrics_dict(
    into: MetricsRegistry, block: Mapping[str, object]
) -> None:
    """Fold one exported metrics block into a live registry.

    Counters sum, gauges take the max (every gauge we declare is a
    peak), histograms add bucket-wise plus count/total — so the merged
    registry reads as if one tracer had observed every point.
    """
    counters = block.get("counters", {})
    if isinstance(counters, Mapping):
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                into.counter(str(name)).inc(int(value))
    gauges = block.get("gauges", {})
    if isinstance(gauges, Mapping):
        for name, value in gauges.items():
            if isinstance(value, (int, float)):
                into.gauge(str(name)).set_max(float(value))
    histograms = block.get("histograms", {})
    if isinstance(histograms, Mapping):
        for name, hd in histograms.items():
            if not isinstance(hd, Mapping):
                continue
            h = into.histogram(str(name))
            count = hd.get("count", 0)
            total = hd.get("total", 0.0)
            if isinstance(count, (int, float)):
                h.count += int(count)
            if isinstance(total, (int, float)):
                h.total += float(total)
            buckets = hd.get("buckets", {})
            if isinstance(buckets, Mapping):
                for ub, n in buckets.items():
                    if not isinstance(n, (int, float)):
                        continue
                    # inverse of Log2Histogram.items(): upper bound
                    # 2**idx -> bucket index idx
                    idx = max(0, int(str(ub)).bit_length() - 1)
                    h.buckets[idx] = h.buckets.get(idx, 0) + int(n)


@dataclass
class _WorkerLane:
    """Per-worker layout state in the merged timeline."""

    pid: int
    order: int  # first-seen order (stable lane sorting)
    cursor: float = 0.0  # next point's time base in this lane
    points: int = 0
    #: component name -> merged-trace tid lane within this worker
    tid_of_comp: Dict[str, int] = field(default_factory=dict)


class SweepAggregator:
    """Parent-side merge of every worker's :class:`PointTelemetry`.

    ``capacity`` is the ring size the per-point worker tracers are
    created with; the aggregator records it so the merged summary can
    say how lossy the retained-event view was (the tallies never are).
    """

    def __init__(self, *, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self.comp_counts: Dict[str, int] = {}
        self.metrics = MetricsRegistry()
        self.points: List[PointTelemetry] = []
        self._lanes: Dict[int, _WorkerLane] = {}
        #: (lane, time base, telemetry) per merged point, in arrival order
        self._placed: List[Tuple[_WorkerLane, float, PointTelemetry]] = []

    # -- ingestion ----------------------------------------------------------

    def add(self, telemetry: PointTelemetry) -> None:
        """Merge one completed point's telemetry (any worker, any order)."""
        self.points.append(telemetry)
        self.emitted += telemetry.emitted
        self.dropped += telemetry.dropped
        for name, n in telemetry.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        for comp, n in telemetry.comp_counts.items():
            self.comp_counts[comp] = self.comp_counts.get(comp, 0) + n
        merge_metrics_dict(self.metrics, telemetry.metrics)
        lane = self._lanes.get(telemetry.worker_pid)
        if lane is None:
            lane = self._lanes[telemetry.worker_pid] = _WorkerLane(
                pid=telemetry.worker_pid, order=len(self._lanes)
            )
        base = lane.cursor
        span = 0.0
        for ev in telemetry.events:
            end = ev.ts + (ev.dur or 0.0)
            if end > span:
                span = end
        lane.cursor = base + span + LANE_GAP_CYCLES
        lane.points += 1
        self._placed.append((lane, base, telemetry))

    # -- inspection ---------------------------------------------------------

    @property
    def workers(self) -> int:
        """Distinct worker processes that contributed telemetry."""
        return len(self._lanes)

    def summary(self) -> Dict[str, object]:
        """Headline numbers mirroring ``Tracer.summary()`` sweep-wide."""
        return {
            "schema": AGGREGATE_SCHEMA,
            "points": len(self.points),
            "workers": self.workers,
            "capacity": self.capacity,
            "emitted": self.emitted,
            "retained": sum(len(t.events) for t in self.points),
            "dropped": self.dropped,
            "by_name": dict(sorted(self.counts.items())),
            "by_component": dict(sorted(self.comp_counts.items())),
        }

    # -- export -------------------------------------------------------------

    def _lane_tid(self, lane: _WorkerLane, comp: str) -> int:
        tid = lane.tid_of_comp.get(comp)
        if tid is None:
            tid = lane.tid_of_comp[comp] = len(lane.tid_of_comp) + 1
        return tid

    def to_chrome_trace(
        self, *, meta: Mapping[str, object] = {}
    ) -> Dict[str, object]:
        """One Perfetto-loadable object: worker pid lanes, comp tid lanes.

        Each worker process becomes a Perfetto process (``pid`` = the
        real worker OS pid, named via ``process_name`` metadata); within
        it each component gets a named thread lane.  ``cat`` carries the
        component, so :func:`~repro.obs.export.read_chrome_trace` reads
        the merged file back with components intact.
        """
        records: List[Dict[str, object]] = []
        for lane in sorted(self._lanes.values(), key=lambda w: w.order):
            records.append({
                "name": "process_name",
                "ph": "M",
                "pid": lane.pid,
                "tid": 0,
                "args": {"name": f"worker {lane.pid}"},
            })
            records.append({
                "name": "sweep.worker",
                "ph": "i",
                "s": "t",
                "ts": 0.0,
                "pid": lane.pid,
                "tid": 0,
                "cat": "sweep",
                "args": {"pid": lane.pid, "points": lane.points},
            })
        named_tids: Set[Tuple[int, int]] = set()
        for lane, base, telemetry in self._placed:
            # the point's envelope span in this worker's lane
            span = max(
                (ev.ts + (ev.dur or 0.0) for ev in telemetry.events),
                default=0.0,
            )
            records.append({
                "name": "sweep.point",
                "ph": "X",
                "ts": base,
                "dur": span,
                "pid": lane.pid,
                "tid": 0,
                "cat": "sweep",
                "args": {
                    "index": telemetry.index,
                    "label": telemetry.label,
                    "emitted": telemetry.emitted,
                    "dropped": telemetry.dropped,
                    "wall_s": round(telemetry.wall_s, 4),
                },
            })
            for ev in telemetry.events:
                comp = ev.comp or "sim"
                tid = self._lane_tid(lane, comp)
                if (lane.pid, tid) not in named_tids:
                    named_tids.add((lane.pid, tid))
                    records.append({
                        "name": "thread_name",
                        "ph": "M",
                        "pid": lane.pid,
                        "tid": tid,
                        "args": {"name": comp},
                    })
                args = ev.args
                if args and "txn_id" in args:
                    # txn_ids restart at 1 in every point; qualify them
                    # so causal reconstruction of the merged trace
                    # cannot pair spans across grid points
                    args = {**args, "point": telemetry.index}
                    t_start = args.get("t_start")
                    if isinstance(t_start, (int, float)):
                        # in-args timestamps shift with the lane layout
                        # like ts does, keeping the causal phase
                        # identity exact on merged traces
                        args["t_start"] = t_start + base
                records.append(
                    chrome_record(ev, base + ev.ts, lane.pid, tid, comp, args)
                )
        return {
            "traceEvents": records,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA,
                "kind": "repro-trace",
                "merged": True,
                "points": len(self.points),
                "workers": self.workers,
                "dropped": self.dropped,
                **meta,
            },
        }

    def write(
        self,
        out_dir: Union[str, Path],
        *,
        meta: Mapping[str, object] = {},
        compress: bool = False,
    ) -> Dict[str, Path]:
        """Write the merged artifacts under ``out_dir``.

        ``merged_trace.json`` (Perfetto), ``summary.json`` (exact merged
        tallies), and ``metrics.json`` (the merged registry).  Returns
        the paths keyed by artifact name.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        suffix = ".gz" if compress else ""
        trace_path = out / f"merged_trace.json{suffix}"
        if compress:
            from repro.obs.export import _open_write

            with _open_write(trace_path, True) as zfh:
                json.dump(self.to_chrome_trace(meta=meta), zfh, indent=1)
                zfh.write("\n")
        else:
            with open(trace_path, "w") as fh:
                json.dump(self.to_chrome_trace(meta=meta), fh, indent=1)
                fh.write("\n")
        summary_path = out / "summary.json"
        with open(summary_path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        metrics_path = out / "metrics.json"
        with open(metrics_path, "w") as fh:
            json.dump(self.metrics.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return {
            "trace": trace_path,
            "summary": summary_path,
            "metrics": metrics_path,
        }
