"""Central event/metric name registry — the observability vocabulary.

Every trace event a hook can record and every metric instrument the
machine layer can create is declared here, once.  An event's
:class:`EventSpec` carries its kind, component lane, ordered argument
field names and the histogram one of those fields feeds, so a hook
states only the name and the values: ``obs.record("net.msg", sent,
arrival - sent, src, kind, block, dst, txn_id)``.  Three uses:

* **documentation** — ``tests/test_documentation.py`` checks the event
  table of ``docs/observability.md`` row by row against :data:`EVENTS`;
* **runtime validation** — the tracer takes declared events only
  (``Tracer.emit``, the keyword front of ``record``, also checks the
  component and argument names against the declaration), and the
  :class:`~repro.obs.metrics.MetricsRegistry` declared metrics only: a
  typo'd hook fails loudly in tests instead of opening a silently
  separate series;
* **static validation** — ``repro verify lint`` flags a ``record`` /
  ``emit`` / ``metrics.histogram`` call whose literal name is missing
  here (rule ``undeclared-obs-name``).

Versioning: :data:`TRACE_SCHEMA` stamps exported trace files,
:data:`METRICS_SCHEMA` the ``metrics`` block of ``SimStats.to_dict()``.
Bump them when the shapes (not the vocabulary) change; adding a name is
backward compatible.  Changing a declared event's ``fields`` changes
what a retained ring row means: bump ``CKPT_SCHEMA`` with it.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

#: version of the exported trace-file shape (JSONL and Chrome exporters)
TRACE_SCHEMA = 1

#: version of the ``metrics`` block in ``SimStats.to_dict()``
METRICS_SCHEMA = 1

#: event kinds (mirrors the Chrome trace_event phases we export to)
SPAN = "span"  # has a duration (ph "X")
INSTANT = "instant"  # a point in time (ph "i")
COUNTER = "counter"  # a sampled value series (ph "C")
#: split-span halves (ph "B" / "E"): no declared event has these kinds,
#: but a Chrome trace read from a file may
BEGIN = "begin"
END = "end"

#: the legs of a ``dir.service`` span's ``phases`` arg, in export order:
#: the directory records them as one flat tuple, and a zero leg is
#: absent from the dict the trace shows
SERVICE_PHASES = ("sparse_recall", "dir_lookup", "net_forward",
                  "remote_cache", "memory", "net_reply", "inval_fanout")


class EventSpec(NamedTuple):
    """One declared trace event: what a hook would otherwise restate.

    ``fields`` names, in order, the values ``Tracer.record`` takes after
    ``(name, ts, dur, tid)``; a ``None`` value is an absent optional
    field.  ``feeds`` is ``(metric, field)`` — the histogram the same
    call updates with that field (``"dur"``: the span's duration) — or
    ``(prefix, field, key)`` when the instrument is named ``prefix +
    <value of field key>``.  ``peak`` is ``(metric, field)``: the gauge
    the same call raises to that field's value (a running maximum).
    """

    kind: str
    comp: str
    fields: Tuple[str, ...]
    doc: str
    feeds: Optional[Tuple[str, ...]] = None
    peak: Optional[Tuple[str, str]] = None


_E = EventSpec
_TXN = ("block", "requester", "txn_id")

#: trace event name -> its declaration (the event taxonomy).  ``ckpt.*``
#: is harness activity, not simulation state: excluded from captured
#: tracer snapshots so a checkpoint's payload is independent of how many
#: saves preceded it (and instants: machine code has no wall clock).
EVENTS: Dict[str, EventSpec] = {
    "txn.read": _E(SPAN, "directory", _TXN, "read miss: directory request "
                   "issue -> completion", feeds=("txn_latency.read", "dur")),
    "txn.write": _E(SPAN, "directory", _TXN, "write miss/upgrade: request "
                    "issue -> completion",
                    feeds=("txn_latency.write", "dur")),
    "txn.retry": _E(INSTANT, "directory",
                    ("kind", "block", "attempt", "txn_id"),
                    "faulted request reissued after backoff"),
    "wb.issue": _E(INSTANT, "cluster", ("block",),
                   "dirty eviction put a writeback on the wire"),
    "dir.service": _E(SPAN, "directory",
                      ("kind", "block", "requester", "t_start",
                       "still_shared", "txn_id", "phases"),
                      "home controller service: arrival -> finish"),
    "dir.inval_round": _E(INSTANT, "directory",
                          ("cause", "block", "invals", "txn_id"),
                          "one invalidation event, tagged by cause",
                          feeds=("invals_per_event.", "invals", "cause")),
    "dir.sparse_evict": _E(INSTANT, "directory",
                           ("block", "targets", "nodes", "txn_id"),
                           "sparse-directory entry replacement"),
    "dir.occupancy": _E(COUNTER, "directory", ("value",),
                        "live directory entries at this home",
                        feeds=("dir_occupancy", "value"),
                        peak=("dir_occupancy_peak", "value")),
    "net.msg": _E(SPAN, "network", ("kind", "block", "dst", "txn_id"),
                  "one inter-cluster message: inject -> deliver",
                  feeds=("msg_latency", "dur")),
    "net.fault": _E(INSTANT, "network", ("kind", "src", "dst", "txn_id"),
                    "fault layer perturbed a delivery"),
    "cache.evict": _E(INSTANT, "cache", ("block", "dirty"),
                      "L2 victim pushed out by a fill"),
    "cache.inval": _E(INSTANT, "cache", ("block", "txn_id"),
                      "cache copy killed by an invalidation"),
    "proc.stall": _E(SPAN, "proc", ("addr", "write"), "processor stalled "
                     "on the memory system", feeds=("stall_cycles", "dur")),
    "proc.sync": _E(SPAN, "proc", (), "processor waited on a lock/barrier",
                    feeds=("sync_cycles", "dur")),
    "ckpt.save": _E(INSTANT, "ckpt", ("bytes", "events_run"),
                    "machine snapshot captured and written"),
    "ckpt.restore": _E(INSTANT, "ckpt", ("events_run",),
                       "machine state restored from a snapshot"),
    "sweep.point": _E(SPAN, "sweep",
                      ("index", "label", "emitted", "dropped", "wall_s"),
                      "one simulated sweep grid point's lane in a merged "
                      "trace"),
    "sweep.worker": _E(INSTANT, "sweep", ("pid", "points"), "one worker "
                       "process's telemetry lane opened in a merged trace"),
}


def _sources(spec: EventSpec) -> Tuple[Any, ...]:
    """``(feed, peak)``, resolved once at import, for the rows ``(name,
    ts, dur, tid, *values)`` of ``spec``: ``feed`` is ``(metric, value
    index, key index or None)`` and ``peak`` ``(metric, value index)``,
    each ``None`` when the event declares none."""
    at = {field: i for i, field in enumerate(spec.fields, 4)}
    at["dur"] = 2
    feed = peak = None
    if spec.feeds is not None:
        metric, value, *key = spec.feeds
        feed = (metric, at[value], at[key[0]] if key else None)
    if spec.peak is not None:
        metric, value = spec.peak
        peak = (metric, at[value])
    return feed, peak


#: event name -> ``_sources`` of its declaration (what the tally reads)
RECORD = {name: _sources(spec) for name, spec in EVENTS.items()}

#: metric instrument name -> one-line description (the metrics glossary)
METRICS: Dict[str, str] = {
    # histograms (log2-bucketed, cycles unless noted)
    "msg_latency": "per-message inject -> deliver latency",
    "txn_latency.read": "read request issue -> completion latency",
    "txn_latency.write": "write request issue -> completion latency",
    "dir_occupancy": "live directory entries sampled per transaction",
    "invals_per_event.write": "invalidations sent per write event",
    "invals_per_event.nb_evict": "invalidations per Dir_iNB pointer eviction",
    "invals_per_event.sparse_repl": "invalidations per sparse replacement",
    "retry_wait": "backoff delay per fault-forced retry",
    "stall_cycles": "per-reference processor stall time",
    "sync_cycles": "per-operation lock/barrier wait time",
    # counters
    "retries": "fault-forced request reissues observed",
    "ckpt_saves": "machine snapshots captured by this process",
    "ckpt_bytes": "total bytes of checkpoint data written",
    "ckpt_resumes": "runs continued from a restored snapshot",
    # gauges
    "dir_occupancy_peak": "max live directory entries seen at any home",
}
