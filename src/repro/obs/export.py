"""Trace exporters and loaders: JSONL and Chrome ``trace_event`` JSON.

Two interchangeable on-disk forms, both schema-versioned:

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` per line, with a
  leading header line ``{"schema": 1, "kind": "repro-trace", ...}``.
  Grep-able, streamable, and the round-trip-exact form.
* **Chrome trace_event** — a ``{"traceEvents": [...]}`` object loadable
  by Perfetto (https://ui.perfetto.dev) and ``about://tracing``.  Spans
  map to complete events (``ph: "X"``), instants to ``ph: "i"``, counter
  samples to ``ph: "C"``; components become processes via
  ``process_name`` metadata records.  Timestamps are simulated cycles
  exported in the microsecond field, so one trace microsecond == one
  simulated cycle.

Both loaders reject files whose declared schema is newer than this
build, and both round-trip through :class:`TraceEvent` (guarded by
``tests/test_obs_export.py``).

Either form may be gzip-compressed (``--gzip`` on ``repro obs trace``,
or any path ending in ``.gz``): every loader sniffs the two-byte gzip
magic and decompresses transparently, so ``repro obs summarize`` /
``diff`` / ``critical-path`` and ``repro verify conform`` accept
``trace.jsonl.gz`` exactly like ``trace.jsonl``.
"""

from __future__ import annotations

import gzip
import io
import json
from itertools import islice
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.registry import BEGIN, COUNTER, END, INSTANT, SPAN, TRACE_SCHEMA
from repro.obs.tracer import TraceEvent, Tracer

PathLike = Union[str, Path]

#: marker distinguishing our JSONL header from an event line
_JSONL_KIND = "repro-trace"

#: the two magic bytes opening every gzip stream (RFC 1952)
_GZIP_MAGIC = b"\x1f\x8b"


def is_gzipped(path: PathLike) -> bool:
    """True when the file starts with the gzip magic bytes."""
    with open(path, "rb") as fh:
        return fh.read(2) == _GZIP_MAGIC


def _open_read(path: PathLike) -> IO[str]:
    """Open a trace file for text reading, decompressing if gzipped."""
    if is_gzipped(path):
        return gzip.open(path, "rt")
    return open(path)


class _DeterministicGzipFile(gzip.GzipFile):
    """GzipFile whose header is content-only: no mtime, no filename.

    Plain ``gzip.open`` embeds both, so the same trace written twice
    (or under two names) would differ byte-for-byte — breaking cache
    keys and artifact diffs over compressed traces.
    """

    def __init__(self, path: Path) -> None:
        self._raw = open(path, "wb")
        super().__init__(filename="", mode="wb", fileobj=self._raw, mtime=0)

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw.close()


def _open_write(path: Path, compress: bool) -> IO[str]:
    """Open a trace file for text writing, gzip-compressing on request."""
    if compress:
        return io.TextIOWrapper(_DeterministicGzipFile(path),
                                encoding="utf-8")
    return open(path, "w")


def _wants_gzip(path: Path, compress: Union[bool, None]) -> bool:
    """Resolve the compress flag: explicit wins, else the .gz suffix."""
    return compress if compress is not None else path.suffix == ".gz"


# -- JSONL -------------------------------------------------------------------


def write_jsonl(
    events: Iterable[TraceEvent], path: PathLike, *,
    meta: Dict[str, object] = {}, compress: Union[bool, None] = None,
) -> Path:
    """Write a JSONL trace file (gzipped on request); returns the path."""
    path = Path(path)
    with _open_write(path, _wants_gzip(path, compress)) as fh:
        header: Dict[str, object] = {
            "schema": TRACE_SCHEMA,
            "kind": _JSONL_KIND,
            **meta,
        }
        fh.write(json.dumps(header) + "\n")
        for ev in events:
            fh.write(json.dumps(ev.to_json_dict()) + "\n")
    return path


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Load a JSONL trace; validates the header schema."""
    path = Path(path)
    events: List[TraceEvent] = []
    with _open_read(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(first)
        if header.get("kind") != _JSONL_KIND:
            raise ValueError(
                f"{path}: missing repro-trace header line "
                f"(is this a Chrome-format trace? use read_chrome_trace)"
            )
        _check_schema(header.get("schema"), path)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            events.append(
                TraceEvent(
                    name=d["name"],
                    ts=float(d["ts"]),
                    kind=d.get("kind", INSTANT),
                    dur=float(d["dur"]) if "dur" in d else None,
                    comp=d.get("comp", ""),
                    tid=int(d.get("tid", 0)),
                    args=d.get("args"),
                )
            )
    return events


# -- Chrome trace_event ------------------------------------------------------

#: records ``write_chrome_trace`` encodes per call
_BATCH = 1024

_PHASE_OF_KIND = {SPAN: "X", INSTANT: "i", COUNTER: "C", BEGIN: "B", END: "E"}
_KIND_OF_PHASE = {ph: kind for kind, ph in _PHASE_OF_KIND.items()}


def chrome_record(
    ev: TraceEvent, ts: float, pid: int, tid: int, comp: str,
    args: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """One event's ``traceEvents`` record, placed at ``ts``/``pid``/``tid``."""
    record: Dict[str, object] = {
        "name": ev.name,
        "ph": _PHASE_OF_KIND[ev.kind],
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "cat": comp,
    }
    if ev.kind == SPAN:
        record["dur"] = 0.0 if ev.dur is None else ev.dur
    elif ev.kind == INSTANT:
        record["s"] = "t"  # thread-scoped instant
    if args:
        record["args"] = args
    return record


def _chrome_records(
    events: Iterable[TraceEvent],
) -> Iterator[Dict[str, object]]:
    """The ``traceEvents`` records of ``events``, in order: each
    component's ``process_name`` metadata opens its first event."""
    pid_of_comp: Dict[str, int] = {}
    for ev in events:
        comp = ev.comp or "sim"
        pid = pid_of_comp.get(comp)
        if pid is None:
            pid = pid_of_comp[comp] = len(pid_of_comp) + 1
            yield {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": comp},
            }
        yield chrome_record(ev, ev.ts, pid, ev.tid, comp, ev.args)


def _chrome_object(
    trace_events: List[Dict[str, object]], meta: Dict[str, object]
) -> Dict[str, object]:
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "kind": _JSONL_KIND, **meta},
    }


def to_chrome_trace(
    events: Iterable[TraceEvent], *, meta: Dict[str, object] = {}
) -> Dict[str, object]:
    """Build the Chrome/Perfetto ``trace_event`` JSON object."""
    return _chrome_object(list(_chrome_records(events)), meta)


def write_chrome_trace(
    events: Iterable[TraceEvent], path: PathLike, *,
    meta: Dict[str, object] = {}, compress: Union[bool, None] = None,
) -> Path:
    """Write a Perfetto-loadable Chrome trace JSON; returns the path.

    Streams: records are encoded :data:`_BATCH` at a time, so the trace
    is never built in memory, and the bytes are still
    ``json.dump(to_chrome_trace(events, meta=meta), fh, indent=1)``'s.
    The object without its records is encoded once and split at the
    empty ``traceEvents`` list; a batch is encoded as a top-level list,
    indented one more space (an encoded string holds no raw newline, so
    every newline is layout) and stripped of its brackets.
    """
    path = Path(path)
    encode = json.JSONEncoder(indent=1).encode
    key = '"traceEvents": ['
    head, tail = encode(_chrome_object([], meta)).split(key + "]", 1)
    records = _chrome_records(events)
    with _open_write(path, _wants_gzip(path, compress)) as fh:
        fh.write(head + key)
        sep = ""
        while batch := list(islice(records, _BATCH)):
            # "[\n {...},\n {...}\n]" -> "\n  {...},\n  {...}"
            fh.write(sep + encode(batch).replace("\n", "\n ")[1:-3])
            sep = ","
        fh.write(("\n ]" if sep else "]") + tail + "\n")
    return path


def read_chrome_trace(path: PathLike) -> List[TraceEvent]:
    """Load a Chrome trace back into :class:`TraceEvent` records.

    Metadata records (``ph: "M"``) are folded back into each event's
    component; unknown phases raise so a truncated/foreign file cannot
    silently read as empty.
    """
    path = Path(path)
    with _open_read(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(f"{path}: not a Chrome trace_event JSON object")
    _check_schema(
        data.get("otherData", {}).get("schema", TRACE_SCHEMA), path
    )
    comp_of_pid: Dict[int, str] = {}
    events: List[TraceEvent] = []
    for record in data["traceEvents"]:
        ph = record.get("ph")
        if ph == "M":
            if record.get("name") == "process_name":
                comp_of_pid[int(record["pid"])] = record["args"]["name"]
            continue
        kind = _KIND_OF_PHASE.get(ph)
        if kind is None:
            raise ValueError(f"{path}: unsupported trace phase {ph!r}")
        comp = record.get("cat") or comp_of_pid.get(int(record.get("pid", 0)), "")
        if comp == "sim":
            comp = ""
        events.append(
            TraceEvent(
                name=record["name"],
                ts=float(record["ts"]),
                kind=kind,
                dur=float(record["dur"]) if kind == SPAN else None,
                comp=comp,
                tid=int(record.get("tid", 0)),
                args=record.get("args") or None,
            )
        )
    return events


# -- common ------------------------------------------------------------------


def _check_schema(schema: object, path: Path) -> None:
    if not isinstance(schema, int) or schema < 1 or schema > TRACE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(this build reads <= {TRACE_SCHEMA})"
        )


def read_trace(path: PathLike) -> List[TraceEvent]:
    """Load a trace in either format, gzipped or plain (sniffs bytes)."""
    path = Path(path)
    with _open_read(path) as fh:
        head = fh.read(1)
    if head == "{":
        # Both formats start with "{".  A JSONL header fits on line one;
        # a (possibly pretty-printed) Chrome object usually does not.
        with _open_read(path) as fh:
            line = fh.readline()
        try:
            first = json.loads(line)
        except json.JSONDecodeError:
            return read_chrome_trace(path)
        if isinstance(first, dict) and first.get("kind") == _JSONL_KIND:
            return read_jsonl(path)
        return read_chrome_trace(path)
    raise ValueError(f"{path}: unrecognized trace file")


def export_trace(
    tracer: Tracer, path: PathLike, *, fmt: str = "chrome",
    meta: Dict[str, object] = {}, compress: Union[bool, None] = None,
) -> Path:
    """Write a tracer's retained events in ``fmt`` (chrome or jsonl)."""
    merged = {"dropped": tracer.dropped, **meta}
    if fmt == "chrome":
        return write_chrome_trace(
            iter(tracer), path, meta=merged, compress=compress
        )
    if fmt == "jsonl":
        return write_jsonl(iter(tracer), path, meta=merged, compress=compress)
    raise ValueError(f"unknown trace format {fmt!r} (use 'chrome' or 'jsonl')")
