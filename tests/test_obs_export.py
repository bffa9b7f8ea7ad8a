"""JSONL and Chrome trace_event exporters round-trip exactly."""

import json

import pytest

from repro.obs.export import (
    export_trace,
    read_chrome_trace,
    read_jsonl,
    read_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import TRACE_SCHEMA
from repro.obs.tracer import TraceEvent, Tracer


def sample_events():
    return [
        TraceEvent("txn.read", 10.0, kind="span", dur=23.0,
                   comp="directory", tid=3, args={"block": 7}),
        TraceEvent("wb.issue", 15.0, comp="cluster", tid=1),
        TraceEvent("dir.occupancy", 20.0, kind="counter",
                   comp="directory", tid=3, args={"value": 4.0}),
        TraceEvent("net.msg", 21.0, kind="span", dur=40.0,
                   comp="network", tid=0),
    ]


class TestJsonl:
    def test_roundtrip_exact(self, tmp_path):
        path = write_jsonl(sample_events(), tmp_path / "t.jsonl",
                           meta={"app": "unit"})
        assert read_jsonl(path) == sample_events()

    def test_header_carries_schema_and_meta(self, tmp_path):
        path = write_jsonl(sample_events(), tmp_path / "t.jsonl",
                           meta={"app": "unit"})
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["kind"] == "repro-trace"
        assert header["app"] == "unit"

    def test_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(
            {"schema": TRACE_SCHEMA + 1, "kind": "repro-trace"}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_jsonl(path)

    def test_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "x", "ts": 1}\n')
        with pytest.raises(ValueError, match="header"):
            read_jsonl(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(path)


class TestChrome:
    def test_roundtrip_exact(self, tmp_path):
        path = write_chrome_trace(sample_events(), tmp_path / "t.json")
        assert read_chrome_trace(path) == sample_events()

    def test_phases_and_process_metadata(self):
        doc = to_chrome_trace(sample_events())
        records = doc["traceEvents"]
        phases = [r["ph"] for r in records]
        # one process_name metadata record per distinct component
        assert phases.count("M") == 3
        assert phases.count("X") == 2  # the two spans
        assert phases.count("i") == 1
        assert phases.count("C") == 1
        names = {r["args"]["name"] for r in records if r["ph"] == "M"}
        assert names == {"directory", "cluster", "network"}
        span = next(r for r in records if r["ph"] == "X")
        assert span["dur"] == 23.0 and span["ts"] == 10.0

    def test_schema_in_other_data(self):
        doc = to_chrome_trace([])
        assert doc["otherData"]["schema"] == TRACE_SCHEMA

    def test_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "traceEvents": [],
            "otherData": {"schema": TRACE_SCHEMA + 1},
        }))
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_chrome_trace(path)

    def test_rejects_unknown_phase(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "traceEvents": [{"name": "x", "ph": "Z", "ts": 0}],
        }))
        with pytest.raises(ValueError, match="unsupported trace phase"):
            read_chrome_trace(path)

    def test_rejects_non_trace_object(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a Chrome trace_event"):
            read_chrome_trace(path)


class TestStreamedChrome:
    """``write_chrome_trace`` encodes one record at a time; its bytes are
    still ``json.dump(to_chrome_trace(...), indent=1)``'s."""

    @pytest.mark.parametrize("events,meta", [
        ([], {}),
        (sample_events()[:1], {}),
        (sample_events(), {"app": "unit", "procs": 32}),
        (sample_events() + [TraceEvent("dir.service", 30.0, kind="span",
                                       dur=9.0, comp="directory", args={
                                           "phases": {"memory": 23.0},
                                           "note": 'line\n"two"'})],
         {"nested": {"list": [1, {"deep": None}], "empty": {}},
          "unicode": "caf\u00e9"}),
    ], ids=["empty", "one-component", "components", "nested-meta"])
    def test_bytes_equal_json_dump(self, tmp_path, events, meta):
        path = write_chrome_trace(iter(events), tmp_path / "t.json", meta=meta)
        expected = json.dumps(to_chrome_trace(events, meta=meta), indent=1)
        assert path.read_text() == expected + "\n"

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_batch_boundaries(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr("repro.obs.export._BATCH", 2)
        events = (sample_events() * 2)[:n]
        path = write_chrome_trace(events, tmp_path / "t.json")
        expected = json.dumps(to_chrome_trace(events), indent=1)
        assert path.read_text() == expected + "\n"


class TestSniffing:
    def test_read_trace_detects_jsonl(self, tmp_path):
        path = write_jsonl(sample_events(), tmp_path / "t.jsonl")
        assert read_trace(path) == sample_events()

    def test_read_trace_detects_pretty_chrome(self, tmp_path):
        # write_chrome_trace pretty-prints, so line one is just "{"
        path = write_chrome_trace(sample_events(), tmp_path / "t.json")
        assert read_trace(path) == sample_events()

    def test_read_trace_detects_compact_chrome(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(to_chrome_trace(sample_events())))
        assert read_trace(path) == sample_events()

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="unrecognized"):
            read_trace(path)


class TestExportTrace:
    def _tracer(self):
        t = Tracer()
        for ev in sample_events():
            t.emit(ev.name, ts=ev.ts, dur=ev.dur, comp=ev.comp, tid=ev.tid,
                   args=ev.args)
        return t

    def test_chrome_default(self, tmp_path):
        path = export_trace(self._tracer(), tmp_path / "t.json")
        assert read_trace(path) == sample_events()

    def test_jsonl_format(self, tmp_path):
        path = export_trace(self._tracer(), tmp_path / "t.jsonl",
                            fmt="jsonl")
        assert read_trace(path) == sample_events()

    def test_dropped_count_in_meta(self, tmp_path):
        path = export_trace(self._tracer(), tmp_path / "t.jsonl",
                            fmt="jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dropped"] == 0

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            export_trace(self._tracer(), tmp_path / "t.bin", fmt="bin")


class TestGzip:
    """Every writer compresses on request; every reader sniffs the magic."""

    def test_jsonl_gz_suffix_roundtrip(self, tmp_path):
        from repro.obs.export import is_gzipped

        path = write_jsonl(sample_events(), tmp_path / "t.jsonl.gz")
        assert is_gzipped(path)  # suffix alone triggered compression
        assert read_jsonl(path) == sample_events()
        assert read_trace(path) == sample_events()

    def test_chrome_gz_suffix_roundtrip(self, tmp_path):
        from repro.obs.export import is_gzipped

        path = write_chrome_trace(sample_events(), tmp_path / "t.json.gz")
        assert is_gzipped(path)
        assert read_chrome_trace(path) == sample_events()
        assert read_trace(path) == sample_events()

    def test_explicit_compress_beats_the_suffix(self, tmp_path):
        from repro.obs.export import is_gzipped

        plain = write_jsonl(sample_events(), tmp_path / "a.jsonl",
                            compress=True)
        assert is_gzipped(plain)  # no .gz suffix, still compressed
        forced = write_jsonl(sample_events(), tmp_path / "b.jsonl.gz",
                             compress=False)
        assert not is_gzipped(forced)  # .gz suffix, explicitly plain
        assert read_trace(plain) == read_trace(forced)

    def test_compressed_output_is_deterministic(self, tmp_path):
        a = write_jsonl(sample_events(), tmp_path / "a.jsonl.gz")
        b = write_jsonl(sample_events(), tmp_path / "b.jsonl.gz")
        assert a.read_bytes() == b.read_bytes()  # mtime pinned to 0

    def test_is_gzipped_on_short_file(self, tmp_path):
        from repro.obs.export import is_gzipped

        path = tmp_path / "tiny"
        path.write_bytes(b"{")
        assert not is_gzipped(path)


class TestSplitSpans:
    """kind=BEGIN/END events map to Chrome ph B/E and round-trip."""

    def _events(self):
        return [
            TraceEvent("dir.service", 5.0, kind="begin", comp="directory",
                       tid=2, args={"txn_id": 1}),
            TraceEvent("dir.service", 25.0, kind="end", comp="directory",
                       tid=2, args={"txn_id": 1}),
        ]

    def test_chrome_phases(self):
        doc = to_chrome_trace(self._events())
        phases = [r["ph"] for r in doc["traceEvents"] if r["ph"] != "M"]
        assert phases == ["B", "E"]
        for r in doc["traceEvents"]:
            assert "dur" not in r  # split halves carry no duration

    def test_chrome_roundtrip(self, tmp_path):
        path = write_chrome_trace(self._events(), tmp_path / "t.json")
        back = read_chrome_trace(path)
        assert back == self._events()
        assert all(ev.dur is None for ev in back)

    def test_jsonl_roundtrip(self, tmp_path):
        path = write_jsonl(self._events(), tmp_path / "t.jsonl")
        assert read_jsonl(path) == self._events()
