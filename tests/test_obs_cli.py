"""End-to-end ``repro obs`` trace / summarize / diff on a tiny workload."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import read_trace
from repro.obs.registry import EVENTS


def _trace_args(out, *, fmt="chrome", seed=0, metrics_out=None):
    args = [
        "trace", "--app", "mp3d", "--procs", "4", "--scale", "0.25",
        "--scheme", "Dir2CV2", "--seed", str(seed),
        "--out", str(out), "--format", fmt,
    ]
    if metrics_out is not None:
        args += ["--metrics-out", str(metrics_out)]
    return args


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run shared by the read-only assertions below."""
    tmp = tmp_path_factory.mktemp("obs_cli")
    trace = tmp / "trace.json"
    metrics = tmp / "metrics.json"
    rc = main(_trace_args(trace, metrics_out=metrics))
    assert rc == 0
    return trace, metrics


class TestTrace:
    def test_chrome_trace_written_and_loadable(self, traced):
        trace, _ = traced
        events = read_trace(trace)
        assert events, "traced run produced no events"
        assert all(ev.name in EVENTS for ev in events)

    def test_metrics_out_is_versioned_stats(self, traced):
        _, metrics = traced
        data = json.loads(metrics.read_text())
        assert data["schema"] == 2
        assert "metrics" in data
        assert data["metrics"]["schema"] == 1
        assert data["metrics"]["histograms"]  # something was recorded

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(_trace_args(out, fmt="jsonl")) == 0
        assert read_trace(out)

    def test_builds_the_machine_repro_run_builds(self):
        from repro import cli
        from repro.obs.cli import build_parser

        flags = ["--app", "DWF", "--procs", "8", "--scheme", "Dir2B", "--seed", "5",
                 "--l1-bytes", "256", "--l2-bytes", "512", "--sparse", "0.5",
                 "--sparse-assoc", "2", "--sparse-policy", "lru"]
        traced = build_parser().parse_args(["trace", "--out", "t.json", *flags])
        run = cli.build_parser().parse_args(["run", *flags])
        config = cli.machine_from_args(traced)
        assert config == cli.machine_from_args(run)
        assert (config.l2_bytes, config.sparse_policy) == (512, "lru")

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(_trace_args(a, fmt="jsonl", seed=3)) == 0
        assert main(_trace_args(b, fmt="jsonl", seed=3)) == 0
        # identical modulo the header (which is identical too)
        assert a.read_text() == b.read_text()


class TestSummarize:
    def test_summarize_strict_passes_on_real_trace(self, traced, capsys):
        trace, _ = traced
        assert main(["summarize", str(trace), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "events over" in out
        assert "every event name is declared" in out

    def test_summarize_strict_fails_on_unknown_name(self, tmp_path, capsys):
        from repro.obs.export import write_jsonl
        from repro.obs.tracer import TraceEvent

        path = write_jsonl(
            [TraceEvent("rogue.event", 1.0)], tmp_path / "t.jsonl"
        )
        assert main(["summarize", str(path), "--strict"]) == 1
        assert "rogue.event" in capsys.readouterr().err

    def test_summarize_missing_file_exits_2(self, tmp_path):
        assert main(["summarize", str(tmp_path / "nope.json")]) == 2


class TestDiff:
    def test_diff_two_seeds(self, traced, tmp_path, capsys):
        _, metrics_a = traced
        trace_b = tmp_path / "b_trace.json"
        metrics_b = tmp_path / "b_metrics.json"
        assert main(_trace_args(trace_b, seed=1, metrics_out=metrics_b)) == 0
        capsys.readouterr()  # drop the trace output
        assert main(["diff", str(metrics_a), str(metrics_b)]) == 0
        out = capsys.readouterr().out
        assert "scalar stats" in out
        assert "histogram msg_latency" in out

    def test_diff_identical_files(self, traced, capsys):
        _, metrics = traced
        assert main(["diff", str(metrics), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "(identical)" in out

    def test_diff_missing_file_exits_2(self, tmp_path):
        assert main(["diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
