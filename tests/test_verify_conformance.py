"""Trace conformance: recorded runs are paths in the protocol model.

Clean traces from the real simulator must conform (the simulator and the
model are the same protocol); a corrupted trace must be rejected with a
diagnostic naming the first divergent event — that asymmetry is the whole
value of the check.
"""

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.verify.cli import main as verify_main
from repro.verify.conformance import (
    check_trace,
    format_conformance_report,
    project_by_block,
)
from repro.obs.tracer import TraceEvent


def _record(tmp_path, fmt="jsonl", scheme="Dir4CV4", procs=8, seed=3,
            **extra):
    """Run a tiny traced MP3D and return the trace path."""
    out = tmp_path / f"t.{fmt}"
    argv = [
        "trace", "--app", "MP3D", "--scheme", scheme,
        "--procs", str(procs), "--scale", "0.05", "--seed", str(seed),
        "--format", fmt, "--out", str(out),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    assert obs_main(argv) == 0
    return out


# -- clean traces conform ----------------------------------------------------


@pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
def test_clean_trace_conforms_in_both_formats(tmp_path, fmt):
    path = _record(tmp_path, fmt=fmt)
    result = check_trace(path)
    assert result.ok, format_conformance_report(result)
    assert result.scheme == "Dir4CV4" and result.num_nodes == 8
    assert result.events > 0 and result.blocks > 0


@pytest.mark.parametrize("scheme", ["full", "Dir2B", "Dir1NB", "DirLL8"])
def test_clean_trace_conforms_across_schemes(tmp_path, scheme):
    result = check_trace(_record(tmp_path, scheme=scheme))
    assert result.ok, format_conformance_report(result)


def test_sparse_trace_conforms_via_recall_repair(tmp_path):
    """Tiny caches + a tiny sparse directory force entry replacements."""
    from repro.cli import app_factory
    from repro.machine.config import MachineConfig
    from repro.machine.system import DashSystem
    from repro.obs.export import export_trace
    from repro.obs.tracer import Tracer

    workload = app_factory("MP3D", 8, 0.3, 5)
    cfg = MachineConfig(
        num_clusters=8, scheme="Dir2CV2", seed=5,
        l1_bytes=256, l2_bytes=512,
        sparse_size_factor=0.1, sparse_assoc=2,
    )
    tracer = Tracer(capacity=1 << 20)
    DashSystem(cfg, workload, obs=tracer).run()
    path = export_trace(
        tracer, tmp_path / "sparse.jsonl", fmt="jsonl",
        meta={"app": "MP3D", "scheme": "Dir2CV2", "procs": 8, "seed": 5},
    )
    result = check_trace(path)
    assert result.ok, format_conformance_report(result)
    assert result.sparse_recalls > 0  # replacements actually exercised


def test_report_mentions_verdict_and_counts(tmp_path):
    result = check_trace(_record(tmp_path))
    text = format_conformance_report(result)
    assert "conforms — every traced sequence is a model path" in text
    assert "events checked" in text


# -- corrupted traces are rejected -------------------------------------------


def _load_jsonl(path):
    lines = path.read_text().splitlines()
    return lines[0], [json.loads(ln) for ln in lines[1:]]


def test_deleted_completion_event_is_named(tmp_path):
    """Dropping a txn.* event desynchronizes its block's sequence."""
    path = _record(tmp_path)
    header, events = _load_jsonl(path)
    victim = next(
        i for i, ev in enumerate(events)
        if ev["name"] in ("txn.read", "txn.write")
    )
    block = events[victim]["args"]["block"]
    del events[victim]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        "\n".join([header] + [json.dumps(ev) for ev in events]) + "\n"
    )
    result = check_trace(bad)
    assert not result.ok
    first = result.first_divergence()
    assert first is not None
    text = first.format()
    assert f"block {block}" in text
    assert "diverged at event" in text
    assert "model allowed" in text


def test_flipped_requester_is_rejected(tmp_path):
    """Pointing a dir.service at the wrong requester breaks the path."""
    path = _record(tmp_path)
    header, events = _load_jsonl(path)
    victim = next(
        ev for ev in events
        if ev["name"] == "dir.service" and ev["args"]["kind"] in
        ("read", "write")
    )
    victim["args"]["requester"] = (victim["args"]["requester"] + 1) % 8
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        "\n".join([header] + [json.dumps(ev) for ev in events]) + "\n"
    )
    result = check_trace(bad)
    assert not result.ok


def test_trace_with_ring_buffer_drops_is_refused(tmp_path):
    path = _record(tmp_path)
    header, events = _load_jsonl(path)
    meta = json.loads(header)
    meta["dropped"] = 17
    bad = tmp_path / "holes.jsonl"
    bad.write_text(
        "\n".join([json.dumps(meta)] + [json.dumps(ev) for ev in events])
        + "\n"
    )
    with pytest.raises(ValueError, match="dropped"):
        check_trace(bad)


def test_trace_without_meta_needs_explicit_config(tmp_path):
    path = _record(tmp_path)
    header, events = _load_jsonl(path)
    meta = json.loads(header)
    del meta["scheme"], meta["procs"]
    bare = tmp_path / "bare.jsonl"
    bare.write_text(
        "\n".join([json.dumps(meta)] + [json.dumps(ev) for ev in events])
        + "\n"
    )
    with pytest.raises(ValueError, match="--scheme"):
        check_trace(bare)
    # explicit overrides make the same file checkable
    assert check_trace(bare, scheme="Dir4CV4", num_nodes=8).ok


# -- projection helpers -------------------------------------------------------


def test_project_by_block_sorts_services_by_execution_start():
    events = [
        TraceEvent("dir.service", 5.0, comp="directory", tid=0,
                   args={"kind": "read", "block": 0, "requester": 1,
                         "t_start": 9.0}),
        TraceEvent("txn.read", 7.0, comp="system", tid=0,
                   args={"block": 0, "requester": 2}),
    ]
    items = project_by_block(events)[0]
    # the service *executes* at t=9 even though its span starts at t=5
    assert [ev.name for _i, ev in items] == ["txn.read", "dir.service"]


def test_project_by_block_rejects_missing_block():
    events = [TraceEvent("txn.read", 1.0, comp="system", tid=0, args={})]
    with pytest.raises(ValueError, match="block"):
        project_by_block(events)


# -- CLI ----------------------------------------------------------------------


def test_conform_cli_exits_zero_on_clean_trace(tmp_path, capsys):
    path = _record(tmp_path)
    stats = tmp_path / "stats.json"
    assert verify_main(["conform", str(path), "--stats", str(stats)]) == 0
    out = capsys.readouterr().out
    assert "conforms" in out
    payload = json.loads(stats.read_text())
    assert payload["verdict"] == "ok"


def test_conform_cli_exits_one_on_divergence(tmp_path, capsys):
    path = _record(tmp_path)
    header, events = _load_jsonl(path)
    events = [
        ev for ev in events
        if ev["name"] not in ("txn.read", "txn.write")
    ]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        "\n".join([header] + [json.dumps(ev) for ev in events]) + "\n"
    )
    assert verify_main(["conform", str(bad)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_conform_cli_exits_two_on_missing_file(tmp_path, capsys):
    assert verify_main(["conform", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err
