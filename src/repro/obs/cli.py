"""``repro obs``: capture, summarize, and diff observability data.

Subcommands::

    python -m repro obs trace --app MP3D --scheme Dir4CV4 --out mp3d.json
    python -m repro obs trace --app LU --format jsonl --out lu.jsonl \\
        --metrics-out lu_metrics.json
    python -m repro obs summarize mp3d.json [--strict]
    python -m repro obs diff seed0_metrics.json seed1_metrics.json
    python -m repro obs critical-path mp3d.json --top 5

``trace`` runs one simulation with tracing enabled and writes the trace
(Chrome ``trace_event`` JSON by default — load it at
https://ui.perfetto.dev — or JSONL; add ``--gzip`` to compress), plus
the run's stats-with-metrics JSON when ``--metrics-out`` is given.
``summarize`` tabulates any trace file; with ``--strict`` it also
holds every record to its registry declaration and exits nonzero on a
departure.  ``diff`` compares two metrics JSON files (scalar counters
and latency-histogram buckets).  ``critical-path`` reconstructs the
per-transaction causal chains (request -> directory service ->
invalidation fan-out -> reply) from any trace and reports where the
latency went.  Every reader sniffs and accepts gzipped files.
:func:`add_commands` puts the four under ``repro obs`` in
:func:`repro.cli.build_parser`, whose ``main`` turns an ``OSError`` or
``ValueError`` into ``error: ...`` and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

from repro.analysis.report import format_metrics_report, format_profile, format_table
from repro.cli import add_machine_args, app_factory, machine_from_args
from repro.machine.system import DashSystem
from repro.obs.export import _open_read, export_trace, read_trace
from repro.obs.metrics import histogram_delta, load_metrics_dict
from repro.obs.profiler import profile_run
from repro.obs.registry import EVENTS
from repro.obs.tracer import SPAN, TraceEvent, Tracer


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one app with tracing enabled and export the trace."""
    workload = app_factory(args.app, args.procs, args.scale, args.seed)
    cfg = machine_from_args(args)
    tracer = Tracer(capacity=args.capacity)
    system, stats, prof = profile_run(
        lambda: DashSystem(cfg, workload, obs=tracer),
        tracer=tracer,
        max_events=args.max_events,
    )
    meta = {
        "app": workload.name,
        "scheme": args.scheme,
        "procs": args.procs,
        "seed": args.seed,
    }
    out = args.out
    if args.gzip and not out.endswith(".gz"):
        out += ".gz"
    with prof.phase("export"):
        path = export_trace(
            tracer, out, fmt=args.format, meta=meta,
            compress=True if args.gzip else None,
        )
    print(f"{workload.name} on {args.procs} processors, scheme {args.scheme}")
    print(
        f"wrote {len(tracer):,} events to {path} "
        f"({tracer.emitted:,} emitted, {tracer.dropped:,} dropped)"
    )
    if args.metrics_out:
        payload = stats.to_dict()
        with open(args.metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics to {args.metrics_out}")
    print()
    print(format_profile(prof.to_rows()))
    print()
    print(format_metrics_report(tracer.metrics.to_dict()))
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    """Tabulate one trace file; optionally validate against the registry."""
    events = read_trace(args.trace)
    if not events:
        print(f"{args.trace}: no events")
        return 1 if args.strict else 0
    count: Dict[str, int] = defaultdict(int)
    dur_total: Dict[str, float] = defaultdict(float)
    dur_n: Dict[str, int] = defaultdict(int)
    comps: Dict[str, str] = {}
    t_min = min(ev.ts for ev in events)
    t_max = max(
        ev.ts + (ev.dur or 0.0) if ev.kind == SPAN else ev.ts for ev in events
    )
    for ev in events:
        count[ev.name] += 1
        comps[ev.name] = ev.comp
        if ev.kind == SPAN and ev.dur is not None:
            dur_total[ev.name] += ev.dur
            dur_n[ev.name] += 1
    rows: List[Sequence[object]] = []
    for name in sorted(count):
        n = dur_n.get(name, 0)
        rows.append([
            name,
            comps.get(name, ""),
            count[name],
            round(dur_total[name], 1) if n else "",
            round(dur_total[name] / n, 2) if n else "",
        ])
    print(f"{args.trace}: {len(events):,} events over "
          f"{t_max - t_min:,.0f} cycles")
    print(format_table(
        ["event", "comp", "count", "total dur", "avg dur"], rows
    ))
    if args.strict:
        departures = _departures(events)
        if departures:
            print(f"error: {len(departures)} departure(s) from the registry:",
                  *departures, sep="\n  ", file=sys.stderr)
            return 1
        print("trace valid: every event name is declared in the registry, "
              "with its declared kind, component and fields")
    return 0


def _departures(events: Sequence[TraceEvent]) -> List[str]:
    """Each distinct way a record departs from its ``EVENTS`` declaration,
    naming the event and the field.  Args may leave a declared field out
    and add only the ``point`` that a merged sweep trace puts beside a
    ``txn_id`` (``obs/aggregate.py``)."""
    found = set()
    for ev in events:
        spec = EVENTS.get(ev.name)
        if spec is None:
            found.add(f"event {ev.name!r} is not declared")
            continue
        keys = spec.fields + ("point",) * ("txn_id" in spec.fields)
        found.update(f"event {ev.name!r}, args field {key!r}: not one of "
                     f"{keys}" for key in ev.args or () if key not in keys)
        declared = (("kind", ev.kind, spec.kind), ("comp", ev.comp, spec.comp))
        found.update(f"event {ev.name!r}, field {field!r}: {got!r}, declared "
                     f"{want!r}" for field, got, want in declared if got != want)
    return sorted(found)


def _load_metrics_file(path: str) -> Dict[str, object]:
    """Read a stats-with-metrics JSON (as written by ``trace``), gzipped
    or not."""
    with _open_read(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two runs' metrics files (scalars + histogram buckets)."""
    a = _load_metrics_file(args.a)
    b = _load_metrics_file(args.b)
    scalar_rows: List[Sequence[object]] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        if key == "schema":
            continue
        scalar_rows.append([key, va, vb, vb - va])
    if scalar_rows:
        print(f"scalar stats ({args.a} -> {args.b}):")
        print(format_table(["stat", "a", "b", "delta"], scalar_rows))
    ma = load_metrics_dict(a.get("metrics", {"schema": 1}))  # type: ignore[arg-type]
    mb = load_metrics_dict(b.get("metrics", {"schema": 1}))  # type: ignore[arg-type]
    hists_a: Dict[str, Dict[str, object]] = ma["histograms"]  # type: ignore[assignment]
    hists_b: Dict[str, Dict[str, object]] = mb["histograms"]  # type: ignore[assignment]
    for name in sorted(set(hists_a) | set(hists_b)):
        delta = histogram_delta(
            hists_a.get(name, {"buckets": {}}), hists_b.get(name, {"buckets": {}})
        )
        buckets: Dict[str, int] = delta["buckets"]  # type: ignore[assignment]
        print()
        print(
            f"histogram {name}: count {delta['count']:+d}, "
            f"mean {delta['mean_a']} -> {delta['mean_b']}"
        )
        rows = [
            [f"< {ub}", buckets[ub]]
            for ub in sorted(buckets, key=int)
            if buckets[ub]
        ]
        if rows:
            print(format_table(["bucket", "delta"], rows, indent="  "))
        else:
            print("  (identical)")
    return 0


def cmd_critical_path(args: argparse.Namespace) -> int:
    """Reconstruct causal transaction chains and report phase latency."""
    from repro.analysis.report import format_critical_path
    from repro.obs.causal import reconstruct

    events = read_trace(args.trace)
    if not events:
        print(f"{args.trace}: no events", file=sys.stderr)
        return 1
    chain_set = reconstruct(events)
    print(f"{args.trace}:")
    print(format_critical_path(
        chain_set, top=args.top, histograms=not args.no_histograms
    ))
    return 0 if chain_set.chains else 1


def add_commands(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Add ``trace`` / ``summarize`` / ``diff`` / ``critical-path``."""
    p = sub.add_parser("trace", help="run one app with tracing enabled")
    add_machine_args(p)
    p.add_argument("--app", required=True,
                   help="LU, DWF, MP3D, or LocusRoute")
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument("--format", choices=["chrome", "jsonl"], default="chrome")
    p.add_argument("--metrics-out", default=None,
                   help="also write the run's stats+metrics JSON here")
    p.add_argument("--capacity", type=int, default=1 << 20,
                   help="trace ring-buffer capacity (older events drop)")
    p.add_argument("--max-events", type=int, default=None,
                   help="stop the simulation after this many events")
    p.add_argument("--gzip", action="store_true",
                   help="gzip the trace (appends .gz to --out if missing)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("summarize", help="tabulate a trace file")
    p.add_argument("trace", help="trace file (chrome or jsonl)")
    p.add_argument("--strict", action="store_true",
                   help="fail on records the registry does not declare")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("diff", help="compare two runs' metrics JSON files")
    p.add_argument("a", help="baseline metrics file")
    p.add_argument("b", help="comparison metrics file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "critical-path",
        help="per-transaction phase latency breakdown from a trace",
    )
    p.add_argument("trace", help="trace file (chrome or jsonl, .gz ok)")
    p.add_argument("--top", type=int, default=5,
                   help="how many slowest transactions to expand")
    p.add_argument("--no-histograms", action="store_true",
                   help="skip the per-phase latency histograms")
    p.set_defaults(func=cmd_critical_path)
