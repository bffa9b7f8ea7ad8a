"""Command-line interface: the one ``repro`` argument tree.

Subcommands::

    python -m repro run --app LU --scheme Dir3CV2 --procs 32
    python -m repro sweep --app LU --axis scheme=full,Dir3CV2 --jobs 4
    python -m repro ckpt inspect run.ckpt
    python -m repro dump-trace --app MP3D --out mp3d.trace
    python -m repro replay --trace mp3d.trace --scheme Dir3B
    python -m repro profile --app MP3D --events 50000
    python -m repro obs trace --app MP3D --out mp3d.json
    python -m repro verify check --scheme full -n 3

Applications accept ``--scale`` to grow/shrink the default problem
size.  All simulations print the message breakdown and invalidation
statistics the paper reports; the paper's tables and figures come from
the ``benchmarks/`` scripts.  Any subcommand that fails with an
``OSError`` or ``ValueError`` (an unknown scheme, a missing file)
prints ``error: ...`` and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import format_histogram
from repro.apps import DWFWorkload, LocusRouteWorkload, LUWorkload, MP3DWorkload
from repro.machine import DashSystem, MachineConfig, run_workload
from repro.machine.checkpoint import CheckpointError
from repro.trace import Workload
from repro.trace.recorder import ReplayWorkload, dump_trace


def app_factory(name: str, procs: int, scale: float, seed: int) -> Workload:
    """Build a named application scaled around its default size."""
    key = name.lower()
    if key == "lu":
        return LUWorkload(procs, matrix_n=max(4, int(48 * scale)), seed=seed)
    if key == "dwf":
        return DWFWorkload(
            procs,
            pattern_len=max(procs, int(2 * procs * scale)),
            library_len=max(16, int(128 * scale)),
            seed=seed,
        )
    if key == "mp3d":
        return MP3DWorkload(
            procs,
            num_particles=max(procs, int(16 * procs * scale)),
            steps=max(1, int(4 * scale)),
            seed=seed,
        )
    if key == "locusroute":
        regions = 8 if procs >= 8 else max(1, procs)
        cols = 16 * regions
        return LocusRouteWorkload(
            procs,
            grid_cols=cols,
            grid_rows=16,
            num_regions=regions,
            wires_per_region=max(2, int(16 * scale)),
            seed=seed,
        )
    raise SystemExit(
        f"unknown application {name!r}; choose LU, DWF, MP3D, or LocusRoute"
    )


def machine_from_args(args, scheme: Optional[str] = None) -> MachineConfig:
    """The machine :func:`add_machine_args`' flags describe (``scheme``
    overrides ``--scheme``)."""
    return MachineConfig(
        num_clusters=args.procs,
        scheme=scheme or args.scheme,
        l1_bytes=args.l1_bytes,
        l2_bytes=args.l2_bytes,
        sparse_size_factor=args.sparse,
        sparse_assoc=args.sparse_assoc,
        sparse_policy=args.sparse_policy,
        seed=args.seed,
    )


def _print_stats(stats, checker=None) -> None:
    print(f"execution time      : {stats.exec_time:,.0f} cycles")
    print(f"total messages      : {stats.total_messages:,}")
    for kind, count in stats.traffic_breakdown().items():
        print(f"  {kind:10s}        : {count:,}")
    print(f"invalidation events : {stats.invalidation_events():,}")
    print(f"avg invals per event: {stats.avg_invals_per_event:.2f}")
    if stats.sparse_replacements:
        print(f"sparse replacements : {stats.sparse_replacements:,}")
    if stats.faults_injected or stats.fault_retries:
        print(f"faults injected     : {stats.faults_injected:,} "
              f"(drop={stats.fault_drops} dup={stats.fault_duplicates} "
              f"delay={stats.fault_delays} nak={stats.fault_naks} "
              f"corrupt={stats.fault_corruptions})")
        print(f"request retries     : {stats.fault_retries:,}")
    if stats.invariant_violations:
        print(f"invariant violations: {stats.invariant_violations:,}")
    if checker is not None:
        print("invariant checker   : "
              f"blocks_checked={checker.blocks_checked:,} "
              f"checks_run={checker.checks_run:,} "
              f"inval_rounds={checker.inval_rounds:,} "
              f"violations={len(checker.violations):,}")


def _simulate(args, config, workload, meta, ckpt=None):
    """Build the machine ``meta`` describes, restore ``ckpt`` into it if
    given, and run it to completion under ``--checkpoint-to`` /
    ``--checkpoint-interval`` (``run`` and ``ckpt resume`` alike)."""
    if args.checkpoint_to is not None and args.checkpoint_interval is None:
        raise SystemExit("--checkpoint-to needs --checkpoint-interval N")
    if args.checkpoint_interval is not None and args.checkpoint_to is None:
        raise SystemExit("--checkpoint-interval needs --checkpoint-to PATH")
    strict = bool(meta.get("strict"))
    system = DashSystem(
        config, workload, strict=strict, faults=meta.get("faults"),
        invariants="strict" if strict else None,
    )
    if ckpt is not None:
        try:
            system.restore(ckpt)
        except CheckpointError as exc:
            raise SystemExit(f"cannot resume: {exc}")
        header = ckpt.header
        print(f"resuming {workload.name} on {config.num_processors} "
              f"processors, scheme {header.get('scheme')} "
              f"(at {header['events_run']:,} events, t={header['now']:,.0f})")
    stats = system.run(
        checkpoint_path=args.checkpoint_to,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_meta=meta if args.checkpoint_to is not None else None,
    )
    return system, stats


def cmd_run(args) -> int:
    """``repro run``: one app under one scheme, stats printed."""
    workload = app_factory(args.app, args.procs, args.scale, args.seed)
    # everything `repro ckpt resume` needs to rebuild this run
    meta = {
        "app": args.app, "procs": args.procs, "scale": args.scale,
        "seed": args.seed, "faults": args.faults, "strict": args.strict,
    }
    system, stats = _simulate(args, machine_from_args(args), workload, meta)
    if args.check:
        system.check_coherence()
    print(f"{workload.name} on {args.procs} processors, scheme {args.scheme}")
    _print_stats(stats, system.invariants)
    if args.histogram:
        print("\ninvalidation distribution:")
        print(format_histogram(stats.inval_distribution()))
    return 0


def _axis_value(token: str):
    """Parse one axis value: int, float, bool, None, or bare string."""
    lowered = token.lower()
    if lowered == "none":
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def cmd_sweep(args) -> int:
    """``repro sweep``: a config-axis grid — parallel, cached, supervised."""
    from repro.analysis.cache import ResultCache, default_cache_dir, point_key
    from repro.analysis.supervisor import (
        ChaosPlan,
        SupervisorPolicy,
        SweepInterrupted,
        SweepReport,
        checkpoint_file,
        sweep_key,
    )
    from repro.analysis.sweeps import Sweep

    sweep = Sweep(
        machine_from_args(args),
        lambda: app_factory(args.app, args.procs, args.scale, args.seed),
        check_coherence=args.check,
    )
    for spec in args.axis:
        name, _, values = spec.partition("=")
        if not values:
            raise SystemExit(
                f"bad --axis {spec!r}; expected FIELD=V1,V2,..."
            )
        try:
            sweep.add_axis(name, [_axis_value(v) for v in values.split(",")])
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad --axis {spec!r}: {exc}")
    cache = None
    if not args.no_cache:
        root = args.cache_dir or default_cache_dir()
        if root:
            cache = ResultCache(root)

    # supervision: any resilience flag opts the sweep into the
    # supervised (forked, liveness-monitored) execution path
    if args.chaos_midkill and args.chaos is None:
        raise SystemExit("--chaos-midkill needs --chaos SEED")
    chaos = None
    if args.chaos is not None:
        chaos = ChaosPlan(seed=args.chaos, midkill=args.chaos_midkill)
    supervise = (
        chaos is not None or args.timeout is not None
        or args.retries is not None or args.keep_going or args.resume
        or args.ckpt_interval is not None
    )
    policy = None
    if supervise:
        timeout = args.timeout
        if timeout is None and chaos is not None:
            timeout = 30.0  # chaos injects hung points; they must be reaped
        policy = SupervisorPolicy(
            timeout=timeout,
            max_retries=args.retries if args.retries is not None else 3,
            retry_errors=chaos is not None,
            keep_going=args.keep_going,
            chaos=chaos,
        )
    report = SweepReport() if (supervise or args.report) else None

    if args.resume and cache is None:
        raise SystemExit(
            "--resume needs a result cache; pass --cache-dir DIR "
            "(or set $REPRO_CACHE_DIR) and drop --no-cache"
        )
    # per-point crash-consistent snapshots live in --ckpt-dir, or under
    # the cache in a directory named by the sweep's identity, so a rerun
    # of the same grid finds the ones an interrupted run left behind
    snapshots = args.ckpt_dir
    if cache is not None and (
        args.resume or (args.ckpt_interval is not None and not snapshots)
    ):
        keys = [
            point_key(s.config, s.workload_factory(), check=s.check)
            for s in sweep.specs()
        ]
        grid_key = sweep_key(keys)
        if not snapshots:
            snapshots = str(cache.root / "checkpoints" / grid_key[:24])
        if args.resume:
            # what is already durable says how far the sweep got
            pending = [i for i, key in enumerate(keys) if key not in cache]
            resumable = sum(
                checkpoint_file(snapshots, i).exists() for i in pending
            )
            line = (f"resuming sweep {grid_key[:12]}: "
                    f"{len(keys) - len(pending)}/{len(keys)} points done, "
                    f"{len(pending)} pending")
            if resumable:
                line += (f" ({resumable} resumable from mid-run "
                         f"checkpoints)")
            print(line)
    checkpoint_dir = None
    if args.ckpt_interval is not None:
        if not snapshots:
            raise SystemExit(
                "--ckpt-interval needs --ckpt-dir DIR (or an enabled "
                "result cache to place checkpoints under)"
            )
        checkpoint_dir = snapshots
    elif args.ckpt_dir:
        raise SystemExit("--ckpt-dir needs --ckpt-interval N")
    if chaos is not None and chaos.midkill and checkpoint_dir is None:
        print("note: --chaos-midkill without --ckpt-interval degrades to "
              "plain mid-point kills (no snapshots to resume from)")

    aggregate = None
    if args.obs_out:
        from repro.obs.aggregate import SweepAggregator

        aggregate = SweepAggregator()

    def _write_aggregate() -> None:
        assert aggregate is not None
        paths = aggregate.write(
            args.obs_out,
            meta={"app": args.app, "procs": args.procs},
            compress=args.gzip,
        )
        print(f"\n[obs] merged {len(aggregate.points)} points from "
              f"{aggregate.workers} workers ({aggregate.emitted:,} events, "
              f"{aggregate.dropped:,} dropped from worker rings)")
        for kind in ("trace", "summary", "metrics"):
            print(f"  {kind:7s}: {paths[kind]}")

    progress = None
    if args.progress:
        total = len(sweep.grid())

        def progress(overrides, stats, _counter=[0]):
            _counter[0] += 1
            label = ",".join(f"{k}={v}" for k, v in overrides.items())
            print(f"[{_counter[0]}/{total}] {label}: "
                  f"t={stats.exec_time:,.0f} msgs={stats.total_messages:,}")

    try:
        results = sweep.run(
            jobs=args.jobs, cache=cache, progress=progress,
            policy=policy, report=report,
            aggregate=aggregate,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=args.ckpt_interval,
        )
    except SweepInterrupted as exc:
        print(f"\n{exc}")
        if report is not None and args.report:
            report.save(args.report)
            print(f"wrote {args.report}")
        if aggregate is not None and aggregate.points:
            _write_aggregate()  # keep the telemetry that did arrive
        if cache is not None:
            print("rerun with --resume to execute only the missing points")
        return 130
    metrics = [m for m in args.metrics.split(",") if m]
    print(f"{args.app} on {args.procs} processors, "
          f"{len(results)} grid points (jobs={args.jobs}):")
    print(results.table(metrics))
    if report is not None:
        print(f"\n[{report.summary()}]")
        for outcome in report.quarantined:
            print(f"  quarantined [{outcome.index}] {outcome.label}: "
                  f"{outcome.error}")
        if args.report:
            report.save(args.report)
            print(f"wrote {args.report}")
    if cache is not None:
        print(f"\n[{cache.summary()}]")
    if aggregate is not None:
        _write_aggregate()
    return 0


def cmd_ckpt(args) -> int:
    """``repro ckpt``: inspect, verify, or resume a machine snapshot."""
    import json

    from repro.machine.checkpoint import (
        load_checkpoint,
        read_header,
        verify_checkpoint,
    )

    if args.ckpt_cmd == "inspect":
        header = read_header(args.path)
        meta = header.get("meta") or {}
        print(f"checkpoint          : {args.path}")
        print(f"schema              : {header['schema']}")
        print(f"workload            : {header.get('workload')}"
              + (f" (app={meta['app']})" if "app" in meta else ""))
        print(f"scheme              : {header.get('scheme')}")
        print(f"simulated time      : {header.get('now'):,.0f} cycles")
        print(f"events run          : {header.get('events_run'):,}")
        print(f"events pending      : {header.get('events_pending'):,}")
        print(f"payload             : {header.get('payload_bytes'):,} bytes "
              f"(sha256 {header.get('payload_sha256', '')[:12]}...)")
        print(f"code fingerprint    : "
              f"{header.get('code_fingerprint', '')[:12]}...")
        if args.config:
            print("config:")
            print(json.dumps(header.get("config"), indent=2, sort_keys=True))
        return 0

    if args.ckpt_cmd == "verify":
        try:
            header = verify_checkpoint(args.path)
        except CheckpointError as exc:
            print(f"FAIL: {exc}")
            return 1
        if not header["fingerprint_match"]:
            print(f"STALE: {args.path} is internally consistent but was "
                  f"written by a different build "
                  f"({header.get('code_fingerprint', '')[:12]}...); "
                  f"this build cannot resume it")
            return 1
        print(f"OK: {args.path} ({header['events_run']:,} events run, "
              f"{header['payload_bytes']:,} payload bytes, integrity and "
              f"fingerprint verified)")
        return 0

    # resume: rebuild the machine recorded in the header and run to
    # completion, continuing the restored event queue mid-run
    try:
        ckpt = load_checkpoint(args.path)
    except CheckpointError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    header = ckpt.header
    meta = header.get("meta") or {}
    if "app" not in meta:
        raise SystemExit(
            "cannot resume: checkpoint carries no application metadata "
            "(it was not written by `repro run --checkpoint-to`); restore "
            "it programmatically with repro.machine.checkpoint instead"
        )
    workload = app_factory(
        meta["app"], meta["procs"], meta["scale"], meta["seed"]
    )
    system, stats = _simulate(
        args, MachineConfig(**header["config"]), workload, meta, ckpt
    )
    _print_stats(stats, system.invariants)
    return 0


def cmd_dump_trace(args) -> int:
    """``repro dump-trace``: write an app's reference trace to a file."""
    workload = app_factory(args.app, args.procs, args.scale, args.seed)
    ops = dump_trace(workload, args.out)
    print(f"wrote {ops:,} ops for {workload.num_processors} processors "
          f"to {args.out}")
    return 0


def cmd_replay(args) -> int:
    """``repro replay``: simulate a previously dumped trace."""
    workload = ReplayWorkload(args.trace)
    cfg = MachineConfig(
        num_clusters=workload.num_processors,
        scheme=args.scheme,
        block_bytes=workload.block_bytes,
        seed=args.seed,
    )
    stats = run_workload(cfg, workload)
    print(f"replayed {args.trace} under {args.scheme}")
    _print_stats(stats)
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: cProfile the hot loop of one simulation.

    Builds the machine and workload *outside* the profiled region, so the
    report shows only the simulation loop — the part the throughput
    benchmark measures and the perf CI gate protects.
    """
    import cProfile
    import pstats

    workload = app_factory(args.app, args.procs, args.scale, args.seed)
    system = DashSystem(machine_from_args(args), workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(max_events=args.events)
    profiler.disable()
    events = system.events.events_run
    print(f"{workload.name} on {args.procs} processors, scheme "
          f"{args.scheme}: {events:,} events")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote profile data to {args.out} "
              f"(inspect with: python -m pstats {args.out})")
    return 0


def add_machine_args(p: argparse.ArgumentParser) -> None:
    """The flags every simulating subcommand shares (``repro obs trace``
    included); :func:`machine_from_args` reads them back."""
    p.add_argument("--procs", type=int, default=32, help="processors (= clusters)")
    p.add_argument("--scheme", default="full", help="directory scheme name")
    p.add_argument("--scale", type=float, default=1.0, help="problem-size scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l1-bytes", type=int, default=64 * 1024)
    p.add_argument("--l2-bytes", type=int, default=256 * 1024)
    p.add_argument("--sparse", type=float, default=None,
                   help="sparse directory size factor (omit for full map)")
    p.add_argument("--sparse-assoc", type=int, default=4)
    p.add_argument("--sparse-policy", default="random",
                   choices=["lru", "lra", "random"])


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one app under one scheme")
    add_machine_args(p)
    p.add_argument("--app", required=True)
    p.add_argument("--check", action="store_true",
                   help="verify coherence invariants after the run")
    p.add_argument("--strict", action="store_true",
                   help="audit the blocks each transaction disturbed as "
                        "it completes (plus a final whole-machine sweep) "
                        "and raise on the first violation")
    p.add_argument("--faults", type=int, default=None, metavar="SEED",
                   help="inject seeded network/directory faults "
                        "(deterministic per seed)")
    p.add_argument("--checkpoint-to", default=None, metavar="PATH",
                   help="write a crash-consistent snapshot to PATH every "
                        "--checkpoint-interval events")
    p.add_argument("--checkpoint-interval", type=int, default=None,
                   metavar="N",
                   help="snapshot period in simulated events "
                        "(with --checkpoint-to)")
    p.add_argument("--histogram", action="store_true",
                   help="print the invalidation distribution")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep", help="run a config-axis grid, optionally parallel and cached"
    )
    add_machine_args(p)
    p.add_argument("--app", required=True)
    p.add_argument(
        "--axis", action="append", required=True, metavar="FIELD=V1,V2,...",
        help="config field to sweep (repeatable); values are parsed as "
             "int/float/bool/none when possible",
    )
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="simulate up to N grid points in parallel")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache "
                        "(default: $REPRO_CACHE_DIR when set)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--check", action="store_true",
                   help="verify coherence invariants after every point")
    p.add_argument("--progress", action="store_true",
                   help="print one line per completed grid point")
    p.add_argument("--metrics",
                   default="exec_time,total_messages,invalidation_events",
                   help="comma-separated stat columns for the table")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-point wall-clock timeout; a hung worker is "
                        "killed and the point retried")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="failed attempts a point may accrue before it is "
                        "permanent (default 3 when supervising)")
    p.add_argument("--keep-going", action="store_true",
                   help="quarantine points that exhaust their retries and "
                        "finish the sweep instead of raising")
    p.add_argument("--resume", action="store_true",
                   help="rerun an interrupted sweep, executing only points "
                        "the cache does not already hold "
                        "(requires a cache)")
    p.add_argument("--ckpt-interval", type=int, default=None, metavar="N",
                   help="per-point crash-consistent snapshots every N "
                        "simulated events; killed/timed-out points resume "
                        "mid-run instead of restarting")
    p.add_argument("--ckpt-dir", default=None, metavar="DIR",
                   help="where per-point snapshots live (default: under "
                        "the result cache)")
    p.add_argument("--chaos-midkill", type=float, default=0.0, metavar="P",
                   help="chaos mode: also SIGKILL workers right after "
                        "their first snapshot with probability P, forcing "
                        "the checkpoint-resume path")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="chaos harness: deterministically SIGKILL workers "
                        "and inject hung/failing points; results must "
                        "match a fault-free run")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the per-point SweepReport JSON here")
    p.add_argument("--obs-out", default=None, metavar="DIR",
                   help="trace every point (serial or forked workers) and "
                        "write one merged Perfetto trace plus summary and "
                        "metrics JSON under DIR")
    p.add_argument("--gzip", action="store_true",
                   help="gzip the merged --obs-out trace")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "ckpt", help="inspect, verify, or resume machine snapshots"
    )
    ckpt_sub = p.add_subparsers(dest="ckpt_cmd", required=True)
    q = ckpt_sub.add_parser("inspect", help="print a snapshot's header")
    q.add_argument("path")
    q.add_argument("--config", action="store_true",
                   help="also dump the full machine config")
    q.set_defaults(func=cmd_ckpt)
    q = ckpt_sub.add_parser(
        "verify", help="integrity- and fingerprint-check a snapshot"
    )
    q.add_argument("path")
    q.set_defaults(func=cmd_ckpt)
    q = ckpt_sub.add_parser(
        "resume", help="continue an interrupted `repro run` from a snapshot"
    )
    q.add_argument("path")
    q.add_argument("--checkpoint-to", default=None, metavar="PATH",
                   help="keep snapshotting the resumed run to PATH")
    q.add_argument("--checkpoint-interval", type=int, default=None,
                   metavar="N", help="snapshot period for --checkpoint-to")
    q.set_defaults(func=cmd_ckpt)

    p = sub.add_parser("dump-trace", help="write an app's trace to a file")
    add_machine_args(p)
    p.add_argument("--app", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_trace)

    p = sub.add_parser("replay", help="simulate a dumped trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--scheme", default="full")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "profile", help="cProfile one simulation's hot loop (pstats report)"
    )
    add_machine_args(p)
    p.add_argument("--app", required=True)
    p.add_argument("--events", type=int, default=None, metavar="N",
                   help="stop after N events (default: run to completion)")
    p.add_argument("--top", type=int, default=25, metavar="K",
                   help="rows of the pstats report to print")
    p.add_argument("--sort", default="tottime",
                   choices=["tottime", "cumtime", "ncalls"],
                   help="pstats sort key")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also dump raw profile data for python -m pstats")
    p.set_defaults(func=cmd_profile)

    # `repro obs` and `repro verify` keep their handlers beside what they
    # drive; imported here because both read this module's machine flags
    from repro.obs import cli as obs_cli
    from repro.verify import cli as verify_cli

    for name, group, text in (
        ("obs", obs_cli, "structured tracing, trace summaries, metrics diffs"),
        ("verify", verify_cli, "model-check schemes, check traces, lint sources"),
    ):
        p = sub.add_parser(
            name, help=text, description=group.__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        group.add_commands(p.add_subparsers(dest=f"{name}_cmd", required=True))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error policy of every subcommand: an ``OSError`` or
    ``ValueError`` prints ``error: ...`` on stderr and exits 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:  # output piped into head/less and closed
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
