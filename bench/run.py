#!/usr/bin/env python3
"""The repo benchmark: run workloads, print every metric, check outputs.

Two ways in, one file::

    python3 bench/run.py --workload lu32 --seed 3 --seconds 8 --trace 0

measures one workload in this process and ends with one JSON line (the
contract ``BENCHMARK.json`` describes: ``--trace 0`` gives the end-to-end
metrics measured with nothing attached, ``--trace 1`` the per-layer ones
from a separate profiled pass plus the micro tier)::

    python3 bench/run.py [--workload NAME ...] [--profiled] [--out FILE]

runs each chosen workload (default: all eight) that same way, one after
the other, each in a fresh process — so ``peak_rss_mb`` is per workload
and no allocator state leaks — and writes one merged result under
``bench/out/`` for ``bench/compare.py``.

All loops are closed and single-client: one driver process, and only
``sweep24`` ever keeps a second core busy.  Modelled caches start empty
in every workload.  The model is not validated against real DASH
hardware, so no accuracy figure is given.

Timings are the *fastest* of the repeats, not their median.  On this
sandbox the host slows every process down by up to 2x in bursts lasting
from seconds to a minute (``bench/README.md`` has the measurement);
interference only ever adds time, so the fastest repeat is the least
disturbed one, and over back-to-back runs it spread half as wide as the
median of the same repeats.  Every repeat is written to the result file,
so a median can be recomputed from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

#: timed repeats are never fewer than this, whatever ``--seconds`` says
MIN_REPEATS = 3
RESULT_SCHEMA = 1


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units this file must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_block() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def warn_if_loaded(host: Dict[str, Any]) -> None:
    if host["loadavg_1m"] > host["nproc"] - 1:
        print(
            f"warning: 1-min load average {host['loadavg_1m']:.2f} exceeds "
            f"nproc - 1 = {host['nproc'] - 1}; host-time metrics will be noisy",
            file=sys.stderr,
        )


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# -- one workload, in this process ---------------------------------------------


def measure(args: argparse.Namespace, tmp: str) -> Dict[str, Any]:
    """Run one workload here and return its full record."""
    import cProfile

    import e2e
    import layers
    import micro
    import workloads

    (name,) = args.workload
    spec = workloads.build(name, args.seed, args.scale)
    # the per-layer pass runs all of sweep24's points in-process, so that
    # analysis.overhead_share and sim.events are exact rather than scaled
    runner = e2e.Runner(spec, tmp, **({"sweep_stride": 1} if args.trace else {}))
    host = host_block()
    record: Dict[str, Any] = {
        "workload": name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "host": host,
    }
    if args.trace:
        # a plain sample, then the same input again under the profiler
        runner.warm_up()
        plain = runner.sample()
        profiler = cProfile.Profile()
        profiled = runner.sample(profiler)
        events = sum(s.events.events_run for s in plain.systems) or sum(
            n for _, _, n in runner.inproc.values())
        values = layers.workload_layers(
            plain, profiled, events, profiler, str(SRC / "repro"))
        values.update(micro.run(args.scale, tmp, str(SRC)))
        raw: Dict[str, List[float]] = {}
    else:
        runner.warm_up()
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            runner.sample()
            now = time.perf_counter()
            n = len(runner.samples)
            if args.repeats is not None:
                if n >= args.repeats:
                    break
            elif n >= MIN_REPEATS and (now - started) + (now - t0) > args.seconds:
                break
        runner.sample_setup()
        samples = runner.samples
        refs = e2e.total_refs(samples[0].stats)
        raw = {
            "setup_s": [s.setup_s for s in samples] + runner.extra_setup_s,
            "wall_s": [s.wall_s for s in samples],
            "slow_s": [s.slow_s for s in samples],
            "base_s": [s.base_s for s in samples],
        }
        values = {key: min(vals) for key, vals in raw.items()}
        values["slowdown_x"] = values["slow_s"] / values["base_s"]
        values["refs_per_s"] = refs / values["wall_s"]
        values["points_per_s"] = len(spec.sims) / values["wall_s"]
        values["peak_rss_mb"] = peak_rss_mb(children=spec.kind == "sweep")
        raw.update(
            slowdown_x=[s.slow_s / s.base_s for s in samples],
            refs_per_s=[refs / s.wall_s for s in samples],
            points_per_s=[len(spec.sims) / s.wall_s for s in samples],
            peak_rss_mb=[values["peak_rss_mb"]],
        )
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.update_golden:
        golden.setdefault(name, {})[str(args.seed)] = runner.samples[0].digests
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    elif args.scale == "full":  # tiny-scale runs have no golden
        runner.check_golden(golden.get(name, {}).get(str(args.seed)))
    host["loadavg_1m_after"] = os.getloadavg()[0]
    record.update(
        repeats=len(runner.samples), values=values, raw=raw,
        digests=runner.samples[0].digests,
        checks={"attempted": runner.checks.attempted,
                "failed": runner.checks.failed,
                "failures": runner.checks.failures},
    )
    return record


def print_record(record: Dict[str, Any], units: Dict[str, str]) -> None:
    import layers

    values, checks = record["values"], record["checks"]
    n = record["repeats"]
    print(f"== {record['workload']}  seed={record['seed']} scale={record['scale']}"
          f" trace={record['trace']} ==")
    if record["trace"]:
        for line in layers.format_profile(values):
            print(line)
    else:
        print(f"  fastest of {n} timed repeats ({len(record['raw']['setup_s'])} "
              f"set-ups) after one discarded warm-up; every repeat is in the "
              f"result file.  No percentile: none has ten samples beyond it")
    for key in sorted(values):
        if key not in units:
            continue
        note = ""
        if key == "slowdown_x":
            note = (f"   = {values['slow_s']:.4f} s / base "
                    f"{values['base_s']:.4f} s")
        print(f"  {key:<32} {values[key]:>16.6g} {units[key]}{note}")
    share = checks["failed"] / checks["attempted"]
    print(f"  failed_share {share:g} = {checks['failed']} failed / "
          f"{checks['attempted']} checks attempted")
    for failure in checks["failures"]:
        print(f"  FAILED: {failure}")


def leaf(args: argparse.Namespace) -> int:
    spec = declared()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-")
    try:
        record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    warn_if_loaded(record["host"])
    print_record(record, units)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": record["values"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if checks["failed"] == 0 else 1


# -- every workload, each in its own process -------------------------------------


def suite(args: argparse.Namespace) -> int:
    import workloads

    names = args.workload or list(workloads.WHY)
    OUT_DIR.mkdir(exist_ok=True)
    host = host_block()
    warn_if_loaded(host)
    merged: Dict[str, Any] = {
        "schema": RESULT_SCHEMA, "scale": args.scale, "seed": args.seed,
        "host": host, "workloads": {},
    }
    failed = 0
    for name in names:
        entry: Dict[str, Any] = {"values": {}, "raw": {}, "attempted": 0,
                                 "failed": 0, "failures": []}
        for trace in (0, 1) if args.profiled else (0,):
            part = OUT_DIR / f"part-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--scale", args.scale,
                   "--trace", str(trace), "--out", str(part)]
            if args.repeats is not None:
                cmd += ["--repeats", str(args.repeats)]
            if args.update_golden and trace == 0:
                cmd.append("--update-golden")
            code = subprocess.run(cmd).returncode
            if not part.exists():
                print(f"{name}: run exited {code} without a result", file=sys.stderr)
                return 2
            record = json.loads(part.read_text())
            part.unlink()
            entry["values"].update(record["values"])
            entry["raw"].update(record["raw"])
            if trace == 0:
                entry["repeats"] = record["repeats"]
                entry["digests"] = record["digests"]
            for key in ("attempted", "failed"):
                entry[key] += record["checks"][key]
            entry["failures"] += record["checks"]["failures"]
        failed += entry["failed"]
        merged["workloads"][name] = entry
    host["loadavg_1m_after"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else OUT_DIR / time.strftime(
        f"bench-{args.scale}-seed{args.seed}-%Y%m%dT%H%M%S.json")
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    attempted = sum(e["attempted"] for e in merged["workloads"].values())
    print(f"\n{len(names)} workloads, {failed} failed / {attempted} checks "
          f"attempted; result in {out}")
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generator seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget for the timed repeats of a workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="take exactly this many timed repeats instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure ONE workload in this process: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--profiled", action="store_true",
                        help="also make the per-layer pass for each workload")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny = harness self-test sizes (bench/test_bench.py)")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this seed's stats digests in bench/golden.json "
                             "instead of checking against it")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.update_golden and args.scale != "full":
        parser.error("bench/golden.json holds full-scale digests only")
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace measures exactly one --workload")
        return leaf(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
