"""Per-layer metrics a workload yields: simulated counts and profiled self time.

A *layer* is a module (or a few) under ``src/repro/``.  The profiled
pass runs the workload's timed unit once under ``cProfile`` — switched on
from this side of the call, nothing in ``src/`` knows — and rolls each
function's ``tottime`` (its duration minus its callees': self time) and
call count up by the source file it lives in.  ``cProfile`` taxes every
Python call and no C one, so the shares lean towards call-heavy code;
``profile.overhead_x`` says by how much the run as a whole was stretched.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from e2e import Sample, total_refs

#: layers in ledger order; ``other`` is the stdlib, builtins and bench/
LAYERS = (
    "events", "processor", "cache", "directory", "network", "stats", "sync",
    "system", "core.schemes", "core.sparse", "apps", "obs", "checkpoint",
    "invariants", "analysis", "other",
)

#: path under ``src/repro/`` (a file, or a directory ending in ``/``) ->
#: layer; the longest match wins.  Every file must match something —
#: ``bench/test_bench.py`` enforces it — so a new module cannot land in
#: ``other`` without someone writing that down here.
LAYER_OF: Dict[str, str] = {
    "machine/events.py": "events",
    "machine/processor.py": "processor",
    "machine/cache.py": "cache",
    "machine/cluster.py": "cache",
    "machine/directory.py": "directory",
    "machine/messages.py": "directory",
    "machine/network.py": "network",
    "machine/faults.py": "network",
    "machine/stats.py": "stats",
    "machine/sync.py": "sync",
    "machine/system.py": "system",
    "machine/config.py": "system",
    "machine/__init__.py": "system",
    "machine/checkpoint.py": "checkpoint",
    "machine/invariants.py": "invariants",
    "core/": "core.schemes",
    "core/sparse.py": "core.sparse",
    "core/replacement.py": "core.sparse",
    "apps/": "apps",
    "trace/": "apps",
    "obs/": "obs",
    "analysis/": "analysis",
    # never on a workload's timed path: the model checker has its own
    # micro metric, the CLIs and package markers do no work
    "verify/": "other",
    "cli.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
}


def layer_of(relpath: str) -> Optional[str]:
    """The layer of a path relative to ``src/repro/``; None if unmapped."""
    relpath = relpath.replace(os.sep, "/")
    best: Optional[str] = None
    for prefix in LAYER_OF:
        matches = relpath.startswith(prefix) if prefix.endswith("/") else relpath == prefix
        if matches and (best is None or len(prefix) > len(best)):
            best = prefix
    return LAYER_OF[best] if best is not None else None


def roll_up(profiler: Any, package_dir: str) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` from a finished ``cProfile`` run."""
    package_dir = os.path.join(os.path.realpath(package_dir), "")
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for entry in profiler.getstats():
        layer = "other"
        code = entry.code
        if not isinstance(code, str):  # builtins come as their repr
            path = os.path.realpath(code.co_filename)
            if path.startswith(package_dir):
                layer = layer_of(path[len(package_dir):]) or "other"
        totals[layer][0] += entry.inlinetime
        totals[layer][1] += entry.callcount
    return {layer: (t, n) for layer, (t, n) in totals.items()}


def sim_counts(sample: Sample, events: int) -> Dict[str, float]:
    """The exact simulated counts of one sample (``sim.*``)."""
    stats = sample.stats
    refs = total_refs(stats)
    msgs = sum(s.total_messages for s in stats)
    hits = sum(s.l1_hits + s.l2_hits for s in stats)
    return {
        "sim.refs": refs,
        "sim.events": events,
        "sim.cycles": sum(s.exec_time for s in stats),
        "sim.msgs": msgs,
        "sim.invalidations": sum(s.invalidations for s in stats),
        "sim.remote_misses": sum(s.remote_misses for s in stats),
        "sim.sparse_replacements": sum(s.sparse_replacements for s in stats),
        "sim.hit_ratio": hits / refs,
        "sim.events_per_ref": events / refs,
        "sim.msgs_per_ref": msgs / refs,
    }


def workload_layers(
    plain: Sample, profiled: Sample, events: int, profiler: Any, package_dir: str,
) -> Dict[str, float]:
    """Every workload-derived layer metric, by name.

    ``plain`` ran with the profiler off and ``profiled`` with it on, both
    over the same input; ``events`` is the simulated event count of that
    input.  Layers a workload never enters read 0.
    """
    out: Dict[str, float] = {
        "obs.events_recorded": 0, "invariants.sweeps": 0,
        "analysis.warm_ms_per_point": 0.0, "analysis.overhead_share": 0.0,
    }
    out.update(plain.derived)
    out.update(sim_counts(plain, events))
    out["events.events_per_s"] = events / plain.wall_s
    rolled = roll_up(profiler, package_dir)
    for layer, (self_s, calls) in rolled.items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = calls
    out["profile.overhead_x"] = profiled.wall_s / plain.wall_s
    out["profile.wall_s"] = profiled.wall_s
    return out


def format_profile(layers: Dict[str, float]) -> List[str]:
    """The profiled pass as a table: one line per layer, largest first."""
    total = sum(layers[f"{name}.self_s"] for name in LAYERS)
    lines = [
        f"  profiled wall {layers['profile.wall_s']:.3f} s = "
        f"{layers['profile.overhead_x']:.2f}x the unprofiled run; "
        f"self time sums to {total:.3f} s",
    ]
    for name in sorted(LAYERS, key=lambda n: -layers[f"{n}.self_s"]):
        self_s = layers[f"{name}.self_s"]
        lines.append(
            f"    {name:<13} {self_s:8.3f} s {100 * self_s / total:5.1f} %"
            f" {int(layers[f'{name}.calls']):>9} calls"
        )
    return lines
