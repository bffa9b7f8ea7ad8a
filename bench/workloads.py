"""The benchmark's eight workloads, with every parameter pinned here.

Nothing is imported from ``benchmarks/`` (the figure scripts stay free
to change): a workload's size is part of the benchmark, so it lives in
this file.  ``--seed`` feeds the application RNGs and
``MachineConfig.seed``; the simulator receives only the generated
:class:`Sim` objects.  LU has no randomness, so ``lu32`` is the same
input at every seed.

The ``tiny`` scale exists for ``bench/test_bench.py``: same shapes, a
few hundred events each, so the harness can be exercised in seconds.
Results at that scale are stamped and never compared with full ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

from repro.apps import DWFWorkload, LocusRouteWorkload, LUWorkload, MP3DWorkload
from repro.machine.config import MachineConfig
from repro.trace.workload import Workload

SCALES = ("full", "tiny")

#: worker processes for ``sweep24`` — the sandbox has two cores, and no
#: other workload uses more than one
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Sim:
    """One simulation: a machine and the recipe for its workload."""

    name: str
    config: MachineConfig
    workload: Callable[[], Workload]


@dataclass(frozen=True)
class Spec:
    """One benchmark workload.

    ``kind`` selects the timed unit (see ``bench/e2e.py``): ``plain``
    runs every sim with nothing attached; ``traced`` / ``ckpt`` /
    ``strict`` time the one sim with that feature on against its plain
    run; ``sweep`` hands all sims to ``run_points`` as one grid.
    """

    name: str
    kind: str
    sims: Tuple[Sim, ...]
    #: events between snapshots (``ckpt`` only)
    ckpt_interval: int = 0


#: one line per workload: why it is in the benchmark (also BENCHMARK.json)
WHY: Dict[str, str] = {
    "lu32": "hit-heavy LU on 32 clusters: event kernel, processor, cache and "
            "stream generation dominate; a directory change barely moves it",
    "comm32": "MP3D then LocusRoute on 32 clusters, 1.1 msgs/ref: directory "
              "controller, scheme entries and invalidations dominate",
    "sparse32": "DWF on the scaled machine with a sparse directory: set lookup, "
                "victim choice and replacement recalls that full-map runs bypass",
    "scale256": "MP3D on 256 clusters with Dir3CV8: 256-bit masks, wide fan-out "
                "and the O(n^2) leg table, so set-up is as large as the run",
    "traced32": "comm32's MP3D with a Tracer attached against its plain run: "
                "repro.obs cost, bypassed by every other workload",
    "ckpt32": "the same MP3D snapshotting every 50k events against its plain "
              "run: checkpoint capture, pickle, sha, fsync and restore",
    "strict8": "720-event MP3D with invariants=strict against its plain run: "
               "the full-machine invariant sweep per transaction",
    "sweep24": "24-point scheme x sparsity grid through run_points at jobs=2 "
               "with a cold then warm cache: fork, pipe, pickle, cache overhead",
}

#: every size in the benchmark; ``tiny`` mirrors ``full`` key for key
_SIZES = {
    "full": dict(
        n=32,
        lu=dict(matrix_n=64),
        mp3d=dict(num_particles=4096, space_cells=96, steps=6),
        locus=dict(grid_cols=160, grid_rows=16, num_regions=8,
                   wires_per_region=120),
        dwf=dict(pattern_len=64, library_len=384, col_block=32),
        scale_n=256,
        scale_mp3d=dict(num_particles=6144, space_cells=96, steps=2),
        ckpt_interval=50_000,
        small_n=8,
        strict_mp3d=dict(num_particles=64, steps=1),
        sweep_mp3d=dict(num_particles=256, steps=2),
        sweep_schemes=("full", "Dir3B", "Dir3NB", "Dir3CV2", "Dir2B", "Dir1NB"),
        sweep_factors=(None, 1.0, 2.0, 4.0),
    ),
    "tiny": dict(
        n=4,
        lu=dict(matrix_n=10),
        mp3d=dict(num_particles=64, space_cells=16, steps=2),
        locus=dict(grid_cols=16, grid_rows=4, num_regions=2,
                   wires_per_region=6),
        dwf=dict(pattern_len=8, library_len=32, col_block=8),
        scale_n=16,
        scale_mp3d=dict(num_particles=64, space_cells=16, steps=1),
        ckpt_interval=300,
        small_n=2,
        strict_mp3d=dict(num_particles=8, steps=1),
        sweep_mp3d=dict(num_particles=16, steps=1),
        sweep_schemes=("full", "Dir1NB"),
        sweep_factors=(None, 1.0),
    ),
}


def _machine(n: int, seed: int, scheme: str = "Dir3CV2", **fields) -> MachineConfig:
    return MachineConfig(
        num_clusters=n, procs_per_cluster=1, block_bytes=16, scheme=scheme,
        seed=seed, **fields,
    )


def build(name: str, seed: int = 0, scale: str = "full") -> Spec:
    """The :class:`Spec` for workload ``name`` at ``seed``."""
    size = _SIZES[scale]
    n = size["n"]
    mp3d32 = Sim("mp3d", _machine(n, seed),
                 partial(MP3DWorkload, n, seed=seed, **size["mp3d"]))
    if name == "lu32":
        sims = (Sim("lu", _machine(n, seed),
                    partial(LUWorkload, n, seed=seed, **size["lu"])),)
        return Spec(name, "plain", sims)
    if name == "comm32":
        locus = Sim("locusroute", _machine(n, seed),
                    partial(LocusRouteWorkload, n, seed=seed, **size["locus"]))
        return Spec(name, "plain", (mp3d32, locus))
    if name == "sparse32":
        # the section 6.3 scaled machine: caches small enough that the
        # sparse directory actually replaces entries
        cfg = _machine(n, seed, l1_bytes=128, l2_bytes=256,
                       sparse_size_factor=1.0, sparse_assoc=4,
                       sparse_policy="random")
        return Spec(name, "plain", (
            Sim("dwf", cfg, partial(DWFWorkload, n, seed=seed, **size["dwf"])),
        ))
    if name == "scale256":
        big = size["scale_n"]
        return Spec(name, "plain", (
            Sim("mp3d", _machine(big, seed, scheme="Dir3CV8"),
                partial(MP3DWorkload, big, seed=seed, **size["scale_mp3d"])),
        ))
    if name == "traced32":
        return Spec(name, "traced", (mp3d32,))
    if name == "ckpt32":
        return Spec(name, "ckpt", (mp3d32,), ckpt_interval=size["ckpt_interval"])
    small = size["small_n"]
    if name == "strict8":
        return Spec(name, "strict", (
            Sim("mp3d", _machine(small, seed),
                partial(MP3DWorkload, small, seed=seed, **size["strict_mp3d"])),
        ))
    if name == "sweep24":
        make = partial(MP3DWorkload, small, seed=seed, **size["sweep_mp3d"])
        return Spec(name, "sweep", tuple(
            Sim(f"{scheme}-sf{factor}",
                _machine(small, seed, scheme=scheme, sparse_size_factor=factor),
                make)
            for scheme in size["sweep_schemes"]
            for factor in size["sweep_factors"]
        ))
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
