"""The micro tier: each layer's public functions, timed from outside.

Every metric here is independent of the workload being benchmarked — it
calls one layer in isolation, on inputs fixed in this file — so a change
to that layer moves its number and nothing else's.  Loops are calibrated
to at least ``loop_s`` seconds and the best of three runs is reported
(the least disturbed one; these are costs, not distributions).  A few
calls are too long to loop — a 256-cluster leg table, a checkpoint of a
32-cluster machine, a model-check run — and are timed once.

``bench/README.md`` says which end-to-end metric each of these should
move, and on which workload.
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable

from repro.analysis import PointSpec, ResultCache, point_key, run_points
from repro.core import make_scheme
from repro.core.sparse import SparseDirectory
from repro.machine.cache import LineState, ProcessorCache
from repro.machine.checkpoint import SimCheckpoint, load_checkpoint
from repro.machine.events import EventQueue
from repro.machine.invariants import machine_state_violations
from repro.machine.network import make_network
from repro.machine.stats import SimStats
from repro.machine.system import DashSystem
from repro.obs.tracer import Tracer
from repro.trace.event import Read, Write
from repro.verify.explorer import explore
from repro.verify.model import ModelConfig

import workloads

#: seconds each calibrated loop runs for, by scale
LOOP_S = {"full": 0.03, "tiny": 0.002}
#: event at which the ``ckpt32`` machine is paused for the checkpoint calls
CKPT_PAUSE_EVENT = {"full": 100_000, "tiny": 300}
#: copies of the few-hundred-event point in ``analysis.tiny_point_ms``
TINY_POINTS = {"full": 64, "tiny": 4}


def _timed(call: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def per_op_s(loop: Callable[[int], object], loop_s: float) -> float:
    """Seconds per operation of ``loop(n)`` (n operations), best of three."""
    n = 1
    while True:
        t = _timed(lambda: loop(n))
        if t >= loop_s:
            break
        n = max(2 * n, int(1.2 * n * loop_s / max(t, 1e-6)))
    gc.collect()
    return min(t, _timed(lambda: loop(n)), _timed(lambda: loop(n))) / n


def best_of_3_s(call: Callable[[], object]) -> float:
    return min(_timed(call) for _ in range(3))


def _noop() -> None:
    pass


def _events(loop_s: float) -> Dict[str, float]:
    def loop(n: int) -> None:
        queue = EventQueue()
        after = queue.after
        for i in range(n):
            after(i & 7, _noop)
        queue.run()

    return {"events.noop_events_per_s": 1.0 / per_op_s(loop, loop_s)}


def _cache(loop_s: float) -> Dict[str, float]:
    # the paper machine's caches: direct-mapped 64 KB over 256 KB
    cache = ProcessorCache(16, 64 * 1024, 1, 256 * 1024, 1)
    resident = 1024
    for block in range(resident):
        cache.install(block, LineState.DIRTY if block & 1 else LineState.SHARED)
    l2_sets = cache.l2.num_sets

    def hits(n: int) -> None:
        read, write = cache.probe_read, cache.probe_write
        for i in range(n // 2):
            block = i % resident
            read(block)
            write(block)

    def misses(n: int) -> None:
        read, write = cache.probe_read, cache.probe_write
        for i in range(n // 2):
            block = resident + i % resident
            read(block)
            write(block)

    def install_evict(n: int) -> None:
        # two blocks per direct-mapped set, installed alternately, so
        # every install pushes the other one out
        install = cache.install
        for i in range(n):
            install(2 * resident + (i & 63) + (i >> 6 & 1) * l2_sets,
                    LineState.SHARED)

    return {
        "cache.probe_hit_ns": per_op_s(hits, loop_s) * 1e9,
        "cache.probe_miss_ns": per_op_s(misses, loop_s) * 1e9,
        "cache.install_evict_ns": per_op_s(install_evict, loop_s) * 1e9,
    }


def _apps(scale: str) -> Dict[str, float]:
    sims = {
        "lu": workloads.build("lu32", 0, scale).sims[0],
        "dwf": workloads.build("sparse32", 0, scale).sims[0],
        "mp3d": workloads.build("comm32", 0, scale).sims[0],
        "locusroute": workloads.build("comm32", 0, scale).sims[1],
    }
    out = {}
    for app, sim in sims.items():
        workload = sim.workload()
        refs = [0]

        def drain() -> None:
            # every processor's stream, with no simulator attached
            refs[0] = sum(
                type(op) is Read or type(op) is Write
                for p in range(workload.num_processors)
                for op in workload.stream(p)
            )

        seconds = best_of_3_s(drain)
        out[f"apps.{app}.stream_refs_per_s"] = refs[0] / seconds
    return out


def _entry_ops(name: str, nodes: int, sharers: Iterable[int],
               loop_s: float) -> Dict[str, float]:
    sharers = tuple(sharers)
    entry = make_scheme(name, nodes).make_entry()

    def record(n: int) -> None:
        # from empty through pointer overflow and past it, then again
        for _ in range(n // len(sharers)):
            entry.reset()
            for node in sharers:
                entry.record_sharer(node)

    record_s = per_op_s(record, loop_s)
    exclude = (sharers[0],)

    def targets(n: int) -> None:
        targets_sorted = entry.targets_sorted
        for _ in range(n):
            targets_sorted(exclude)

    key = f"core.{name}"
    return {
        f"{key}.record_ns.n{nodes}": record_s * 1e9,
        f"{key}.targets_ns.n{nodes}": per_op_s(targets, loop_s) * 1e9,
    }


def _core(loop_s: float) -> Dict[str, float]:
    out = {}
    for name in ("full", "Dir3B", "Dir3NB", "Dir3X", "Dir3CV2"):
        out.update(_entry_ops(name, 32, range(0, 32, 4), loop_s))
    for name in ("full", "Dir3CV8"):
        out.update(_entry_ops(name, 256, range(0, 256, 16), loop_s))
    return out


def _sparse(loop_s: float) -> Dict[str, float]:
    # one home's directory on a 32-cluster machine: 256 sets of 4 ways
    stride, sets, ways = 32, 256, 4
    scheme = make_scheme("Dir3CV2", 32)
    directory = SparseDirectory(scheme, sets * ways, ways, policy="random",
                                stride=stride)
    for frame in range(sets * ways):
        line, _ = directory.get_or_allocate(frame * stride)
        line.entry.record_sharer(frame % 32)

    def lookup(n: int) -> None:
        look = directory.lookup
        for i in range(n):
            look((i % (sets * ways)) * stride)

    lookup_s = per_op_s(lookup, loop_s)
    frames = [sets * ways]

    def alloc_evict(n: int) -> None:
        # every set is full, every new tag misses: each call picks a
        # victim, evicts it and fills the way (``release`` is not timed:
        # it would empty the way and the next call would not evict)
        allocate = directory.get_or_allocate
        frame = frames[0]
        for _ in range(n):
            allocate(frame * stride)
            frame += 1
        frames[0] = frame

    return {
        "core.sparse.lookup_ns": lookup_s * 1e9,
        "core.sparse.alloc_evict_ns": per_op_s(alloc_evict, loop_s) * 1e9,
    }


def _network(loop_s: float, big: int) -> Dict[str, float]:
    net = make_network("uniform", 32)

    def legs(n: int) -> None:
        leg = net.leg
        for i in range(n):
            leg(i & 31, i >> 5 & 31)

    out = {"network.leg_ns": per_op_s(legs, loop_s) * 1e9}
    # the table DashSystem.__init__ builds, by the same comprehension:
    # ``leg`` called n^2 times (no machine is constructed)
    for key, n in (("n32", 32), ("n256", big)):
        leg = make_network("uniform", n).leg
        rng = range(n)
        out[f"network.leg_table_ms.{key}"] = best_of_3_s(
            lambda: [[leg(s, d) for d in rng] for s in rng]) * 1e3
    return out


def _checkpoint(scale: str, tmp: str) -> Dict[str, float]:
    sim = workloads.build("ckpt32", 0, scale).sims[0]
    system = DashSystem(sim.config, sim.workload())
    system.run(max_events=CKPT_PAUSE_EVENT[scale])
    path = os.path.join(tmp, "micro.ckpt")
    fresh = DashSystem(sim.config, sim.workload())
    t0 = time.perf_counter()
    ckpt = SimCheckpoint.capture(system)
    t1 = time.perf_counter()
    SimCheckpoint(ckpt.header, ckpt.state).payload()  # capture memoizes its own
    t2 = time.perf_counter()
    nbytes = ckpt.save(path)
    t3 = time.perf_counter()
    loaded = load_checkpoint(path)
    t4 = time.perf_counter()
    loaded.restore_into(fresh)
    t5 = time.perf_counter()
    os.unlink(path)
    return {
        "checkpoint.capture_ms": (t1 - t0) * 1e3,
        "checkpoint.payload_ms": (t2 - t1) * 1e3,
        "checkpoint.save_ms": (t3 - t2) * 1e3,
        "checkpoint.load_ms": (t4 - t3) * 1e3,
        "checkpoint.restore_ms": (t5 - t4) * 1e3,
        "checkpoint.bytes": nbytes,
    }


def _obs(loop_s: float) -> Dict[str, float]:
    tracer = Tracer()

    def emit(n: int) -> None:
        for i in range(n):
            tracer.emit("net.msg", ts=float(i), dur=20.0, comp="network", tid=3)

    return {"obs.emit_ns": per_op_s(emit, loop_s) * 1e9}


def _invariants(loop_s: float, scale: str) -> Dict[str, float]:
    sim = workloads.build("strict8", 0, scale).sims[0]
    system = DashSystem(sim.config, sim.workload())
    system.run()

    def sweep(n: int) -> None:
        for _ in range(n):
            for _violation in machine_state_violations(system):
                pass

    return {"invariants.sweep_ms": per_op_s(sweep, loop_s) * 1e3}


def _analysis(loop_s: float, scale: str, tmp: str) -> Dict[str, float]:
    spec = workloads.build("sweep24", 0, scale)
    sim = spec.sims[0]
    workload = sim.workload()
    system = DashSystem(sim.config, workload)
    stats = system.run()
    cache = ResultCache(os.path.join(tmp, "micro-cache"))
    keys = [f"{i:064x}" for i in range(256)]

    def key_loop(n: int) -> None:
        for _ in range(n):
            point_key(sim.config, workload)

    def put(n: int) -> None:
        for i in range(n):
            cache.put(keys[i & 255], stats)

    def get(n: int) -> None:
        for i in range(n):
            cache.get(keys[i & 255])

    def roundtrip(n: int) -> None:
        for _ in range(n):
            SimStats.from_state(pickle.loads(pickle.dumps(stats.to_state())))

    out = {
        "analysis.point_key_us": per_op_s(key_loop, loop_s) * 1e6,
        "analysis.cache.put_us": per_op_s(put, loop_s) * 1e6,
        "analysis.cache.get_us": per_op_s(get, loop_s) * 1e6,
        "analysis.stats_roundtrip_us": per_op_s(roundtrip, loop_s) * 1e6,
    }
    # copies of one few-hundred-event point, no cache: what is left is
    # fork, pipe and supervision
    tiny = workloads.build("strict8", 0, scale).sims[0]
    points = [PointSpec(tiny.config, tiny.workload)] * TINY_POINTS[scale]
    t = _timed(lambda: run_points(points, jobs=workloads.SWEEP_JOBS))
    out["analysis.tiny_point_ms"] = t * 1e3 / len(points)
    return out


def _verify() -> Dict[str, float]:
    t0 = time.perf_counter()
    result = explore(ModelConfig(make_scheme("Dir2CV2", 4), 4))
    t = time.perf_counter() - t0
    return {"verify.states": result.states, "verify.states_per_s": result.states / t}


def _import(src_dir: str) -> Dict[str, float]:
    code = ("import time; t = time.perf_counter(); "
            "import repro.machine, repro.apps, repro.analysis; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src_dir)
    best = min(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(3)
    )
    return {"host.import_s": best}


def run(scale: str, tmp: str, src_dir: str) -> Dict[str, float]:
    """Every micro metric, by name."""
    loop_s = LOOP_S[scale]
    big = workloads.build("scale256", 0, scale).sims[0].config.num_clusters
    out: Dict[str, float] = {}
    for part in (
        _events(loop_s), _cache(loop_s), _apps(scale), _core(loop_s),
        _sparse(loop_s), _network(loop_s, big), _checkpoint(scale, tmp),
        _obs(loop_s), _invariants(loop_s, scale), _analysis(loop_s, scale, tmp),
        _verify(), _import(src_dir),
    ):
        out.update(part)
    return out
