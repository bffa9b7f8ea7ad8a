"""End-to-end measurement: time each workload's unit and check its outputs.

One *sample* builds fresh machines, times the workload's unit, and keeps
the outputs for checking.  What the unit is depends on the workload's
kind (``bench/workloads.py``):

* ``plain`` — ``DashSystem.run()`` over every sim with nothing attached.
  ``slowdown_x`` is what ``check_coherence()`` adds on top (the ``repro
  run --check`` ratio): (run + check) / run;
* ``traced`` / ``ckpt`` / ``strict`` — the one sim with that feature on,
  paired back to back with its plain run in alternating order.
  ``slowdown_x`` is feature wall / plain wall;
* ``sweep`` — a cold ``run_points`` at ``jobs=2`` on a fresh
  ``ResultCache``, then a warm pass.  ``slowdown_x`` is cold wall over the
  ideal: the same points run in-process, spread perfectly over the jobs.

Every sample keeps the numerator and the base of its ratio in seconds;
``bench/run.py`` reports the fastest of each (see its docstring for why).

The timed region of the unit goes through :class:`Stopwatch`, which can
also switch a ``cProfile.Profile`` on for exactly that region — that is
how the profiled pass (``bench/layers.py``) sees the same call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis import PointSpec, ResultCache, run_points
from repro.machine.checkpoint import load_checkpoint
from repro.machine.invariants import CoherenceViolation
from repro.machine.stats import SimStats
from repro.machine.system import DashSystem
from repro.obs.tracer import Tracer

from workloads import SWEEP_JOBS, Sim, Spec

#: a plain leg shorter than this is iterated (fresh machine each time)
#: until it adds up to this much run time; the fastest iteration is the base
PLAIN_LEG_MIN_S = 0.3
#: events a warm-up runs before it is discarded
WARMUP_EVENTS = 20_000
#: the in-process base of ``sweep24`` runs every STRIDE-th point (each
#: sparsity twice, every scheme at least once) and scales the sum up
SWEEP_BASE_STRIDE = 3
#: cheap set-ups are sampled again until there are this many samples ...
SETUP_SAMPLES = 15
#: ... or this much extra time has gone into it
SETUP_EXTRA_S = 0.5


class Stopwatch:
    """Wall-clock a ``with`` block, optionally under a profiler."""

    def __init__(self, profiler: Any = None) -> None:
        self.profiler = profiler
        self.s = 0.0

    def __enter__(self) -> "Stopwatch":
        if self.profiler is not None:
            self.profiler.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.s = time.perf_counter() - self._t0
        if self.profiler is not None:
            self.profiler.disable()


class Checks:
    """Correctness checks: attempted, failed, and which ones failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Sample:
    """One timed repeat of a workload."""

    setup_s: float
    wall_s: float
    #: ``slowdown_x`` is ``slow_s / base_s``, both in seconds
    slow_s: float
    base_s: float
    digests: Dict[str, str]
    stats: List[SimStats]
    #: the machines that produced ``stats`` (empty for ``sweep``)
    systems: List[DashSystem] = field(default_factory=list)
    #: workload-derived layer counts (``obs.events_recorded`` ...)
    derived: Dict[str, float] = field(default_factory=dict)


def digest(stats: SimStats) -> str:
    """sha256 of the canonical-JSON stats record, minus the obs metrics."""
    record = stats.to_dict()
    record.pop("metrics", None)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def total_refs(stats: List[SimStats]) -> int:
    return sum(p.reads + p.writes for s in stats for p in s.procs)


def _machine(sim: Sim, **kwargs: Any) -> DashSystem:
    return DashSystem(sim.config, sim.workload(), **kwargs)


def _coherent(system: DashSystem) -> bool:
    try:
        system.check_coherence()
    except CoherenceViolation:
        return False
    return True


class Runner:
    """Takes samples of one workload and checks them as it goes."""

    def __init__(self, spec: Spec, tmp: str,
                 sweep_stride: int = SWEEP_BASE_STRIDE) -> None:
        self.spec = spec
        self.tmp = tmp
        self.sweep_stride = sweep_stride
        self.checks = Checks()
        self.samples: List[Sample] = []
        self.extra_setup_s: List[float] = []
        #: sweep only: index -> (fastest wall, digest, events) run in-process
        self.inproc: Dict[int, tuple] = {}
        self._take = {
            "plain": self._plain, "sweep": self._sweep,
        }.get(spec.kind, self._paired)

    # -- warm-up -----------------------------------------------------------

    def warm_up(self) -> None:
        """Touch the timed unit's code paths at a fraction of its cost."""
        spec = self.spec
        if spec.kind == "sweep":
            return  # every sample starts with an in-process pass: that warms
        for sim in spec.sims:
            system = _machine(sim, **self._feature_kwargs())
            events = 40 if spec.kind == "strict" else WARMUP_EVENTS
            system.run(max_events=events)
            if spec.kind == "ckpt":
                system.checkpoint(os.path.join(self.tmp, "warmup.ckpt"))

    # -- sampling ----------------------------------------------------------

    def sample(self, profiler: Any = None) -> Sample:
        """One more timed repeat (its unit under ``profiler`` if given)."""
        gc.collect()
        s = self._take(len(self.samples), profiler)
        self.samples.append(s)
        if len(self.samples) > 1:
            self.checks.check(
                s.digests == self.samples[0].digests,
                f"repeat {len(self.samples)} digests differ from repeat 1",
            )
            s.systems = []  # only the first sample's machines are inspected
        return s

    def sample_setup(self) -> None:
        """Top a cheap set-up's samples up so that its fastest is steady."""
        spent = 0.0
        while (
            len(self.samples) + len(self.extra_setup_s) < SETUP_SAMPLES
            and spent < SETUP_EXTRA_S
        ):
            gc.collect()
            with Stopwatch() as sw:
                built = self._build()
            del built
            self.extra_setup_s.append(sw.s)
            spent += sw.s

    def _feature_kwargs(self) -> Dict[str, Any]:
        kind = self.spec.kind
        if kind == "traced":
            return {"obs": Tracer()}
        if kind == "strict":
            return {"invariants": "strict"}
        return {}

    def _build(self) -> Any:
        """What ``setup_s`` times: everything before the first timed call."""
        spec = self.spec
        if spec.kind == "sweep":
            root = tempfile.mkdtemp(dir=self.tmp)
            points = [
                PointSpec(sim.config, sim.workload, label=sim.name)
                for sim in spec.sims
            ]
            return root, points, ResultCache(root)
        return [_machine(sim, **self._feature_kwargs()) for sim in spec.sims]

    def _plain(self, index: int, profiler: Any) -> Sample:
        with Stopwatch() as setup:
            systems = self._build()
        with Stopwatch(profiler) as run:
            stats = [system.run() for system in systems]
        with Stopwatch() as check:
            coherent = all([_coherent(system) for system in systems])
        if index == 0:
            self.checks.check(coherent, "check_coherence after the run")
        return Sample(
            setup.s, run.s, run.s + check.s, run.s,
            {sim.name: digest(st) for sim, st in zip(self.spec.sims, stats)},
            stats, systems,
        )

    def _paired(self, index: int, profiler: Any) -> Sample:
        spec = self.spec
        sim = spec.sims[0]
        ckpt_path = os.path.join(self.tmp, "run.ckpt")

        def plain_leg() -> tuple:
            walls: List[float] = []
            while sum(walls) < PLAIN_LEG_MIN_S:
                system = _machine(sim)
                with Stopwatch() as sw:
                    stats = system.run()
                walls.append(sw.s)
            return min(walls), stats

        def feature_leg() -> tuple:
            with Stopwatch() as setup:
                (system,) = self._build()
            run_kwargs = {}
            if spec.kind == "ckpt":
                run_kwargs = dict(checkpoint_path=ckpt_path,
                                  checkpoint_interval=spec.ckpt_interval)
            with Stopwatch(profiler) as run:
                stats = system.run(**run_kwargs)
            return setup.s, run.s, stats, system

        if index % 2 == 0:
            base_s, plain_stats = plain_leg()
            gc.collect()
            setup_s, wall_s, stats, system = feature_leg()
        else:
            setup_s, wall_s, stats, system = feature_leg()
            gc.collect()
            base_s, plain_stats = plain_leg()
        derived = {}
        if spec.kind == "traced":
            derived["obs.events_recorded"] = system.obs.emitted
        if spec.kind == "strict":
            derived["invariants.sweeps"] = system.invariants.checks_run
        feature_digest = digest(stats)
        self.checks.check(
            feature_digest == digest(plain_stats),
            f"{spec.kind} run's stats differ from the plain run's",
        )
        if index == 0:
            self.checks.check(_coherent(system), "check_coherence after the run")
            if spec.kind == "ckpt":
                self._check_restore(ckpt_path, feature_digest)
        return Sample(
            setup_s, wall_s, wall_s, base_s, {sim.name: feature_digest},
            [stats], [system], derived,
        )

    def _check_restore(self, path: str, expected: str) -> None:
        """The last snapshot, restored into a fresh machine, finishes the run."""
        resumed = _machine(self.spec.sims[0])
        resumed.restore(load_checkpoint(path))
        self.checks.check(
            digest(resumed.run()) == expected,
            "run restored from the last snapshot differs from the plain run",
        )

    def _run_in_process(self) -> None:
        """Run every ``sweep_stride``-th point here, as ``run_workload`` would.

        Keeps each point's fastest wall so far.  Forked workers inherit
        the code this warmed.
        """
        sims = self.spec.sims
        for i in range(0, len(sims), self.sweep_stride):
            gc.collect()
            with Stopwatch() as sw:
                system = _machine(sims[i])
                stats = system.run()
            fastest = min(sw.s, self.inproc[i][0]) if i in self.inproc else sw.s
            self.inproc[i] = (fastest, digest(stats), system.events.events_run)

    def _sweep(self, index: int, profiler: Any) -> Sample:
        spec = self.spec
        self._run_in_process()
        with Stopwatch() as setup:
            root, points, cache = self._build()
        try:
            with Stopwatch(profiler) as cold:
                results = run_points(points, jobs=SWEEP_JOBS, cache=cache)
            warm_cache = ResultCache(root)
            with Stopwatch() as warm:
                run_points(points, jobs=SWEEP_JOBS, cache=warm_cache)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        n = len(points)
        complete = all(r is not None for r in results)
        self.checks.check(complete, "a sweep slot came back empty")
        self.checks.check(
            warm_cache.hits == n, f"warm pass hit {warm_cache.hits}/{n} entries",
        )
        stats = [r for r in results if r is not None]
        digests = {sim.name: digest(r)
                   for sim, r in zip(spec.sims, results) if r is not None}
        if index == 0:
            for i, (_, expected, _) in self.inproc.items():
                self.checks.check(
                    digests.get(spec.sims[i].name) == expected,
                    f"point {spec.sims[i].name} differs from its in-process run",
                )
        # the same points run in-process, scaled from the sampled ones,
        # spread perfectly over the workers
        inproc_s = sum(w for w, _, _ in self.inproc.values())
        inproc_s *= n / len(self.inproc)
        ideal_s = inproc_s / SWEEP_JOBS
        derived = {
            "analysis.warm_ms_per_point": warm.s * 1e3 / n,
            "analysis.overhead_share": 1.0 - ideal_s / cold.s,
        }
        return Sample(setup.s, cold.s, cold.s, ideal_s, digests, stats, [],
                      derived)

    def check_golden(self, golden: Optional[Dict[str, str]]) -> None:
        """Check (a): digests equal the committed ones for this seed."""
        if golden is None:
            return  # no golden at this seed: not attempted
        got = self.samples[0].digests
        for name in sorted(set(golden) | set(got)):
            self.checks.check(
                got.get(name) == golden.get(name),
                f"{name}: stats digest differs from bench/golden.json",
            )
