"""Lightweight sim-phase profiler (wall time + event counts per phase).

Machine code may not read wall clocks (the ``unseeded-random`` lint rule
bans them from ``machine/`` and ``core/`` to keep simulations
deterministic), so profiling lives *outside* the machine: callers wrap
the phases they care about::

    prof = PhaseProfiler()
    with prof.phase("build"):
        system = DashSystem(cfg, workload, obs=tracer)
    with prof.phase("run"):
        system.run()
    print(format_profile(prof.to_rows()))

Each phase records wall seconds, and — when a system/tracer is attached
— how many simulator events and trace events fell inside it, giving a
cheap events-per-second view of where a run spends its time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class PhaseRecord:
    """Accumulated measurements for one named phase."""

    name: str
    wall_s: float = 0.0
    entries: int = 0
    sim_events: int = 0
    trace_events: int = 0

    @property
    def sim_events_per_s(self) -> float:
        """Simulator events per wall second inside this phase."""
        return self.sim_events / self.wall_s if self.wall_s > 0 else 0.0


class PhaseProfiler:
    """Nestable named phases over wall time and event counters."""

    def __init__(self, *, system: object = None, tracer: object = None) -> None:
        self._system = system
        self._tracer = tracer
        self._records: Dict[str, PhaseRecord] = {}
        self._order: List[str] = []

    def attach(self, *, system: object = None, tracer: object = None) -> None:
        """Late-bind the machine/tracer (e.g. after the build phase)."""
        if system is not None:
            self._system = system
        if tracer is not None:
            self._tracer = tracer

    def _sim_events(self) -> int:
        events = getattr(self._system, "events", None)
        return getattr(events, "events_run", 0) if events is not None else 0

    def _trace_events(self) -> int:
        return getattr(self._tracer, "emitted", 0)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseRecord]:
        """Time a phase; re-entering the same name accumulates."""
        record = self._records.get(name)
        if record is None:
            record = self._records[name] = PhaseRecord(name)
            self._order.append(name)
        t0 = time.perf_counter()
        e0 = self._sim_events()
        te0 = self._trace_events()
        try:
            yield record
        finally:
            record.wall_s += time.perf_counter() - t0
            record.entries += 1
            record.sim_events += self._sim_events() - e0
            record.trace_events += self._trace_events() - te0

    def records(self) -> List[PhaseRecord]:
        """Phases in first-entered order."""
        return [self._records[n] for n in self._order]

    def to_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.analysis.report.format_profile`."""
        return [
            [
                r.name,
                round(r.wall_s, 4),
                r.sim_events,
                round(r.sim_events_per_s),
                r.trace_events,
            ]
            for r in self.records()
        ]

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON form keyed by phase name (telemetry payloads)."""
        return {
            r.name: {
                "wall_s": round(r.wall_s, 6),
                "entries": r.entries,
                "sim_events": r.sim_events,
                "sim_events_per_s": round(r.sim_events_per_s, 1),
                "trace_events": r.trace_events,
            }
            for r in self.records()
        }


def profile_run(
    build: Callable[[], Any],
    *,
    tracer: object = None,
    max_events: Optional[int] = None,
) -> Tuple[Any, Any, "PhaseProfiler"]:
    """Run ``build()`` -> system through build/run phases; returns
    ``(system, stats, profiler)`` — the standard traced-run shape used
    by ``repro obs trace`` and the telemetry benchmarks."""
    prof = PhaseProfiler(tracer=tracer)
    with prof.phase("build"):
        system = build()
    prof.attach(system=system)
    with prof.phase("run"):
        stats = system.run(max_events=max_events)
    return system, stats, prof
