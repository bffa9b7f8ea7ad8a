"""Parameter-sweep runner: the experiment loop every study repeats.

The paper's evaluation is a grid of (application x scheme x directory
configuration) simulations; this module factors that loop out so
benchmarks, examples, and user studies share one implementation with
consistent result records.

Example::

    sweep = Sweep(
        base=MachineConfig(num_clusters=32),
        workload_factory=lambda: LUWorkload(32, matrix_n=48),
    )
    sweep.add_axis("scheme", ["full", "Dir3CV2", "Dir3B"])
    sweep.add_axis("sparse_size_factor", [None, 2.0, 1.0])
    results = sweep.run(jobs=4)
    print(results.table(["exec_time", "total_messages"]))

Execution goes through :func:`run_points` and the one engine behind it
(:class:`~repro.analysis.supervisor.SupervisedRunner`), which adds two
orthogonal accelerations to the in-process loop while returning
point-for-point identical results:

* **parallelism** — ``jobs > 1`` runs the grid across forked worker
  processes (liveness monitoring, per-point timeouts, bounded retry of
  dead workers, results reassembled in grid order);
* **caching** — a :class:`~repro.analysis.cache.ResultCache` skips any
  point whose content-addressed key (config + workload identity + code
  fingerprint) already has a stored result.

Resilience knobs (``policy``, ``report``) are documented on
:func:`run_points`.

The ``progress`` callback contract holds on every path: it is invoked
exactly once per *completed* point (simulated or cache-loaded), in
deterministic grid order, after the point's stats are final; when a
point raises, the callback has fired exactly for the contiguous prefix
of points before the first (grid-order) failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.cache import ResultCache, point_key
from repro.analysis.report import format_table
from repro.analysis.supervisor import (
    SupervisedRunner,
    SupervisorPolicy,
    SweepReport,
    fork_context,
)
from repro.machine.config import MachineConfig
from repro.machine.stats import STATS_SCHEMA, SimStats
from repro.obs.aggregate import PointTelemetry, SweepAggregator
from repro.obs.dashboard import SweepMonitor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.trace.workload import Workload


def load_stats_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a persisted ``SimStats.to_dict()`` record to schema 2.

    Accepts both the original unversioned shape (schema 1, no ``schema``
    key) and the current one; rejects records declaring a *newer* schema
    than this build understands.  Returns a plain dict always carrying
    ``schema``, so downstream code can index uniformly.
    """
    schema = data.get("schema", 1)
    if not isinstance(schema, int) or schema < 1 or schema > STATS_SCHEMA:
        raise ValueError(
            f"unsupported stats schema {schema!r} "
            f"(this build reads <= {STATS_SCHEMA})"
        )
    out = {"schema": STATS_SCHEMA}
    out.update({k: v for k, v in data.items() if k != "schema"})
    return out


#: version of the ``results/*.json`` file format, independent of
#: ``STATS_SCHEMA``.  1 was the original unversioned shape; 2 adds the
#: top-level "schema" header (figure numbers are unchanged).
RESULTS_SCHEMA = 2


def load_results_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a ``results/*.json`` file body (schema 1 or 2).

    Version-1 files had no top-level ``schema`` header; version-2 files
    (written by ``benchmarks.common.save_results``) do.  The figure
    payload is returned unchanged either way, without the header.
    """
    schema = data.get("schema", 1)
    if not isinstance(schema, int) or schema < 1 or schema > RESULTS_SCHEMA:
        raise ValueError(
            f"unsupported results schema {schema!r} "
            f"(this build reads <= {RESULTS_SCHEMA})"
        )
    return {k: v for k, v in data.items() if k != "schema"}


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the config overrides applied and the stats measured."""

    overrides: Tuple[Tuple[str, Any], ...]
    stats: SimStats

    def override(self, name: str) -> Any:
        """The value this point used for the named axis."""
        for key, value in self.overrides:
            if key == name:
                return value
        raise KeyError(name)

    def metric(self, name: str) -> Any:
        """A statistic by attribute name (callables invoked, dict fallback)."""
        value = getattr(self.stats, name, None)
        if value is None:
            value = self.stats.to_dict().get(name)
        if callable(value):
            value = value()
        if value is None:
            raise KeyError(f"unknown metric {name!r}")
        return value


class SweepResults:
    """Ordered collection of sweep points with tabular access."""

    def __init__(self, axes: Sequence[str], points: List[SweepPoint]) -> None:
        self.axes = list(axes)
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def filter(self, **criteria: object) -> "SweepResults":
        """Points whose overrides match all the given values."""
        kept = [
            p
            for p in self.points
            if all(p.override(k) == v for k, v in criteria.items())
        ]
        return SweepResults(self.axes, kept)

    def metric_by(self, axis: str, metric: str) -> Dict[Any, Any]:
        """Map one axis value -> metric (requires the axis to be unique)."""
        out: Dict[Any, Any] = {}
        for p in self.points:
            key = p.override(axis)
            if key in out:
                raise ValueError(
                    f"axis {axis!r} is not unique across points; filter first"
                )
            out[key] = p.metric(metric)
        return out

    def table(self, metrics: Sequence[str]) -> str:
        """Aligned text table: one row per point, axes then metrics."""
        headers = self.axes + list(metrics)
        rows = []
        for p in self.points:
            row: List[Any] = [p.override(a) for a in self.axes]
            row.extend(p.metric(m) for m in metrics)
            rows.append(row)
        return format_table(headers, rows)


@dataclass(frozen=True)
class PointSpec:
    """One schedulable simulation: a config, a workload recipe, run flags.

    ``workload_factory`` is called in whichever process executes the
    point (parent or forked worker), so workloads are built from the
    same recipe on every path and never cross a process boundary.
    ``label`` is observability-only (span annotation).
    """

    config: MachineConfig
    workload_factory: Callable[[], Workload]
    check: bool = False
    label: str = ""


class PointLedger:
    """The one place a sweep point's fate is written down.

    Every resolution — cache hit, completion, retry, quarantine — lands
    here exactly once and fans out to the result cache, the report, the
    monitor, the ``obs`` tracer and the grid-order ``progress`` prefix,
    identically for the in-process and the forked driver.  Sinks the
    caller left out are replaced by inert stand-ins (a throwaway report,
    the no-op base monitor, ``NULL_TRACER``), so neither this class nor
    the runner guards on None.
    """

    def __init__(
        self,
        specs: Sequence[PointSpec],
        keys: Sequence[str],
        *,
        cache: Optional[ResultCache],
        progress: Optional[Callable[[int, SimStats], None]],
        obs: Optional[Tracer],
        report: Optional[SweepReport],
        aggregate: Optional[SweepAggregator],
        monitor: Optional[SweepMonitor],
    ) -> None:
        self.specs = specs
        self.keys = keys
        self.cache = cache
        self.progress = progress
        self.obs = obs if obs is not None else NULL_TRACER
        self.report = report if report is not None else SweepReport()
        self.aggregate = aggregate
        self.monitor = monitor if monitor is not None else SweepMonitor()
        #: every resolved point: its final stats, or None if quarantined
        self.stats: Dict[int, Optional[SimStats]] = {}
        self._next = 0  # first grid index ``progress`` has not passed

    def label(self, i: int) -> str:
        """The observability label of grid point ``i``."""
        return self.specs[i].label

    def _span(self, i: int, wall: float, cached: bool) -> None:
        self.obs.record(
            "sweep.point", self.obs.now(), wall, 0, i, cached, self.label(i)
        )

    def _deliver_prefix(self) -> None:
        """Fire ``progress`` for the contiguous resolved prefix, in order.

        Quarantined points resolve without stats: they are passed over
        (no progress call) so delivery of later completed points goes on.
        """
        while self._next in self.stats:
            stats = self.stats[self._next]
            if self.progress is not None and stats is not None:
                self.progress(self._next, stats)
            self._next += 1

    def serve_cached(self) -> List[int]:
        """Resolve every cache hit; returns the indices left to simulate."""
        misses = []
        for i in range(len(self.specs)):
            hit = self.cache.get(self.keys[i]) if self.cache is not None else None
            if hit is None:
                misses.append(i)
            else:
                self.stats[i] = hit
                self.report.mark_cached(i, self.label(i))
                self.monitor.point_cached(i, self.label(i))
                self._span(i, 0.0, cached=True)
        self.obs.metrics.counter("sweep_cache_hits").inc(len(self.stats))
        self.obs.metrics.counter("sweep_cache_misses").inc(len(misses))
        self._deliver_prefix()
        return misses

    def completed(
        self, i: int, stats: SimStats, wall: float,
        telemetry: Optional[PointTelemetry], events_saved: Optional[int],
    ) -> None:
        """Point ``i`` simulated successfully (possibly after retries).

        ``events_saved`` is set when the winning attempt resumed from a
        mid-run checkpoint (see :func:`~repro.analysis.supervisor.
        execute_point`).
        """
        self.stats[i] = stats
        self.report.mark_completed(i, self.label(i), wall)
        if events_saved is not None:
            self.report.mark_resumed(i, events_saved, self.label(i))
        if telemetry is not None:
            if self.aggregate is not None:
                self.aggregate.add(telemetry)
            self.monitor.telemetry(telemetry)
        self.monitor.point_done(i, self.label(i), wall)
        if self.cache is not None:
            self.cache.put(self.keys[i], stats)
        self._span(i, wall, cached=False)
        self._deliver_prefix()

    def retry(self, i: int, kind: str, attempt: int) -> None:
        """Failed attempt number ``attempt`` of point ``i`` was rescheduled."""
        self.report.mark_retry(i, kind, self.label(i))
        self.obs.metrics.counter("sweep_retries").inc()
        self.obs.record(
            "sweep.retry", self.obs.now(), None, 0,
            i, kind, attempt, self.label(i),
        )
        self.monitor.point_retry(i, self.label(i), kind)

    def quarantined(
        self, i: int, error: BaseException, *, timed_out: bool
    ) -> None:
        """Keep-going gave up on point ``i``; the sweep goes on without it."""
        self.stats[i] = None
        self.report.mark_quarantined(
            i, error, timed_out=timed_out, label=self.label(i)
        )
        self.obs.metrics.counter("sweep_quarantined").inc()
        self.monitor.point_quarantined(i, self.label(i))
        self._deliver_prefix()


def run_points(
    specs: Sequence[PointSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, SimStats], None]] = None,
    obs: Optional[Tracer] = None,
    policy: Optional[SupervisorPolicy] = None,
    report: Optional[SweepReport] = None,
    aggregate: Optional[SweepAggregator] = None,
    monitor: Optional[SweepMonitor] = None,
    checkpoint_dir: Optional[Path | str] = None,
    checkpoint_interval: Optional[int] = None,
) -> List[Optional[SimStats]]:
    """Execute point specs with parallelism, caching, and supervision.

    The shared engine behind :meth:`Sweep.run` and the benchmark runner
    (``benchmarks.common.run_grid``).  Returns stats in spec order,
    identical on every (jobs, cache) combination.  ``progress(i, stats)``
    follows the contract documented at module level.  ``obs`` emits one
    ``sweep.point`` span per completed point plus ``sweep_cache_hits`` /
    ``sweep_cache_misses`` counters through the declared registry names.

    ``aggregate`` (a :class:`~repro.obs.aggregate.SweepAggregator`)
    turns on cross-worker trace aggregation: every simulated point —
    in-process or forked — runs under a fresh real tracer sized to
    ``aggregate.capacity``, and its captured
    :class:`~repro.obs.aggregate.PointTelemetry` is merged into the
    aggregator as results stream in.  The stats a point returns (and
    caches) are byte-identical with or without aggregation: the metrics
    reference is stripped before the stats leave the executor, so the
    telemetry is the only channel the observability data travels on.
    ``monitor`` (a :class:`~repro.obs.dashboard.SweepMonitor`, e.g. the
    live dashboard) receives begin/point lifecycle/tick/finish callbacks
    from the parent process on every execution path.

    Execution: every point goes through one
    :class:`~repro.analysis.supervisor.SupervisedRunner`, which forks
    workers when ``jobs > 1`` (a worker death cannot hang the sweep; the
    point is retried with backoff) and otherwise runs the same retry /
    quarantine / fail-fast policy in this process.  Passing an explicit
    ``policy`` additionally enables per-point timeouts, keep-going
    quarantine, chaos injection, and forces the forked path even at
    ``jobs=1`` so timeouts can be enforced (where fork is unavailable
    the in-process loop cannot preempt a hung point, so ``timeout`` does
    not apply and ``chaos`` is refused).  Under ``policy.keep_going`` a
    quarantined point's slot in the returned list is ``None`` (and
    ``progress`` never fires for it; later points still deliver in
    order).  ``report`` accumulates per-point
    :class:`~repro.analysis.supervisor.PointOutcome` records.

    ``checkpoint_dir`` + ``checkpoint_interval`` turn on crash-
    consistent per-point snapshots: each executing point writes
    ``<dir>/pointNNNNN.ckpt`` every ``checkpoint_interval`` simulated
    events, and a killed or timed-out point *resumes* from its last
    snapshot instead of restarting — in this sweep's retry, or in a
    later run given the same directory (a point's snapshot is deleted
    only once its result is recorded).  Results stay byte-identical
    either way (``docs/robustness.md``).
    """
    n = len(specs)
    keys: Sequence[str] = ()
    if cache is not None:
        keys = [
            point_key(s.config, s.workload_factory(), check=s.check)
            for s in specs
        ]
    ledger = PointLedger(
        specs, keys, cache=cache, progress=progress, obs=obs, report=report,
        aggregate=aggregate, monitor=monitor,
    )
    ledger.monitor.begin(total=n, jobs=max(1, jobs))
    try:
        misses = ledger.serve_cached()
        if misses:
            if checkpoint_dir is not None:
                Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            SupervisedRunner(
                max(1, min(jobs, len(misses))), policy,
                telemetry_capacity=(
                    aggregate.capacity if aggregate is not None else None
                ),
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=checkpoint_interval,
            ).run(
                specs, misses, ledger,
                # an explicit policy forces workers even at jobs=1, so
                # its timeout can be enforced
                fork=fork_context() is not None and (
                    policy is not None or (jobs > 1 and len(misses) > 1)
                ),
            )
    finally:
        ledger.monitor.finish()
    assert len(ledger.stats) == n, "internal error: sweep points missing"
    return [ledger.stats[i] for i in range(n)]


class Sweep:
    """A cartesian grid of MachineConfig overrides, run over one workload."""

    def __init__(
        self,
        base: MachineConfig,
        workload_factory: Callable[[], Workload],
        *,
        check_coherence: bool = False,
    ) -> None:
        self.base = base
        self.workload_factory = workload_factory
        self.check_coherence = check_coherence
        self._axes: List[Tuple[str, List[Any]]] = []

    def add_axis(self, name: str, values: Iterable[Any]) -> "Sweep":
        """Add a config field to sweep over; returns self for chaining."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        if name in (n for n, _ in self._axes):
            raise ValueError(f"axis {name!r} already added")
        # fail fast on typos: the override must be a real config field
        self.base.with_(**{name: values[0]})
        self._axes.append((name, values))
        return self

    @property
    def axis_names(self) -> List[str]:
        return [name for name, _ in self._axes]

    def grid(self) -> List[Dict[str, Any]]:
        """The override mapping of every grid point, in deterministic order.

        Axes vary slowest-first in the order they were added (the
        cartesian-product order the serial loop has always used); this
        order defines dispatch order, progress delivery, and the
        ordering of :attr:`SweepResults.points`.
        """
        if not self._axes:
            raise ValueError("add at least one axis before running")
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(vals for _, vals in self._axes))
        ]

    def specs(self) -> List[PointSpec]:
        """One :class:`PointSpec` per grid point, in deterministic order.

        Exposed so callers (the CLI's ``--resume`` summary, tests) can
        derive content-addressed point keys without running the sweep.
        """
        return [
            PointSpec(
                config=self.base.with_(**overrides),
                workload_factory=self.workload_factory,
                check=self.check_coherence,
                label=",".join(f"{k}={v}" for k, v in overrides.items()),
            )
            for overrides in self.grid()
        ]

    def run(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[Mapping[str, Any], SimStats], None]] = None,
        obs: Optional[Tracer] = None,
        policy: Optional[SupervisorPolicy] = None,
        report: Optional[SweepReport] = None,
        aggregate: Optional[SweepAggregator] = None,
        monitor: Optional[SweepMonitor] = None,
        checkpoint_dir: Optional[Path | str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> SweepResults:
        """Run every grid point; optionally parallel, cached, and traced.

        ``jobs`` — fork this many worker processes (1 = in-process
        serial; results are identical either way).  ``cache`` — reuse
        and persist per-point results by content hash.  ``progress`` —
        called exactly once per completed point, in deterministic grid
        order, with the point's overrides and final stats; the contract
        holds under ``jobs > 1`` and, on failure, covers exactly the
        points before the first grid-order error.  ``obs`` — a tracer
        receiving per-point ``sweep.point`` spans and cache counters.
        ``policy``/``report`` — supervision knobs, see
        :func:`run_points`; under ``policy.keep_going`` quarantined
        points are simply absent from the returned results (the
        ``report`` records why).  ``aggregate``/``monitor`` — sweep
        observability (merged per-point telemetry, live dashboard), see
        :func:`run_points`.  ``checkpoint_dir``/``checkpoint_interval``
        — crash-consistent per-point snapshots with mid-run resume, see
        :func:`run_points`.
        """
        grid = self.grid()
        specs = self.specs()
        wrapped = None
        if progress is not None:
            wrapped = lambda i, stats: progress(grid[i], stats)  # noqa: E731
        stats_list = run_points(
            specs, jobs=jobs, cache=cache, progress=wrapped, obs=obs,
            policy=policy, report=report,
            aggregate=aggregate, monitor=monitor,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
        )
        points = [
            SweepPoint(tuple(overrides.items()), stats)
            for overrides, stats in zip(grid, stats_list)
            if stats is not None
        ]
        return SweepResults(self.axis_names, points)
