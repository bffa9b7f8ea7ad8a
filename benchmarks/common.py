"""Shared benchmark plumbing: the runner entrypoint and result persistence.

Every benchmark that regenerates a paper artifact goes through two
services here:

* :func:`run_grid` — execute a labeled set of (config, workload) points
  through the shared sweep engine (:func:`repro.analysis.sweeps.run_points`),
  honoring the process-wide runner options (``--jobs N`` forked workers,
  content-addressed result caching via ``--cache-dir`` /
  ``$REPRO_CACHE_DIR``, ``--no-cache``).  Results are point-for-point
  identical to the serial, uncached loop.
* :func:`save_results` — persist the regenerated summary as
  ``results/<name>.json`` so EXPERIMENTS.md numbers can be re-derived
  and CI can diff them against the committed files.

Scripts call :func:`bench_entry` from their ``__main__`` block; it
parses the shared flags, runs the report, and prints the cache summary.
The pytest-benchmark path calls ``compute()`` directly and therefore
uses the defaults (serial, cache only if ``$REPRO_CACHE_DIR`` is set) —
wall-clock measurements stay meaningful.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.cache import ResultCache, default_cache_dir
from repro.analysis.supervisor import SupervisorPolicy
from repro.analysis.sweeps import RESULTS_SCHEMA, PointSpec, run_points
from repro.machine.config import MachineConfig
from repro.machine.stats import SimStats
from repro.obs.aggregate import SweepAggregator
from repro.trace.workload import Workload

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


# -- runner options (process-wide, set once by bench_entry) -------------------


@dataclass
class RunnerOptions:
    """How this process executes simulation grids."""

    jobs: int = 1
    cache_dir: Optional[Path] = None
    no_cache: bool = False
    timeout: Optional[float] = None
    retries: Optional[int] = None
    obs_out: Optional[Path] = None

    def make_cache(self) -> Optional[ResultCache]:
        """A ResultCache honoring the flags, or None when caching is off."""
        if self.no_cache:
            return None
        root = self.cache_dir or default_cache_dir()
        return ResultCache(root) if root else None

    def make_policy(self) -> Optional[SupervisorPolicy]:
        """A SupervisorPolicy when --timeout/--retries were given, else None.

        Figure regenerations are long and unattended; opting into a
        timeout or retry budget routes them through the supervised
        (liveness-monitored) executor so one wedged point cannot hang
        the whole run.
        """
        if self.timeout is None and self.retries is None:
            return None
        return SupervisorPolicy(
            timeout=self.timeout,
            max_retries=self.retries if self.retries is not None else 2,
        )


_options = RunnerOptions()
_cache: Optional[ResultCache] = None
_aggregator: Optional[SweepAggregator] = None


def runner_options() -> RunnerOptions:
    """The active process-wide runner options."""
    return _options


def configure_runner(
    *,
    jobs: int = 1,
    cache_dir: Optional[Path | str] = None,
    no_cache: bool = False,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    obs_out: Optional[Path | str] = None,
) -> RunnerOptions:
    """Set the process-wide runner options (used by bench_entry and tests)."""
    global _options, _cache, _aggregator
    _options = RunnerOptions(
        jobs=jobs,
        cache_dir=Path(cache_dir) if cache_dir else None,
        no_cache=no_cache,
        timeout=timeout,
        retries=retries,
        obs_out=Path(obs_out) if obs_out else None,
    )
    _cache = _options.make_cache()
    _aggregator = SweepAggregator() if _options.obs_out else None
    return _options


def active_cache() -> Optional[ResultCache]:
    """The shared cache instance (so hit/miss counters accumulate), if any."""
    global _cache
    if _cache is None and not _options.no_cache:
        _cache = _options.make_cache()
    return _cache


def active_aggregator() -> Optional[SweepAggregator]:
    """The shared sweep aggregator (telemetry accumulates across grids).

    Non-None exactly when ``--obs-out`` was given: every
    :func:`run_grid` in the process then traces its points and merges
    the telemetry here, and :func:`bench_entry` writes the combined
    artifacts once the report is done.
    """
    return _aggregator


def add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate up to N grid points in parallel worker processes",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory "
             "(default: $REPRO_CACHE_DIR when set, else no caching)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if $REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock timeout (supervised execution; a hung "
             "worker is killed and the point retried)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="failed attempts a point may accrue before the run fails "
             "(default 2 when supervising)",
    )
    parser.add_argument(
        "--obs-out", default=None, metavar="DIR",
        help="trace every simulated point and write the merged Perfetto "
             "trace, summary, and metrics JSON under DIR",
    )


def apply_runner_args(args: argparse.Namespace) -> RunnerOptions:
    """Configure the process-wide runner from parsed shared flags."""
    return configure_runner(
        jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache,
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", None),
        obs_out=getattr(args, "obs_out", None),
    )


def bench_entry(
    report: Callable[[], None],
    argv: Optional[Sequence[str]] = None,
    *,
    description: Optional[str] = None,
) -> int:
    """Standard ``__main__`` entrypoint for every benchmark script.

    Parses the shared runner flags, configures the process, runs the
    script's ``report()``, and prints the cache hit/miss summary when a
    cache was active.  Returns a process exit code.
    """
    parser = argparse.ArgumentParser(description=description)
    add_runner_args(parser)
    apply_runner_args(parser.parse_args(argv))
    report()
    cache = active_cache()
    if cache is not None:
        print(f"\n[{cache.summary()}]")
    aggregator = active_aggregator()
    if aggregator is not None and _options.obs_out is not None:
        paths = aggregator.write(_options.obs_out)
        print(f"\n[obs] merged {len(aggregator.points)} points from "
              f"{aggregator.workers} workers -> {paths['trace']}")
    return 0


def run_grid(
    points: Mapping[Any, Tuple[MachineConfig, Callable[[], Workload]]],
    *,
    check: bool = False,
) -> Dict[Any, SimStats]:
    """Simulate labeled (config, workload-factory) points; key -> stats.

    The one loop every figure/ablation benchmark shares: insertion order
    of ``points`` is the deterministic grid order (sharding, caching,
    and result assembly all follow it).  ``check`` verifies coherence
    after each point, as some ablations require.
    """
    labels = list(points)
    specs = [
        PointSpec(
            config=points[label][0],
            workload_factory=points[label][1],
            check=check,
            label=str(label),
        )
        for label in labels
    ]
    stats = run_points(
        specs, jobs=_options.jobs, cache=active_cache(),
        policy=_options.make_policy(), aggregate=active_aggregator(),
    )
    return dict(zip(labels, stats))


# -- result persistence -------------------------------------------------------


def _plain(value: Any) -> Any:
    """Coerce stats objects / numpy scalars / tuples into JSON-safe data."""
    if hasattr(value, "to_dict"):
        return _plain(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def save_results(name: str, data: Dict[str, Any]) -> Path:
    """Write ``results/<name>.json`` (schema-tagged); returns the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    record = {"schema": RESULTS_SCHEMA, **_plain(data)}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def stats_summary(stats) -> Dict[str, Any]:
    """The per-run numbers EXPERIMENTS.md quotes."""
    return {
        "exec_time": stats.exec_time,
        "total_messages": stats.total_messages,
        "requests": stats.requests,
        "replies": stats.replies,
        "invalidations": stats.invalidations,
        "acknowledgements": stats.acknowledgements,
        "invalidation_events": stats.invalidation_events(),
        "invalidations_sent": stats.invalidations_sent(),
        "avg_invals_per_event": round(stats.avg_invals_per_event, 4),
        "sparse_replacements": stats.sparse_replacements,
        "nb_evictions": stats.nb_evictions,
    }
