"""Determinism suite for the parallel sweep runner and result cache.

The acceptance properties from the parallel-execution work:

* serial and ``jobs=2/4`` runs produce byte-identical tables and
  figure JSON;
* a warm cache makes a rerun execute **zero** simulations;
* changing the config produces a cache miss;
* a corrupted cache entry falls back to simulation without crashing;
* the progress callback fires once per completed point, in grid order,
  on every path — including when a point raises mid-grid.
"""

import json

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.supervisor import SweepReport
from repro.analysis.sweeps import PointSpec, Sweep, run_points
from repro.apps import UniformRandomWorkload
from repro.machine import MachineConfig

METRICS = ["exec_time", "total_messages", "invalidation_events"]


def make_sweep(check=False):
    base = MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024)
    sweep = Sweep(
        base,
        lambda: UniformRandomWorkload(4, refs_per_proc=40, heap_blocks=16),
        check_coherence=check,
    )
    sweep.add_axis("scheme", ["full", "Dir2B", "Dir1NB"])
    sweep.add_axis("sparse_size_factor", [None, 1.0])
    return sweep


def run_table(**kwargs):
    return make_sweep().run(**kwargs).table(METRICS)


class TestParallelDeterminism:
    def test_jobs2_table_identical_to_serial(self):
        assert run_table(jobs=2) == run_table()

    def test_jobs4_table_identical_to_serial(self):
        assert run_table(jobs=4) == run_table()

    def test_jobs_exceeding_grid_size(self):
        assert run_table(jobs=32) == run_table()

    def test_figure_json_identical(self):
        serial = make_sweep().run()
        parallel = make_sweep().run(jobs=2)
        to_json = lambda r: json.dumps(  # noqa: E731
            {
                "series": {
                    str(p.override("scheme")): p.metric("exec_time")
                    for p in r.filter(sparse_size_factor=None)
                }
            },
            indent=2,
            sort_keys=True,
        )
        assert to_json(parallel) == to_json(serial)

    def test_grid_order_is_cartesian(self):
        grid = make_sweep().grid()
        assert len(grid) == 6
        assert grid[0] == {"scheme": "full", "sparse_size_factor": None}
        assert grid[1] == {"scheme": "full", "sparse_size_factor": 1.0}
        assert grid[-1] == {"scheme": "Dir1NB", "sparse_size_factor": 1.0}


class TestCacheIntegration:
    def test_hit_after_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = make_sweep().run(cache=cache).table(METRICS)
        assert cache.counters()["misses"] == 6
        assert cache.counters()["stores"] == 6
        second = make_sweep().run(cache=cache).table(METRICS)
        assert second == first
        assert cache.counters()["hits"] == 6

    def test_warm_rerun_executes_zero_simulations(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        baseline = make_sweep().run(cache=cache).table(METRICS)

        def boom(*args, **kwargs):
            raise AssertionError("simulated on a warm cache")

        monkeypatch.setattr("repro.analysis.supervisor.execute_point", boom)
        table = make_sweep().run(jobs=4, cache=cache).table(METRICS)
        assert table == baseline

    def test_miss_after_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        make_sweep().run(cache=cache)
        sweep = make_sweep()
        sweep.base = sweep.base.with_(l1_bytes=512)
        sweep.run(cache=cache)
        counters = cache.counters()
        assert counters["hits"] == 0
        assert counters["misses"] == 12

    def test_corrupted_entry_falls_back_to_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        baseline = make_sweep().run(cache=cache).table(METRICS)
        for entry in sorted(tmp_path.rglob("*.json")):
            entry.write_text("garbage")
        again = make_sweep().run(cache=cache).table(METRICS)
        assert again == baseline
        assert cache.counters()["corrupt"] == 6

    def test_parallel_with_cache_matches_serial(self, tmp_path):
        cold = ResultCache(tmp_path / "a")
        assert make_sweep().run(jobs=2, cache=cold).table(METRICS) == run_table()
        assert cold.counters()["stores"] == 6


class TestProgressContract:
    def test_fires_once_per_point_in_grid_order(self):
        for jobs in (1, 2, 4):
            seen = []
            make_sweep().run(
                jobs=jobs,
                progress=lambda ov, stats: seen.append(dict(ov)),
            )
            assert seen == make_sweep().grid(), f"jobs={jobs}"

    def test_fires_after_stats_final(self):
        rows = []
        make_sweep().run(
            progress=lambda ov, stats: rows.append(stats.exec_time)
        )
        assert all(t > 0 for t in rows)

    def test_cache_hits_also_fire(self, tmp_path):
        cache = ResultCache(tmp_path)
        make_sweep().run(cache=cache)
        seen = []
        make_sweep().run(
            cache=cache, progress=lambda ov, stats: seen.append(dict(ov))
        )
        assert seen == make_sweep().grid()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_covers_exact_prefix(self, jobs):
        base = MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024)
        factory = lambda: UniformRandomWorkload(  # noqa: E731
            4, refs_per_proc=40, heap_blocks=16
        )
        specs = [
            PointSpec(config=base.with_(scheme=s), workload_factory=factory)
            for s in ("full", "Dir2B", "no-such-scheme", "Dir1NB")
        ]
        seen = []
        with pytest.raises(Exception):
            run_points(
                specs, jobs=jobs, progress=lambda i, stats: seen.append(i)
            )
        assert seen == [0, 1], f"jobs={jobs}"


class TestObsIntegration:
    """What a sweep records about each point: the result cache counts
    hits and misses, the report holds one outcome per point."""

    def test_span_per_point_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = SweepReport()
        make_sweep().run(jobs=2, cache=cache, report=report)
        assert cache.counters()["misses"] == 6
        assert cache.counters()["hits"] == 0
        assert [o.status for o in report.outcomes.values()] == ["completed"] * 6

        warm, warm_report = ResultCache(tmp_path), SweepReport()
        make_sweep().run(cache=warm, report=warm_report)
        assert warm.counters()["hits"] == 6
        assert warm.counters()["misses"] == 0
        assert [o.status for o in warm_report.outcomes.values()] == ["cached"] * 6

    def test_labels_mention_overrides(self):
        report = SweepReport()
        make_sweep().run(report=report)
        labels = [report.outcomes[i].label for i in range(6)]
        assert labels[0] == "scheme=full,sparse_size_factor=None"
