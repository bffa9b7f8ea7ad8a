"""Sweep runner tests."""

import pytest

from repro.analysis.sweeps import Sweep, load_results_dict, load_stats_dict
from repro.machine.stats import STATS_SCHEMA
from repro.apps import UniformRandomWorkload
from repro.machine import MachineConfig


def make_sweep(**kw):
    return Sweep(
        MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024),
        lambda: UniformRandomWorkload(4, refs_per_proc=40, heap_blocks=16),
        **kw,
    )


class TestSweep:
    def test_cartesian_grid(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full", "Dir2B"])
        sweep.add_axis("seed", [0, 1, 2])
        results = sweep.run()
        assert len(results) == 6
        assert results.axes == ["scheme", "seed"]

    def test_filter_and_metric_by(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full", "Dir2B", "Dir2NB"])
        results = sweep.run()
        sub = results.filter(scheme="full")
        assert len(sub) == 1
        by = results.metric_by("scheme", "total_messages")
        assert set(by) == {"full", "Dir2B", "Dir2NB"}
        assert all(v > 0 for v in by.values())

    def test_metric_by_requires_uniqueness(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full", "Dir2B"])
        sweep.add_axis("seed", [0, 1])
        results = sweep.run()
        with pytest.raises(ValueError, match="not unique"):
            results.metric_by("scheme", "exec_time")

    def test_table_output(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full"])
        results = sweep.run()
        out = results.table(["exec_time", "total_messages"])
        assert "exec_time" in out and "full" in out

    def test_callable_metrics(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full"])
        results = sweep.run()
        point = results.points[0]
        assert point.metric("invalidation_events") >= 0
        with pytest.raises(KeyError):
            point.metric("nonexistent_metric")

    def test_unknown_axis_rejected_early(self):
        sweep = make_sweep()
        with pytest.raises(TypeError):
            sweep.add_axis("not_a_config_field", [1])

    def test_duplicate_axis_rejected(self):
        sweep = make_sweep()
        sweep.add_axis("seed", [0])
        with pytest.raises(ValueError, match="already added"):
            sweep.add_axis("seed", [1])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            make_sweep().add_axis("seed", [])

    def test_run_without_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            make_sweep().run()

    def test_progress_callback(self):
        seen = []
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full", "Dir2B"])
        sweep.run(progress=lambda ov, st: seen.append(ov["scheme"]))
        assert seen == ["full", "Dir2B"]

    def test_sweep_deterministic(self):
        def run_once():
            sweep = make_sweep()
            sweep.add_axis("scheme", ["Dir2NB"])
            return sweep.run().points[0].metric("total_messages")

        assert run_once() == run_once()


class TestSchemaLoaders:
    def test_stats_v1_unversioned_upgrades(self):
        out = load_stats_dict({"exec_time": 100, "total_messages": 5})
        assert out["schema"] == STATS_SCHEMA
        assert out["exec_time"] == 100
        assert list(out)[0] == "schema"

    def test_stats_v2_passes_through(self):
        out = load_stats_dict({"schema": 2, "exec_time": 100})
        assert out == {"schema": STATS_SCHEMA, "exec_time": 100}

    def test_stats_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported stats schema"):
            load_stats_dict({"schema": STATS_SCHEMA + 1})

    def test_stats_bogus_schema_rejected(self):
        with pytest.raises(ValueError):
            load_stats_dict({"schema": "two"})

    def test_stats_roundtrips_live_output(self):
        sweep = make_sweep()
        sweep.add_axis("scheme", ["full"])
        stats = sweep.run().points[0].stats
        out = load_stats_dict(stats.to_dict())
        assert out["schema"] == STATS_SCHEMA
        assert out["exec_time"] == stats.exec_time

    def test_results_v1_header_free(self):
        assert load_results_dict({"rows": [1, 2]}) == {"rows": [1, 2]}

    def test_results_v2_header_stripped(self):
        assert load_results_dict({"schema": 2, "rows": [1]}) == {"rows": [1]}

    def test_results_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported results schema"):
            load_results_dict({"schema": 99})

    def test_results_schema_versions_apart_from_stats(self, monkeypatch):
        """``results/*.json`` headers are read against the results
        schema (one constant, next to the loader, which the writer in
        ``benchmarks/common.py`` imports), whatever ``STATS_SCHEMA`` is."""
        from repro.analysis import sweeps

        monkeypatch.setattr(sweeps, "STATS_SCHEMA", sweeps.RESULTS_SCHEMA + 5)
        with pytest.raises(ValueError, match="unsupported results schema"):
            load_results_dict({"schema": sweeps.RESULTS_SCHEMA + 1})
        monkeypatch.setattr(sweeps, "STATS_SCHEMA", 1)
        assert load_results_dict(
            {"schema": sweeps.RESULTS_SCHEMA, "rows": [1]}
        ) == {"rows": [1]}

    def test_results_on_disk_files_load(self):
        import json
        from pathlib import Path

        results = Path(__file__).resolve().parent.parent / "results"
        for path in sorted(results.glob("*.json")):
            data = json.loads(path.read_text())
            assert data.get("schema") == 2, path.name
            body = load_results_dict(data)
            assert "schema" not in body
