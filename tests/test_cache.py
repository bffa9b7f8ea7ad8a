"""Content-addressed result cache: keys, round-trips, corruption recovery."""

import json
import os
import time

import pytest

from repro.analysis.cache import (
    ResultCache,
    code_fingerprint,
    point_key,
)
from repro.analysis.sweeps import PointSpec, run_points
from repro.apps import UniformRandomWorkload
from repro.machine import MachineConfig, run_workload
from repro.machine.stats import SimStats
from repro.trace.event import Lock, Read, Work, Write
from repro.trace.scripted import ScriptedWorkload


def small_config(**overrides):
    cfg = MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024)
    return cfg.with_(**overrides) if overrides else cfg


def small_workload(seed=0):
    return UniformRandomWorkload(4, refs_per_proc=40, heap_blocks=16, seed=seed)


def small_stats():
    return run_workload(small_config(), small_workload())


class TestFingerprints:
    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_config_fields_canonical_and_complete(self):
        fields = small_config().cache_key_fields()
        assert list(fields) == sorted(fields)
        assert fields["num_clusters"] == 4
        assert fields["scheme"] == "full"
        # every field is JSON-safe as-is
        json.dumps(fields)

    def test_workload_fingerprint_captures_params(self):
        fp = small_workload().fingerprint()
        assert "UniformRandomWorkload" in fp["class"]
        assert fp["attrs"]["seed"] == 0
        assert fp["attrs"]["num_processors"] == 4
        json.dumps(fp)

    def test_key_stable_across_equal_inputs(self):
        k1 = point_key(small_config(), small_workload())
        k2 = point_key(small_config(), small_workload())
        assert k1 == k2

    def test_key_changes_with_config(self):
        base = point_key(small_config(), small_workload())
        assert point_key(small_config(scheme="Dir2B"), small_workload()) != base
        assert point_key(small_config(seed=1), small_workload()) != base

    def test_key_changes_with_workload_seed(self):
        base = point_key(small_config(), small_workload())
        assert point_key(small_config(), small_workload(seed=3)) != base

    def test_key_changes_with_check_flag(self):
        base = point_key(small_config(), small_workload())
        assert point_key(small_config(), small_workload(), check=True) != base

    def test_scripts_differing_only_in_op_class_get_their_own_entries(
        self, tmp_path
    ):
        """The fingerprint used to flatten ``Read(16)`` and ``Write(16)``
        both to ``[16]``: one key, so the cache served the first script's
        stats for the second."""
        cfg = MachineConfig(num_clusters=2)
        scripts = (
            [[Read(16)], [Work(16)]],
            [[Write(16)], [Lock(16)]],
        )
        keys = [point_key(cfg, ScriptedWorkload(s)) for s in scripts]
        assert keys[0] != keys[1]
        specs = [
            PointSpec(cfg, lambda s=s: ScriptedWorkload(s)) for s in scripts
        ]
        cache = ResultCache(tmp_path)
        cold = [run_points([spec], cache=cache)[0] for spec in specs]
        warm = [run_points([spec], cache=cache)[0] for spec in specs]
        assert (cache.stores, cache.hits) == (2, 2)
        assert cold[0].to_dict() != cold[1].to_dict()
        assert [s.to_dict() for s in warm] == [s.to_dict() for s in cold]
        assert cold[1].to_dict() == run_workload(
            cfg, ScriptedWorkload(scripts[1])
        ).to_dict()


class TestStatsStateRoundTrip:
    def test_round_trip_preserves_report(self):
        stats = small_stats()
        clone = SimStats.from_state(
            json.loads(json.dumps(stats.to_state()))
        )
        assert clone.to_dict() == stats.to_dict()
        assert clone.inval_distribution() == stats.inval_distribution()
        assert clone.procs == stats.procs

    def test_bad_state_raises(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            SimStats.from_state({"num_processors": 2, "procs": []})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        assert cache.get(key) is None
        stats = small_stats()
        cache.put(key, stats)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == stats.to_dict()
        assert cache.counters() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0, "orphans": 0,
        }

    def test_miss_after_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(point_key(small_config(), small_workload()), small_stats())
        other = point_key(small_config(scheme="Dir2B"), small_workload())
        assert cache.get(other) is None

    def test_corrupt_json_counts_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        path = cache.put(key, small_stats())
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_key_mismatch_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        path = cache.put(key, small_stats())
        record = json.loads(path.read_text())
        record["key"] = "0" * 64
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_malformed_stats_payload_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        path = cache.put(key, small_stats())
        record = json.loads(path.read_text())
        del record["stats"]["messages"]
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_truncated_entry_counts_as_corrupt(self, tmp_path):
        """A writer killed mid-write must read as corruption, not garbage."""
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        path = cache.put(key, small_stats())
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_summary_mentions_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("ab" * 32)
        assert "1 misses" in cache.summary()


class TestOrphanSweep:
    def stale_tmp(self, root, name="deadbeef.json12345.tmp"):
        sub = root / name[:2]
        sub.mkdir(parents=True, exist_ok=True)
        tmp = sub / name
        tmp.write_text("{ partial")
        old = time.time() - 7200
        os.utime(tmp, (old, old))
        return tmp

    def test_old_tmp_files_swept_on_startup(self, tmp_path):
        stale = self.stale_tmp(tmp_path)
        fresh = tmp_path / "de" / "cafef00d.json67890.tmp"
        fresh.write_text("{ in flight")
        cache = ResultCache(tmp_path)
        assert not stale.exists()  # aged orphan removed
        assert fresh.exists()  # live writer's temp file kept
        assert cache.counters()["orphans"] == 1
        assert "1 orphans swept" in cache.summary()

    def test_sweep_can_be_disabled(self, tmp_path):
        stale = self.stale_tmp(tmp_path)
        cache = ResultCache(tmp_path, sweep_orphans=False)
        assert stale.exists()
        assert cache.counters()["orphans"] == 0

    def test_checkpoint_temp_files_are_swept_but_snapshots_kept(self, tmp_path):
        """A worker SIGKILLed mid-snapshot leaks ``pointNNNNN.ckpt.tmp``
        under ``<root>/checkpoints/``; the sweep collects it while the
        committed ``.ckpt`` beside it — the resume point — survives."""
        ckpt_dir = tmp_path / "checkpoints" / "abcd1234"  # nested like the CLI
        ckpt_dir.mkdir(parents=True)
        snapshot = ckpt_dir / "point00003.ckpt"
        snapshot.write_bytes(b"committed snapshot")
        torn = ckpt_dir / "point00003.ckpt.tmp"
        torn.write_bytes(b"half-written")
        old = time.time() - 7200
        os.utime(torn, (old, old))
        cache = ResultCache(tmp_path)
        assert not torn.exists()
        assert snapshot.exists()
        assert cache.counters()["orphans"] == 1

    def test_orphans_never_shadow_entries(self, tmp_path):
        """An orphaned temp file beside a valid entry does not affect reads."""
        cache = ResultCache(tmp_path)
        key = point_key(small_config(), small_workload())
        cache.put(key, small_stats())
        self.stale_tmp(tmp_path, name=f"{key}.json999.tmp")
        again = ResultCache(tmp_path)
        assert again.counters()["orphans"] == 1
        assert again.get(key) is not None
