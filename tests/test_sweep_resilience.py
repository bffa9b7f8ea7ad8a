"""Resilience suite: supervision, timeouts, retries, chaos, and resume.

The acceptance properties from the resilient-execution work:

* a worker SIGKILLed mid-sweep is detected, its point retried, and the
  final results are byte-identical to a serial uncached run;
* a hung point trips the per-point timeout and is quarantined under
  ``keep_going`` (or raises :class:`PointTimeout` in fail-fast mode);
* an interrupted sweep flushes in-flight results to the cache, and a
  resumed run executes only the missing points;
* a worker that dies on ``SystemExit``/``KeyboardInterrupt`` surfaces
  as :class:`WorkerDied` instead of deadlocking the parent;
* an exception escaping the ``progress`` callback terminates workers
  promptly instead of joining them to completion, surfaces as raised,
  and leaves the parent's signal handlers as it found them;
* retry/timeout/quarantine observability is emitted only when those
  events actually occur (the zero-cost guarantee holds).
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.analysis.cache import ResultCache, point_key
from repro.analysis.supervisor import (
    ChaosError,
    ChaosPlan,
    PointTimeout,
    SupervisorPolicy,
    SweepInterrupted,
    SweepReport,
    WorkerDied,
    sweep_key,
)
from repro.analysis.sweeps import PointSpec, Sweep, run_points
from repro.apps import UniformRandomWorkload
from repro.machine import MachineConfig
from repro.obs.dashboard import SweepMonitor
from repro.obs.tracer import Tracer

METRICS = ["exec_time", "total_messages", "invalidation_events"]


def small_config(**overrides):
    cfg = MachineConfig(num_clusters=4, l1_bytes=256, l2_bytes=1024)
    return cfg.with_(**overrides) if overrides else cfg


def small_factory():
    return UniformRandomWorkload(4, refs_per_proc=40, heap_blocks=16)


def make_sweep():
    sweep = Sweep(small_config(), small_factory)
    sweep.add_axis("scheme", ["full", "Dir2B", "Dir1NB"])
    sweep.add_axis("sparse_size_factor", [None, 1.0])
    return sweep


def make_specs(schemes=("full", "Dir2B", "Dir1NB", "Dir1B")):
    return [
        PointSpec(
            config=small_config(scheme=s),
            workload_factory=small_factory,
            label=f"scheme={s}",
        )
        for s in schemes
    ]


def stats_dicts(stats_list):
    return [s.to_dict() if s is not None else None for s in stats_list]


class TestChaosDeterminism:
    def test_sigkilled_workers_retried_to_identical_results(self):
        """Every point's worker is SIGKILLed on attempt 1; retry converges."""
        baseline = make_sweep().run().table(METRICS)
        report = SweepReport()
        policy = SupervisorPolicy(
            chaos=ChaosPlan(seed=1, kill=1.0, hang=0.0, fail=0.0),
            max_retries=2, backoff=0.01,
        )
        table = make_sweep().run(
            jobs=2, policy=policy, report=report
        ).table(METRICS)
        assert table == baseline
        counts = report.counts()
        assert counts["completed"] == 6
        assert counts["retries"] == 6  # one kill per point, once=True

    def test_injected_failures_retried_to_identical_results(self):
        baseline = make_sweep().run().table(METRICS)
        report = SweepReport()
        policy = SupervisorPolicy(
            chaos=ChaosPlan(seed=2, kill=0.0, hang=0.0, fail=1.0),
            max_retries=2, backoff=0.01,
        )
        table = make_sweep().run(
            jobs=2, policy=policy, report=report
        ).table(METRICS)
        assert table == baseline
        assert report.counts()["retries"] == 6

    def test_seeded_mixed_chaos_identical(self):
        """The CLI-style seeded plan (kills + failures) still converges."""
        baseline = stats_dicts(run_points(make_specs()))
        policy = SupervisorPolicy(
            chaos=ChaosPlan(seed=7, hang=0.0), max_retries=3, backoff=0.01,
            retry_errors=True,
        )
        chaotic = stats_dicts(run_points(make_specs(), jobs=2, policy=policy))
        assert chaotic == baseline

    def test_chaos_requires_workers(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.sweeps.fork_context", lambda: None
        )
        policy = SupervisorPolicy(chaos=ChaosPlan(seed=0))
        with pytest.raises(RuntimeError, match="fork"):
            run_points(make_specs(), jobs=2, policy=policy)


class TestChaosPlan:
    def test_draws_are_deterministic_per_index(self):
        plan = ChaosPlan(seed=3)
        draws = [plan.action(i) for i in range(64)]
        assert draws == [plan.action(i) for i in range(64)]
        assert {"kill", "fail", None} <= set(draws)

    def test_explicit_actions_override_draws(self):
        plan = ChaosPlan(actions={1: "fail"})
        assert plan.action(1) == "fail"
        assert plan.action(0) is None

    def test_strike_fires_only_on_first_attempt_when_once(self):
        plan = ChaosPlan(actions={0: "fail"}, once=True)
        with pytest.raises(ChaosError):
            plan.strike(0, attempt=1)
        plan.strike(0, attempt=2)  # no-op: retry must converge

    def test_strike_repeats_when_once_disabled(self):
        plan = ChaosPlan(actions={0: "fail"}, once=False)
        for attempt in (1, 2, 3):
            with pytest.raises(ChaosError):
                plan.strike(0, attempt=attempt)


class TestTimeouts:
    def test_hung_point_quarantined_under_keep_going(self):
        """A point that hangs on every attempt is timed out and skipped."""
        policy = SupervisorPolicy(
            chaos=ChaosPlan(actions={2: "hang"}, once=False, hang_seconds=60),
            timeout=0.4, max_retries=1, backoff=0.01, keep_going=True,
        )
        report = SweepReport()
        seen = []
        stats = run_points(
            make_specs(), jobs=2, policy=policy, report=report,
            progress=lambda i, s: seen.append(i),
        )
        assert stats[2] is None
        assert all(stats[i] is not None for i in (0, 1, 3))
        assert seen == [0, 1, 3]  # grid order, quarantined point skipped
        outcome = report.outcomes[2]
        assert outcome.status == "timed-out"
        assert "timeout" in (outcome.error or "")
        assert [o.index for o in report.quarantined] == [2]

    def test_timeout_fail_fast_raises_point_timeout(self):
        policy = SupervisorPolicy(
            chaos=ChaosPlan(actions={1: "hang"}, once=False, hang_seconds=60),
            timeout=0.4, max_retries=0, backoff=0.01,
        )
        report = SweepReport()
        with pytest.raises(PointTimeout):
            run_points(make_specs(), jobs=2, policy=policy, report=report)
        assert report.outcomes[1].status == "failed"


class TestWorkerDeath:
    @pytest.mark.parametrize("exc_type", [SystemExit, KeyboardInterrupt])
    def test_worker_death_surfaces_not_swallowed(self, exc_type):
        """BaseException in a worker kills it; the parent sees WorkerDied.

        The old worker loop caught BaseException and relayed it as a
        point failure, swallowing Ctrl-C and explicit exits.
        """
        def dying_factory():
            raise exc_type("worker goes down")

        specs = make_specs(("full", "Dir2B"))
        specs[1] = PointSpec(
            config=small_config(), workload_factory=dying_factory
        )
        with pytest.raises(WorkerDied):
            run_points(specs, jobs=2, policy=SupervisorPolicy(max_retries=0))

    def test_supervised_retries_death_then_raises(self):
        def dying_factory():
            raise SystemExit(3)

        specs = make_specs(("full", "Dir2B"))
        specs[1] = PointSpec(
            config=small_config(), workload_factory=dying_factory,
            label="poison",
        )
        report = SweepReport()
        policy = SupervisorPolicy(max_retries=1, backoff=0.01)
        with pytest.raises(WorkerDied):
            run_points(specs, jobs=2, policy=policy, report=report)
        outcome = report.outcomes[1]
        assert outcome.status == "failed"
        assert outcome.retries == 1  # death is always retried, then permanent

    def test_unsupervised_parallel_run_does_not_hang(self):
        """Even without a policy, jobs>1 must survive a worker death."""
        def dying_factory():
            raise SystemExit(1)

        specs = make_specs(("full", "Dir2B", "Dir1NB"))
        specs[2] = PointSpec(
            config=small_config(), workload_factory=dying_factory
        )
        # the supervised default retries the death; each retry dies again,
        # so the sweep fails cleanly instead of deadlocking
        with pytest.raises(WorkerDied):
            run_points(specs, jobs=2)


class TestCallbackFailure:
    def test_progress_exception_terminates_workers(self):
        """A raising callback must not join a busy worker to completion."""
        def slow_factory():
            time.sleep(30.0)
            return small_factory()

        specs = make_specs(("full", "Dir2B"))
        specs[1] = PointSpec(config=small_config(), workload_factory=slow_factory)

        def boom(i, stats):
            raise RuntimeError("callback boom")

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="callback boom"):
            run_points(specs, jobs=2, progress=boom)
        assert time.monotonic() - t0 < 10.0
        assert multiprocessing.active_children() == []

    def test_progress_exception_unwinds_cleanly(self):
        """The *first* callback exception surfaces, every worker is torn
        down, and the parent's signal dispositions come back.

        While ``boom`` sleeps the other fast points finish, so the pipes
        hold results at unwind time: shutdown used to drain them into
        the callback again (a second exception replacing the first,
        before the workers were stopped or the handlers restored).
        """
        calls = []

        def boom(i, stats):
            calls.append(i)
            time.sleep(0.3)
            raise RuntimeError(f"callback boom {len(calls)}")

        sigint, sigterm = (signal.getsignal(s)
                           for s in (signal.SIGINT, signal.SIGTERM))
        with pytest.raises(RuntimeError, match="callback boom 1"):
            run_points(make_specs() + make_specs(), jobs=2, progress=boom)
        assert calls == [0]
        assert signal.getsignal(signal.SIGINT) is sigint
        assert signal.getsignal(signal.SIGTERM) is sigterm
        assert multiprocessing.active_children() == []


class TestKeepGoingQuarantine:
    def test_poison_point_quarantined_parallel(self):
        specs = make_specs(("full", "Dir2B", "no-such-scheme", "Dir1NB"))
        policy = SupervisorPolicy(max_retries=0, keep_going=True)
        report = SweepReport()
        seen = []
        stats = run_points(
            specs, jobs=2, policy=policy, report=report,
            progress=lambda i, s: seen.append(i),
        )
        assert stats[2] is None
        assert all(stats[i] is not None for i in (0, 1, 3))
        assert seen == [0, 1, 3]
        assert report.outcomes[2].status == "quarantined"

    def test_poison_point_quarantined_serial(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.sweeps.fork_context", lambda: None
        )
        specs = make_specs(("full", "no-such-scheme", "Dir2B"))
        policy = SupervisorPolicy(max_retries=0, keep_going=True)
        report = SweepReport()
        stats = run_points(specs, policy=policy, report=report)
        assert stats[1] is None
        assert stats[0] is not None and stats[2] is not None
        assert report.outcomes[1].status == "quarantined"

    def test_serial_retry_of_transient_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.sweeps.fork_context", lambda: None
        )
        calls = {"n": 0}

        def flaky_factory():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return small_factory()

        specs = [PointSpec(config=small_config(), workload_factory=flaky_factory)]
        policy = SupervisorPolicy(max_retries=2, retry_errors=True, backoff=0.0)
        report = SweepReport()
        stats = run_points(specs, policy=policy, report=report)
        assert stats[0] is not None
        assert report.outcomes[0].retries == 1
        assert report.outcomes[0].status == "completed"


class RecordingMonitor(SweepMonitor):
    """Every lifecycle callback, minus what legitimately differs between
    drivers: the worker pid, wall times, and the forked loop's ticks."""

    def __init__(self):
        self.calls = []

    def begin(self, *, total, jobs):
        self.calls.append(("begin", total, jobs))

    def point_cached(self, index, label):
        self.calls.append(("cached", index, label))

    def point_started(self, index, label, worker):
        self.calls.append(("started", index, label))

    def point_done(self, index, label, wall_s):
        self.calls.append(("done", index, label))

    def point_retry(self, index, label, kind):
        self.calls.append(("retry", index, label, kind))

    def point_quarantined(self, index, label):
        self.calls.append(("quarantined", index, label))

    def finish(self):
        self.calls.append(("finish",))


class TestEngineParity:
    """The in-process and the forked driver are one engine: the same
    grid resolves to the same results *and the same records* on both."""

    OBS_NAMES = (
        "sweep_cache_hits", "sweep_cache_misses", "sweep_retries",
        "sweep_timeouts", "sweep_quarantined",
    )

    def observe(self, root, policy, monkeypatch, *, fork):
        """One pass over the grid (a poison point, a factory failing
        once, three good points) with every sink attached."""
        root.mkdir(exist_ok=True)

        def flaky_factory():
            # counted on disk, so forked workers see it: a pass's first
            # call hashes the point for the cache (in the parent), the
            # very first attempt to simulate it fails
            calls = len(list(root.glob("flaky-call-*")))
            (root / f"flaky-call-{calls}").touch()
            if calls == 1:
                raise RuntimeError("transient")
            return small_factory()

        specs = make_specs(("full", "no-such-scheme", "Dir1B", "Dir2B", "Dir1NB"))
        specs[2] = PointSpec(
            config=specs[2].config, workload_factory=flaky_factory,
            label="flaky",
        )
        keys = [point_key(s.config, small_factory(), check=s.check) for s in specs]
        cache = ResultCache(root)
        report, tracer, monitor = SweepReport(), Tracer(), RecordingMonitor()
        seen = []
        error = None
        with monkeypatch.context() as patch:
            if not fork:
                patch.setattr("repro.analysis.sweeps.fork_context", lambda: None)
            try:
                stats = run_points(
                    specs, cache=cache, policy=policy, report=report,
                    obs=tracer, monitor=monitor,
                    progress=lambda i, s: seen.append(i),
                )
            except Exception as exc:
                stats, error = [], f"{type(exc).__name__}: {exc}"
        outcomes = report.to_dict()
        for point in outcomes["points"]:
            point["wall"] = None
        return {
            "stats": stats_dicts(stats),
            "error": error,
            "progress": seen,
            "report": outcomes,
            "done": [key in cache for key in keys],
            "cache": cache.counters(),
            "events": {
                name: tracer.counts[name]
                for name in ("sweep.point", "sweep.retry")
            },
            "counters": {
                name: tracer.metrics.counter(name).value
                for name in self.OBS_NAMES
            },
            "monitor": monitor.calls,
        }

    def test_keep_going_records_identical(self, tmp_path, monkeypatch):
        policy = SupervisorPolicy(
            max_retries=1, retry_errors=True, backoff=0.0, keep_going=True
        )
        inproc = self.observe(tmp_path / "in", policy, monkeypatch, fork=False)
        forked = self.observe(tmp_path / "fk", policy, monkeypatch, fork=True)
        assert inproc == forked
        # ...and the shared record is the right one
        assert inproc["progress"] == [0, 2, 3, 4]
        assert inproc["stats"][1] is None
        assert inproc["report"]["counts"]["completed"] == 4
        assert inproc["report"]["counts"]["quarantined"] == 1
        assert inproc["report"]["counts"]["retries"] == 2  # flaky + poison
        assert inproc["done"] == [True, False, True, True, True]
        assert inproc["events"] == {"sweep.point": 4, "sweep.retry": 2}
        assert inproc["counters"]["sweep_cache_misses"] == 5
        assert inproc["monitor"][:3] == [
            ("begin", 5, 1), ("started", 0, "scheme=full"),
            ("done", 0, "scheme=full"),
        ]

        # a warm second pass: hits are recorded identically too
        warm_in = self.observe(tmp_path / "in", policy, monkeypatch, fork=False)
        warm_fk = self.observe(tmp_path / "fk", policy, monkeypatch, fork=True)
        assert warm_in == warm_fk
        assert warm_in["counters"]["sweep_cache_hits"] == 4
        assert warm_in["report"]["counts"]["cached"] == 4
        assert warm_in["stats"] == inproc["stats"]

    def test_fail_fast_marks_remainder_skipped(self, tmp_path, monkeypatch):
        """Fail-fast stops at the poison point on both drivers, and both
        account for the unstarted remainder as ``skipped``."""
        policy = SupervisorPolicy(max_retries=1, retry_errors=True, backoff=0.0)
        inproc = self.observe(tmp_path / "in", policy, monkeypatch, fork=False)
        forked = self.observe(tmp_path / "fk", policy, monkeypatch, fork=True)
        assert inproc == forked
        assert inproc["error"] is not None and "no-such-scheme" in inproc["error"]
        assert inproc["progress"] == [0]
        statuses = {p["index"]: p["status"] for p in inproc["report"]["points"]}
        assert statuses == {
            0: "completed", 1: "failed", 2: "skipped", 3: "skipped",
            4: "skipped",
        }


class TestInterruptAndResume:
    def test_interrupt_flushes_then_resume_runs_only_missing(self, tmp_path):
        """SIGINT mid-sweep: completed points reach the cache; resume
        serves them as hits and simulates only what is missing."""
        specs = make_sweep().specs()
        keys = [
            point_key(s.config, s.workload_factory(), check=s.check)
            for s in specs
        ]

        cache = ResultCache(tmp_path)

        def interrupt_after_first(i, stats):
            if i == 0:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted):
            run_points(
                specs, jobs=2, cache=cache,
                policy=SupervisorPolicy(), progress=interrupt_after_first,
            )
        flushed = cache.counters()["stores"]
        assert flushed >= 1  # in-flight results were drained to the cache

        # the cache is the record of progress: nothing else is written
        warm = ResultCache(tmp_path)
        assert sum(key in warm for key in keys) == flushed
        assert not (tmp_path / "manifests").exists()

        stats = run_points(
            specs, jobs=2, cache=warm, policy=SupervisorPolicy(),
        )
        assert all(s is not None for s in stats)
        assert warm.counters()["hits"] == flushed
        assert warm.counters()["stores"] == len(specs) - flushed
        # the combined (cached + resumed) results match a plain serial run
        assert stats_dicts(stats) == stats_dicts(run_points(specs))

class TestReport:
    def test_report_round_trips_as_json(self, tmp_path):
        report = SweepReport()
        report.mark_cached(0, "a")
        report.mark_retry(1, "death", "b")
        report.mark_completed(1, "b", wall=0.5)
        report.mark_quarantined(2, RuntimeError("boom"), label="c")
        path = report.save(tmp_path / "report.json")
        record = json.loads(path.read_text())
        assert record["schema"] == 1
        assert record["counts"]["completed"] == 1
        assert record["counts"]["cached"] == 1
        assert record["counts"]["retries"] == 1
        assert record["counts"]["quarantined"] == 1
        statuses = {p["index"]: p["status"] for p in record["points"]}
        assert statuses == {0: "cached", 1: "completed", 2: "quarantined"}
        assert "1 retries" in report.summary()
        assert "1 quarantined" in report.summary()

    def test_sweep_key_is_the_ordered_keys(self):
        keys = ["a" * 64, "b" * 64]
        assert sweep_key(keys) == sweep_key(list(keys))
        assert sweep_key(list(reversed(keys))) != sweep_key(keys)
        assert sweep_key(keys[:1]) != sweep_key(keys)


class TestPolicy:
    def test_death_and_timeout_always_retryable(self):
        policy = SupervisorPolicy()
        assert policy.retryable("death")
        assert policy.retryable("timeout")
        assert not policy.retryable("error")
        assert SupervisorPolicy(retry_errors=True).retryable("error")


class TestObsResilience:
    def test_retry_events_and_counters_emitted(self):
        tracer = Tracer()
        policy = SupervisorPolicy(
            chaos=ChaosPlan(seed=2, kill=0.0, hang=0.0, fail=1.0),
            max_retries=2, backoff=0.01,
        )
        run_points(make_specs(), jobs=2, policy=policy, obs=tracer)
        retries = [e for e in tracer.events() if e.name == "sweep.retry"]
        assert len(retries) == 4
        assert all(e.args["kind"] == "error" for e in retries)
        assert tracer.metrics.counter("sweep_retries").value == 4

    def test_zero_cost_without_faults(self):
        """With no faults, supervision emits nothing beyond PR 4's output."""
        tracer = Tracer()
        run_points(
            make_specs(), jobs=2, policy=SupervisorPolicy(timeout=30.0),
            obs=tracer,
        )
        names = {e.name for e in tracer.events()}
        assert names == {"sweep.point"}
        assert tracer.metrics.counter("sweep_retries").value == 0
        assert tracer.metrics.counter("sweep_timeouts").value == 0
        assert tracer.metrics.counter("sweep_quarantined").value == 0
