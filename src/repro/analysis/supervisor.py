"""Supervised sweep execution: liveness, timeouts, retries, and chaos.

Long unattended sweeps — every figure, ablation, and CI gate — need the
harness itself to survive partial failure: a worker that is OOM-killed,
segfaults, or wedges on a pathological configuration must cost a retry,
not the sweep.  This module is the one engine behind
:func:`repro.analysis.sweeps.run_points`:

* :func:`execute_point` — the single function that simulates one
  attempt of one point, called by forked workers and by the in-process
  driver alike;
* :class:`~repro.analysis.sweeps.PointLedger` (next door) — the one
  writer of a point's fate: every resolution reaches the cache, the
  report's :class:`PointOutcome`, the aggregator and the ``progress``
  prefix through it;
* :class:`SupervisedRunner` — one failure policy over two drivers: a
  supervisor loop that dispatches points to forked workers over
  per-worker pipes, monitors liveness through process sentinels and
  exit codes, and never blocks without a timeout; and a short
  in-process loop for when no workers are needed (or fork is
  unavailable);
* per-point **wall-clock timeouts** — a hung worker is SIGKILLed and its
  point rescheduled;
* **bounded retry with exponential backoff** for points whose worker
  died (always) and for points that raised (when
  :attr:`SupervisorPolicy.retry_errors` is set, as the chaos harness
  does);
* **quarantine** under :attr:`SupervisorPolicy.keep_going` — a poison
  point that exhausts its retries is recorded and skipped so the rest
  of the sweep still completes;
* :class:`SweepReport` — the structured per-point outcome record
  (completed / cached / retried / quarantined / timed-out), filled in
  by the ledger only;
* graceful **SIGINT/SIGTERM** handling — in-flight results are drained
  (and therefore flushed to the :class:`~repro.analysis.cache.
  ResultCache` by the ledger) before :class:`SweepInterrupted` is
  raised;
* :class:`ChaosPlan` — the fault injector behind ``repro sweep
  --chaos``: seeded, deterministic per point, SIGKILLing workers and
  injecting hung or failing points so the recovery paths above are
  exercised end to end.  Because every simulation is deterministic,
  results after recovery are byte-identical to a serial uncached run.

Determinism: supervision changes *scheduling only*.  Each point is
simulated from a freshly built workload in whichever worker runs it, so
the stats are a pure function of the point spec — retries, respawns,
and dynamic dispatch cannot change results, only wall-clock.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import json
import os
import pickle
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.machine.stats import SimStats
from repro.obs.aggregate import PointTelemetry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import multiprocessing

    from repro.analysis.sweeps import PointLedger, PointSpec

#: version of the SweepReport on-disk shape
REPORT_SCHEMA = 1


def fork_context() -> Optional["multiprocessing.context.BaseContext"]:
    """The fork multiprocessing context, or None where unsupported.

    Fork is required (not merely preferred) because point specs carry
    arbitrary callables — lambdas, closures over configs — which spawn
    would have to pickle.  On platforms without fork the sweep engine
    runs every point in-process, which is always correct.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class WorkerDied(RuntimeError):
    """A forked sweep worker exited without reporting its point."""


class PointTimeout(RuntimeError):
    """A sweep point exceeded the per-point wall-clock timeout."""


class ChaosError(RuntimeError):
    """A failure injected by :class:`ChaosPlan` (always retryable)."""


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM stopped a supervised sweep after flushing results.

    Subclasses :class:`KeyboardInterrupt` so generic Ctrl-C handling
    (shells, pytest, the CLI) keeps working; carries the signal number
    and how many points had completed when the stop was honored.
    """

    def __init__(self, signum: int, completed: int) -> None:
        super().__init__(f"sweep interrupted by signal {signum} "
                         f"({completed} points completed and flushed)")
        self.signum = signum
        self.completed = completed


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic per-point fault injection for the chaos harness.

    Each grid point draws one action from a seeded RNG keyed by
    ``(seed, index)`` — ``kill`` (SIGKILL the worker mid-point),
    ``hang`` (sleep so the per-point timeout trips), ``fail`` (raise
    :class:`ChaosError`), ``midkill`` (SIGKILL the worker right after
    its first periodic checkpoint lands on disk, so the retry *resumes*
    instead of restarting), or nothing.  With ``once=True`` (the
    default) a fault fires only on the point's *first* attempt, so
    bounded retry always converges and final results stay
    byte-identical to a fault-free run.  ``actions`` pins explicit
    ``index -> action`` choices for targeted tests.
    """

    seed: int = 0
    kill: float = 0.2
    hang: float = 0.1
    fail: float = 0.2
    once: bool = True
    hang_seconds: float = 3600.0
    actions: Optional[Dict[int, str]] = None
    midkill: float = 0.0

    def action(self, index: int) -> Optional[str]:
        """The fault drawn for grid point ``index`` (None = no fault)."""
        if self.actions is not None:
            return self.actions.get(index)
        draw = random.Random(f"chaos:{self.seed}:{index}").random()
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.hang:
            return "hang"
        if draw < self.kill + self.hang + self.fail:
            return "fail"
        if draw < self.kill + self.hang + self.fail + self.midkill:
            return "midkill"
        return None

    def midkill_armed(self, index: int, attempt: int) -> bool:
        """Whether this attempt should die after its first checkpoint.

        ``midkill`` is not fired by :meth:`strike` — it has to wait for
        a snapshot to exist, so the worker arms it through the
        :meth:`~repro.machine.system.DashSystem.run` ``on_checkpoint``
        hook instead.
        """
        if attempt > 1 and self.once:
            return False
        return self.action(index) == "midkill"

    def strike(self, index: int, attempt: int) -> None:
        """Inject this point's fault (worker side); no-op when clean.

        Called by the worker immediately before simulating.  ``kill``
        SIGKILLs the worker process itself — exactly what an OOM kill
        looks like to the parent; ``hang`` sleeps long enough for the
        supervisor's timeout to reap the worker; ``fail`` raises
        :class:`ChaosError`, which the supervisor always retries.
        """
        if attempt > 1 and self.once:
            return
        action = self.action(index)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            time.sleep(self.hang_seconds)
        elif action == "fail":
            raise ChaosError(
                f"chaos-injected failure at point {index} (attempt {attempt})"
            )


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised sweep reacts to failure.

    ``timeout`` — per-point wall-clock seconds before the worker is
    SIGKILLed and the point rescheduled (None disables).
    ``max_retries`` — failed attempts a point may accrue before it is
    permanent.  ``retry_errors`` — also retry clean exceptions (worker
    deaths and timeouts are always retried; simulator exceptions are
    deterministic, so retrying them is only useful under chaos).
    ``backoff`` — base of the exponential retry delay
    (``backoff * 2**(attempt-1)`` seconds).  ``keep_going`` — quarantine
    permanently failed points and finish the sweep instead of raising.
    ``tick`` — supervisor poll interval (liveness/timeout resolution).
    ``chaos`` — optional fault injector for the chaos harness.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    retry_errors: bool = False
    backoff: float = 0.05
    keep_going: bool = False
    tick: float = 0.2
    chaos: Optional[ChaosPlan] = None

    def retryable(self, kind: str) -> bool:
        """Whether a failed attempt of this ``kind`` may be retried."""
        return kind in ("death", "timeout") or self.retry_errors


@dataclass
class PointOutcome:
    """The fate of one grid point in a supervised sweep."""

    index: int
    label: str = ""
    status: str = "pending"
    attempts: int = 0
    retries: int = 0
    error: Optional[str] = None
    wall: Optional[float] = None
    #: a retry continued this point from a mid-run checkpoint instead of
    #: restarting it, saving ``events_saved`` already-simulated events
    resumed: bool = False
    events_saved: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record for :meth:`SweepReport.to_dict`."""
        return {
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "error": self.error,
            "wall": self.wall,
            "resumed": self.resumed,
            "events_saved": self.events_saved,
        }


class SweepReport:
    """Structured per-point outcome record of a supervised sweep.

    Statuses: ``completed`` (simulated), ``cached`` (served by the
    result cache), ``quarantined`` (exhausted retries under keep-going),
    ``timed-out`` (quarantined because every attempt hit the timeout),
    ``failed`` (permanent failure in fail-fast mode), ``skipped``
    (never started because an earlier point failed fast).  Only
    :class:`~repro.analysis.sweeps.PointLedger` writes the outcomes.
    """

    def __init__(self) -> None:
        self.outcomes: Dict[int, PointOutcome] = {}
        self.interrupted = False

    def counts(self) -> Dict[str, int]:
        """Aggregate status counts plus retry/resume totals."""
        out = {
            "completed": 0, "cached": 0, "quarantined": 0, "timed-out": 0,
            "failed": 0, "skipped": 0, "pending": 0, "retries": 0,
            "resumed_from_checkpoint": 0, "events_saved": 0,
        }
        for o in self.outcomes.values():
            out[o.status] = out.get(o.status, 0) + 1
            out["retries"] += o.retries
            if o.resumed:
                out["resumed_from_checkpoint"] += 1
            out["events_saved"] += o.events_saved
        return out

    @property
    def quarantined(self) -> List[PointOutcome]:
        """Outcomes that were quarantined or timed out, in grid order."""
        return [
            o for _, o in sorted(self.outcomes.items())
            if o.status in ("quarantined", "timed-out")
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe report: schema header, counts, per-point outcomes."""
        return {
            "schema": REPORT_SCHEMA,
            "interrupted": self.interrupted,
            "counts": self.counts(),
            "points": [o.to_dict() for _, o in sorted(self.outcomes.items())],
        }

    def save(self, path: Path | str) -> Path:
        """Write the report as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    def summary(self) -> str:
        """One-line human summary for the CLI and benchmark runners."""
        c = self.counts()
        parts = [f"{c['completed']} completed"]
        if c["cached"]:
            parts.append(f"{c['cached']} cached")
        if c["retries"]:
            parts.append(f"{c['retries']} retries")
        if c["resumed_from_checkpoint"]:
            parts.append(
                f"{c['resumed_from_checkpoint']} resumed from checkpoint "
                f"({c['events_saved']} events saved)"
            )
        if c["timed-out"]:
            parts.append(f"{c['timed-out']} timed-out")
        if c["quarantined"]:
            parts.append(f"{c['quarantined']} quarantined")
        if c["failed"]:
            parts.append(f"{c['failed']} failed")
        if c["skipped"]:
            parts.append(f"{c['skipped']} skipped")
        if self.interrupted:
            parts.append("interrupted")
        return "sweep report: " + ", ".join(parts)


def sweep_key(keys: Sequence[str]) -> str:
    """A sweep's identity: a digest over its ordered point keys (the
    ``point_key`` the result cache uses), so a rerun of the same grid
    finds the same checkpoint directory."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def checkpoint_file(checkpoint_dir: Path | str, index: int) -> Path:
    """The per-point snapshot path inside a sweep's checkpoint directory."""
    return Path(checkpoint_dir) / f"point{index:05d}.ckpt"


#: one successful attempt: ``(stats, wall, telemetry, events_saved)``
PointResult = Tuple[SimStats, float, Optional[PointTelemetry], Optional[int]]


def execute_point(
    spec: "PointSpec",
    index: int,
    attempt: int = 1,
    *,
    chaos: Optional[ChaosPlan] = None,
    telemetry_capacity: Optional[int] = None,
    checkpoint_dir: Optional[Path | str] = None,
    checkpoint_interval: Optional[int] = None,
) -> PointResult:
    """Simulate one attempt of one point — the engine's only simulation site.

    Forked workers and the in-process driver both call this, so a point
    is built, run, checked, stripped and timed the same way wherever it
    executes.  ``wall`` is machine construction (or snapshot restore) +
    run + coherence check.

    With ``telemetry_capacity`` set (sweep aggregation on), the point
    runs under a fresh real :class:`~repro.obs.tracer.Tracer` and its
    :class:`~repro.obs.aggregate.PointTelemetry` is returned alongside.
    The ``SimStats`` has its metrics reference stripped first: metrics
    travel in the telemetry, and the stats stay byte-identical to an
    untraced run's through the pipe, the result cache, and the table.

    With ``checkpoint_dir`` + ``checkpoint_interval`` set, the point
    writes a crash-consistent snapshot every ``checkpoint_interval``
    simulated events, and an attempt that finds a snapshot from a
    previous (killed or timed-out) attempt restores it and continues
    mid-run — re-simulating strictly fewer events, with byte-identical
    results (the determinism contract in ``docs/robustness.md``).  A
    snapshot that fails to load (torn write, version skew) is discarded
    and the point restarts from scratch.  ``events_saved`` is the event
    count a restored snapshot had already executed — work this attempt
    did *not* redo — and None when it started from scratch.

    ``chaos`` (forked workers only) injects this attempt's fault first;
    its ``midkill`` action SIGKILLs the process right after the first
    snapshot lands, so the retry is sure to exercise the resume path.
    """
    from repro.machine.checkpoint import CheckpointError, load_checkpoint
    from repro.machine.system import DashSystem

    if chaos is not None:
        chaos.strike(index, attempt)
    tracer: Optional[Tracer] = None
    if telemetry_capacity is not None:
        tracer = Tracer(telemetry_capacity)
    ckpt_path: Optional[str] = None
    if checkpoint_dir is not None and checkpoint_interval is not None:
        ckpt_path = str(checkpoint_file(checkpoint_dir, index))
    on_checkpoint = None
    if chaos is not None and chaos.midkill_armed(index, attempt):
        if ckpt_path is not None:
            def on_checkpoint(_ckpt: Any) -> None:
                # die only once a resumable snapshot is on disk
                os.kill(os.getpid(), signal.SIGKILL)
        else:  # no snapshots to wait for: degenerate to "kill"
            os.kill(os.getpid(), signal.SIGKILL)

    def build() -> DashSystem:
        return DashSystem(spec.config, spec.workload_factory(), obs=tracer)

    t0 = time.perf_counter()
    system = build()
    events_saved: Optional[int] = None
    if ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            system.restore(load_checkpoint(ckpt_path))
            events_saved = system.events.events_run
        except CheckpointError:
            # restore mutates progressively — a failed load leaves a
            # half-restored machine; discard it and start from scratch
            system = build()
    stats = system.run(
        checkpoint_path=ckpt_path,
        checkpoint_interval=checkpoint_interval if ckpt_path else None,
        on_checkpoint=on_checkpoint,
    )
    if spec.check:
        system.check_coherence()
    wall = time.perf_counter() - t0
    telemetry: Optional[PointTelemetry] = None
    if tracer is not None:
        stats.metrics = None  # metrics ship in the telemetry
        telemetry = PointTelemetry.capture(
            tracer, index=index, label=spec.label, wall_s=wall
        )
    return stats, wall, telemetry, events_saved


def _supervised_worker(
    specs: Sequence["PointSpec"],
    conn: "connection.Connection",
    execute: Callable[["PointSpec", int, int], PointResult],
) -> None:
    """Forked worker loop: receive ``(index, attempt)`` tasks, stream results.

    Protocol (worker -> parent): ``("done", idx, attempt, *point_result)``
    or ``("fail", idx, attempt, exc)``.  A clean exception keeps the worker
    alive for its next task; ``KeyboardInterrupt``/``SystemExit`` are
    *not* swallowed — SIGINT is restored to its default disposition so
    Ctrl-C is handled once, by the parent's supervisor loop.
    """
    # restore default dispositions: the fork inherits the parent's
    # supervisor handlers, which merely set a flag — a worker keeping
    # them would ignore both Ctrl-C and the parent's terminate()
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        idx, attempt = task
        try:
            conn.send(("done", idx, attempt, *execute(specs[idx], idx, attempt)))
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            try:
                conn.send(("fail", idx, attempt, exc))
            except (BrokenPipeError, OSError):
                return


class _WorkerHandle:
    """Parent-side bookkeeping for one live worker process."""

    __slots__ = ("proc", "conn", "current", "started_at")

    def __init__(self, proc: Any, conn: "connection.Connection") -> None:
        self.proc = proc
        self.conn = conn
        self.current: Optional[int] = None
        self.started_at: Optional[float] = None

    @property
    def idle(self) -> bool:
        """True when no point is in flight on this worker."""
        return self.current is None


class SupervisedRunner:
    """Fault-tolerant point executor: dispatch, supervise, retry, record.

    One failure policy (retry with backoff, quarantine, or fail fast)
    over two drivers.  The forked driver dispatches points dynamically
    over per-worker pipes and its loop never blocks without a timeout:
    every wait covers worker pipes *and* process sentinels, so a worker
    that dies without reporting is detected immediately, its in-flight
    point is retried with backoff on a respawned worker, and a worker
    that exceeds the per-point timeout is SIGKILLed and treated the same
    way.  The in-process driver runs the same queue of points in this
    process; it cannot preempt a hung simulation, so ``timeout`` and
    ``chaos`` need the forked one.  Scheduling is dynamic, but results
    are unaffected — each point is simulated from a freshly built
    workload, so stats are a pure function of the spec.
    """

    def __init__(
        self,
        jobs: int,
        policy: Optional[SupervisorPolicy] = None,
        *,
        telemetry_capacity: Optional[int] = None,
        checkpoint_dir: Optional[Path | str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.jobs = jobs
        self.policy = policy if policy is not None else SupervisorPolicy()
        # handed to :func:`execute_point` for every attempt
        self.telemetry_capacity = telemetry_capacity
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self._interrupted: Optional[int] = None

    @contextlib.contextmanager
    def _graceful_signals(self) -> Iterator[None]:
        """Turn SIGINT/SIGTERM into a flag the loop polls (main thread only);
        the previous dispositions come back however the block exits."""
        self._interrupted = None
        saved: List[Tuple[int, Any]] = []

        def _handler(signum: int, frame: Any) -> None:
            self._interrupted = signum

        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    saved.append((signum, signal.signal(signum, _handler)))
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
        try:
            yield
        finally:
            for signum, handler in saved:
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    # -- the engine ---------------------------------------------------------

    def run(
        self,
        specs: Sequence["PointSpec"],
        indices: Sequence[int],
        ledger: "PointLedger",
        *,
        fork: bool,
    ) -> None:
        """Execute the points at ``indices``, recording each in ``ledger``.

        ``fork`` picks the driver: supervised forked workers, or this
        process.  Either way every resolution reaches ``ledger`` (in
        completion order — grid-order delivery is the ledger's job) and
        every failed attempt the one policy below.

        Fail-fast mode (``keep_going=False``): the first point that
        exhausts its retries stops new dispatch; in-flight points are
        drained, remaining points are marked skipped, and the error with
        the smallest grid index is raised — the same error a serial
        grid-order loop would have hit first among those executed.
        """
        policy = self.policy
        if policy.chaos is not None and not fork:
            raise RuntimeError("chaos injection requires fork-based workers")
        pending = deque(indices)
        retry_heap: List[Tuple[float, int]] = []  # (due, idx)
        failures: Dict[int, int] = {}
        errors: Dict[int, BaseException] = {}
        outstanding = set(indices)
        completed = 0
        execute = functools.partial(
            execute_point,
            chaos=policy.chaos,
            telemetry_capacity=self.telemetry_capacity,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_interval=self.checkpoint_interval,
        )

        def next_task(now: float) -> Optional[int]:
            """Due retries first, then pending points in grid order."""
            if retry_heap and retry_heap[0][0] <= now:
                return heapq.heappop(retry_heap)[1]
            return pending.popleft() if pending else None

        def point_done(
            idx: int, stats: SimStats, wall: float,
            telemetry: Optional[PointTelemetry], events_saved: Optional[int],
        ) -> None:
            nonlocal completed
            outstanding.discard(idx)
            completed += 1
            if self.checkpoint_dir is not None:
                # the point is done: its snapshot is superseded by the
                # completed (and cached) result
                try:
                    checkpoint_file(self.checkpoint_dir, idx).unlink()
                except OSError:
                    pass
            ledger.completed(idx, stats, wall, telemetry, events_saved)

        def attempt_failed(idx: int, exc: BaseException, kind: str) -> None:
            """Retry with backoff, quarantine, or fail fast — decided here only."""
            failures[idx] = attempt = failures.get(idx, 0) + 1
            if (policy.retryable(kind) or isinstance(exc, ChaosError)) \
                    and attempt <= policy.max_retries and not errors:
                due = time.monotonic() + policy.backoff * 2 ** (attempt - 1)
                heapq.heappush(retry_heap, (due, idx))
                ledger.retry(idx)
                return
            outstanding.discard(idx)
            if policy.keep_going:
                ledger.quarantined(idx, exc, timed_out=(kind == "timeout"))
                return
            errors[idx] = exc
            ledger.failed(idx, exc)
            # fail fast: abandon everything unstarted
            for other in [*pending, *(i for _, i in retry_heap)]:
                outstanding.discard(other)
                ledger.skipped(other)
            pending.clear()
            retry_heap.clear()

        if not fork:
            while outstanding:
                idx = next_task(time.monotonic())
                if idx is None:  # only backoff-delayed retries remain
                    time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                    continue
                try:
                    result = execute(specs[idx], idx, failures.get(idx, 0) + 1)
                except Exception as exc:
                    attempt_failed(idx, exc, "error")
                else:
                    point_done(idx, *result)
            if errors:
                raise errors[min(errors)]
            return

        ctx = fork_context()
        assert ctx is not None, "forked workers require fork support"
        workers: List[_WorkerHandle] = []

        def spawn() -> None:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_supervised_worker,
                args=(specs, child_conn, execute),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append(_WorkerHandle(proc, parent_conn))

        def drain(w: _WorkerHandle) -> None:
            """Consume every ready message from one worker's pipe."""
            while True:
                try:
                    if not w.conn.poll():
                        return
                    tag, idx, _attempt, *payload = w.conn.recv()
                except (EOFError, OSError):
                    return
                w.current, w.started_at = None, None
                if idx not in outstanding:
                    continue  # resolved elsewhere (late arrival)
                if tag == "done":
                    point_done(idx, *payload)
                else:
                    attempt_failed(idx, payload[0], "error")

        with self._graceful_signals(), self._stopped_on_exit(workers):
            for _ in range(min(self.jobs, len(pending))):
                spawn()
            while outstanding and self._interrupted is None:
                now = time.monotonic()
                # 1. dispatch work to idle workers
                for w in workers:
                    if not w.idle or not w.proc.is_alive():
                        continue
                    task = next_task(now)
                    if task is None:
                        break
                    w.current = task
                    w.started_at = now
                    try:
                        w.conn.send((task, failures.get(task, 0) + 1))
                    except (BrokenPipeError, OSError):
                        pass  # death handled below; current stays set
                # 2. bounded wait on every pipe and process sentinel
                timeout = policy.tick
                if retry_heap:
                    timeout = min(timeout, max(0.0, retry_heap[0][0] - now))
                if policy.timeout is not None:
                    for w in workers:
                        if w.current is not None and w.started_at is not None:
                            timeout = min(timeout, max(
                                0.0,
                                w.started_at + policy.timeout - now,
                            ))
                waitables: List[Any] = []
                for w in workers:
                    waitables.append(w.conn)
                    waitables.append(w.proc.sentinel)
                if waitables:
                    connection.wait(waitables, timeout=timeout)
                else:  # every worker died this tick; pause before respawn
                    time.sleep(min(timeout, 0.01))
                # 3. consume results, then reap deaths
                for w in list(workers):
                    drain(w)
                    if not w.proc.is_alive():
                        drain(w)  # anything sent just before dying
                        if w.current is not None and w.current in outstanding:
                            attempt_failed(
                                w.current,
                                WorkerDied(
                                    f"worker (pid {w.proc.pid}) exited with "
                                    f"code {w.proc.exitcode} while running "
                                    f"point {w.current}"
                                ),
                                "death",
                            )
                        w.conn.close()
                        w.proc.join()
                        workers.remove(w)
                # 4. reap workers stuck past the per-point timeout
                if policy.timeout is not None:
                    now = time.monotonic()
                    for w in list(workers):
                        if (w.current is None or w.started_at is None
                                or now - w.started_at <= policy.timeout):
                            continue
                        drain(w)  # a result may have just landed
                        if w.current is None:
                            continue
                        idx = w.current
                        w.proc.kill()
                        w.proc.join()
                        w.conn.close()
                        workers.remove(w)
                        if idx in outstanding:
                            attempt_failed(
                                idx,
                                PointTimeout(
                                    f"point {idx} ({ledger.label(idx)!r}) "
                                    f"exceeded {policy.timeout:.1f}s "
                                    f"wall-clock timeout"
                                ),
                                "timeout",
                            )
                # 5. keep the worker pool sized to the remaining work
                while len(workers) < min(self.jobs, len(outstanding)):
                    spawn()
            # Reached on the clean and interrupted exits only: flush
            # every finished result before the workers are stopped, so
            # SIGINT loses none (each still reaches the ledger, and
            # therefore the result cache).  An exception unwinding
            # the loop skips this: no completion is delivered after it.
            for w in workers:
                drain(w)
        if self._interrupted is not None:
            ledger.report.interrupted = True
            raise SweepInterrupted(self._interrupted, completed)
        if errors:
            raise errors[min(errors)]

    @staticmethod
    @contextlib.contextmanager
    def _stopped_on_exit(workers: List[_WorkerHandle]) -> Iterator[None]:
        """However the block exits, leave no worker process behind.

        Idle workers are asked to exit, busy ones get a second to
        finish, then SIGTERM (and SIGKILL for a worker ignoring it).
        """
        try:
            yield
        finally:
            for w in workers:
                if w.idle and w.proc.is_alive():
                    try:
                        w.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
            deadline = time.monotonic() + 1.0
            for w in workers:
                w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                if w.proc.is_alive():  # pragma: no cover - SIGTERM ignored
                    w.proc.kill()
                    w.proc.join()
                w.conn.close()
            workers.clear()


#: the public surface; ``repro.analysis`` re-exports the user-facing part
__all__ = [
    "ChaosError",
    "ChaosPlan",
    "PointOutcome",
    "PointTimeout",
    "REPORT_SCHEMA",
    "SupervisedRunner",
    "SupervisorPolicy",
    "SweepInterrupted",
    "SweepReport",
    "WorkerDied",
    "checkpoint_file",
    "execute_point",
    "fork_context",
    "sweep_key",
]
