"""Crash-consistent checkpoint tests (``repro.machine.checkpoint``).

The contract under test: a run interrupted at *any* event boundary and
resumed from a snapshot — in-process, from disk, or across a SIGKILL —
finishes with byte-identical statistics to the uninterrupted run, for
every directory-scheme family.  Alongside the end-to-end guarantees,
this file holds the integrity gates (torn files, corruption, schema and
config mismatches), the zero-cost and instrumentation-exclusion checks,
the supervised-sweep mid-run resume path, and the state contract itself:
the hypothesis properties that every scheme's directory-entry state
round-trips through ``to_state``/``entry_from_state`` (including
overflow-cache eviction order and linked-list chain order) and that
every machine component's ``to_state`` survives a restore, plus the
structural checks that no slot escapes the contract and that
``checkpoint.py`` reads no other class's private state.
"""

import ast
import json
import os
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.supervisor import (
    ChaosPlan,
    SupervisorPolicy,
    SweepReport,
    checkpoint_file,
    fork_context,
)
from repro.analysis.sweeps import Sweep
from repro.apps import MP3DWorkload
from repro.apps.patterns import FrequentReadWritePattern
from repro.core import (
    CoarseVectorScheme,
    FullBitVectorScheme,
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
    LinkedListScheme,
    OverflowCacheScheme,
    SupersetScheme,
)
from repro.machine import DashSystem, MachineConfig, checkpoint
from repro.machine.checkpoint import (
    CKPT_SCHEMA,
    CONTINUATIONS,
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointSchemaError,
    SimCheckpoint,
    StateCodec,
    UnregisteredContinuationError,
    load_checkpoint,
    read_header,
    verify_checkpoint,
)
from repro.machine.directory import Transaction
from repro.machine.events import EventQueue
from repro.machine.invariants import CoherenceViolation
from repro.machine.processor import Processor
from repro.obs.tracer import Tracer
from repro.trace.event import Write, unpack

P = 8

#: one representative per directory-format family, including the sparse
#: overflow configuration (replacement traffic exercises HINT events)
SCHEME_FAMILIES = {
    "full-map": {},
    "broadcast": {"scheme": "Dir2B"},
    "no-broadcast": {"scheme": "Dir1NB"},
    "superset": {"scheme": "Dir4X"},
    "coarse-vector": {"scheme": "Dir4CV4"},
    "linked-list": {"scheme": "DirLL"},
    "sparse-overflow": {"scheme": "Dir2OF8", "sparse_size_factor": 1.0},
}

needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="requires fork start method"
)


def _workload():
    return MP3DWorkload(P, num_particles=120, seed=3)


def _config(**overrides):
    fields = {"num_clusters": P, "seed": 5}
    fields.update(overrides)
    return MachineConfig(**fields)


def _stats_json(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


_baselines = {}


def _baseline(config) -> str:
    """Uninterrupted-run stats for ``config`` (memoized per config)."""
    key = json.dumps(config.cache_key_fields(), sort_keys=True)
    if key not in _baselines:
        _baselines[key] = _stats_json(DashSystem(config, _workload()).run())
    return _baselines[key]


# -- end-to-end determinism ------------------------------------------------


@pytest.mark.parametrize(
    "overrides", SCHEME_FAMILIES.values(), ids=SCHEME_FAMILIES.keys()
)
def test_split_run_is_byte_identical(overrides):
    """Checkpoint mid-run, restore into a fresh machine, run to the end:
    the stitched run's stats equal the uninterrupted run's, exactly."""
    config = _config(**overrides)
    first = DashSystem(config, _workload())
    first.run(max_events=150)
    ckpt = first.checkpoint()
    assert ckpt.header["events_run"] == first.events.events_run
    assert ckpt.header["scheme"] == first.scheme.name

    second = DashSystem(config, _workload())
    second.restore(ckpt)
    assert second.events.events_run == first.events.events_run
    assert _stats_json(second.run()) == _baseline(config)


def test_checkpoint_file_round_trip(tmp_path):
    """Disk round trip: header readable, verification passes, the loaded
    snapshot resumes to the uninterrupted result, no temp file remains."""
    config = _config(scheme="Dir4CV4")
    path = str(tmp_path / "mid.ckpt")
    system = DashSystem(config, _workload())
    system.run(max_events=200)
    system.checkpoint(path)
    assert not os.path.exists(path + ".tmp")  # atomic tmp+rename

    header = read_header(path)
    assert header["schema"] == CKPT_SCHEMA
    assert header["scheme"] == "Dir4CV4"
    assert header["events_run"] == 200
    assert header["config"] == config.cache_key_fields()

    verified = verify_checkpoint(path)
    assert verified["fingerprint_match"] is True

    resumed = DashSystem(config, _workload())
    resumed.restore(load_checkpoint(path))
    assert _stats_json(resumed.run()) == _baseline(config)


@needs_fork
def test_sigkill_resume_matches_uninterrupted(tmp_path):
    """The headline crash test: SIGKILL the process right after a periodic
    snapshot lands, then resume from the file in a new process image."""
    config = _config(scheme="Dir4CV4")
    path = str(tmp_path / "killed.ckpt")

    def victim():
        system = DashSystem(config, _workload())
        system.run(
            checkpoint_path=path,
            checkpoint_interval=150,
            on_checkpoint=lambda _ckpt: os.kill(os.getpid(), signal.SIGKILL),
        )

    proc = fork_context().Process(target=victim)
    proc.start()
    proc.join(60)
    assert proc.exitcode == -signal.SIGKILL

    ckpt = load_checkpoint(path)
    assert ckpt.header["events_run"] == 150
    system = DashSystem(config, _workload())
    system.restore(ckpt)
    assert _stats_json(system.run()) == _baseline(config)


# -- every restore branch ---------------------------------------------------


class _HotLockThenWrite(FrequentReadWritePattern):
    """Everyone contends for one lock, and each stream ends on a write
    miss: under release consistency that parks the processor at the end
    of its stream, fenced, until the write retires."""

    def build(self):
        super().build()
        self.tail = self.space.alloc("tail", self.num_processors, 8)

    def stream(self, proc_id):
        yield from super().stream(proc_id)
        yield Write(self.tail.addr(proc_id))


def _hot_lock():
    return _HotLockThenWrite(P)


_SMALL_CACHES = {"l1_bytes": 128, "l2_bytes": 256}

#: name -> (config overrides, DashSystem kwargs, workload factory, the
#: conditions (see `_conditions`) some cut point has to catch the machine in)
RESTORE_BRANCHES = {
    "release-consistency": (
        {"release_consistency": True}, {}, _workload,
        {"outstanding-writes", "fence:Barrier", "barrier-waiters", "pending"},
    ),
    "rc-hot-lock": (
        {"release_consistency": True}, {}, _hot_lock,
        {"fence:Unlock", "fence:end", "lock-waiters"},
    ),
    "faults": ({}, {"faults": 11}, _workload, {"faults-injected", "retried"}),
    "strict": (
        {}, {"invariants": "strict"}, _workload,
        {"checker-outstanding", "checker-audited"},
    ),
    "rc+faults+strict+writebacks": (
        {"release_consistency": True, "scheme": "Dir2OF8",
         "sparse_size_factor": 1.0, **_SMALL_CACHES},
        {"faults": 11}, _workload,
        {"outstanding-writes", "fence:Barrier", "faults-injected", "retried",
         "checker-outstanding", "checker-audited", "wb-inflight",
         "cancelled-wb"},
    ),
    "coarse-lock-grant": (
        {"coarse_lock_grant": True, "scheme": "Dir4CV4"}, {}, _hot_lock,
        {"lock-waiters"},
    ),
    "shared-entry": (
        {"shared_entry_group": 4, **_SMALL_CACHES}, {}, _workload,
        {"deferred-writes", "wb-inflight", "pending"},
    ),
}


def _conditions(system):
    """Which rarely-reached pieces of state the machine holds right now."""
    found = set()
    for proc in system.processors:
        if proc._outstanding_writes:
            found.add("outstanding-writes")
        if proc._fence:
            # the cursor rests on the op the fence holds back (or at the end)
            at = proc.ops_consumed
            found.add("fence:" + (
                "end" if at == len(proc._ops)
                else type(unpack(proc._ops[at])).__name__
            ))
    if any(st.waiters for st in system.sync._locks.values()):
        found.add("lock-waiters")
    if any(st.waiters for st in system.sync._barriers.values()):
        found.add("barrier-waiters")
    for ctrl in system.directories:
        if any(ctrl._pending.values()):
            found.add("pending")
        if ctrl._wb_inflight:
            found.add("wb-inflight")
        if ctrl._cancelled_wb:
            found.add("cancelled-wb")
        if ctrl._deferred_writes:
            found.add("deferred-writes")
    if system.fault_plan is not None and system.fault_plan.injected:
        found.add("faults-injected")
    if system.stats.fault_retries:
        found.add("retried")
    if system.invariants is not None and system.invariants._outstanding:
        found.add("checker-outstanding")
    if system.invariants is not None and system.invariants.blocks_checked:
        found.add("checker-audited")
    return found


@pytest.mark.parametrize(
    "overrides, kwargs, workload, required",
    RESTORE_BRANCHES.values(), ids=RESTORE_BRANCHES.keys(),
)
def test_split_run_covers_every_restore_branch(
    overrides, kwargs, workload, required
):
    """Release consistency, fault plans, invariant checkers, coarse lock
    grants and in-flight writebacks each add state a restore has to carry.
    Cut at event 1, at fixed points, and at the first event each required
    condition holds: the resumed run's stats — the lossless form, with
    the per-processor cycle breakdown `to_dict` leaves out — equal the
    uninterrupted run's, a checker ends with the same counters, and the
    restored machine re-captures the same payload."""
    config = _config(**overrides)

    def build():
        return DashSystem(config, workload(), **kwargs)

    def finish(system):
        stats = json.dumps(system.run().to_state(), sort_keys=True)
        checker = system.invariants
        return stats, checker and (
            checker.blocks_checked, checker.checks_run, checker.inval_rounds
        )

    baseline = finish(build())

    scout = build()
    scout.run(max_events=1)
    first_seen = {}
    while scout.events:
        for condition in _conditions(scout) - first_seen.keys():
            first_seen[condition] = scout.events.events_run
        scout.events.run(max_events=1)
    assert required <= first_seen.keys()

    for cut in sorted({1, 150, 2500} | {first_seen[c] for c in required}):
        first = build()
        first.run(max_events=cut)
        ckpt = first.checkpoint()
        second = build()
        second.restore(ckpt)
        assert second.checkpoint().payload() == ckpt.payload(), cut
        assert finish(second) == baseline, cut


def test_restore_at_every_event_of_a_release_consistency_run():
    """Restore is "set the cursor": cut a short release-consistency run
    after every single event — so with a processor fenced on a sync op,
    fenced at the end of its stream, and everywhere between — and each
    restored machine re-captures the payload and finishes with the
    uninterrupted run's stats."""
    config = _config(num_clusters=4, release_consistency=True)

    def build():
        return DashSystem(config, _HotLockThenWrite(4, updates_per_proc=2))

    def finish(system):
        return json.dumps(system.run().to_state(), sort_keys=True)

    baseline = finish(build())
    live = build()
    live.run(max_events=1)
    seen = set()
    while live.events:
        seen |= _conditions(live)
        ckpt = live.checkpoint()
        cursors = [proc.ops_consumed for proc in live.processors]
        restored = build()
        restored.restore(ckpt)
        assert [p.ops_consumed for p in restored.processors] == cursors
        assert restored.checkpoint().payload() == ckpt.payload()
        assert finish(restored) == baseline, live.events.events_run
        live.events.run(max_events=1)
    assert {"fence:Unlock", "fence:end", "outstanding-writes"} <= seen
    assert live.events.events_run > 100


def test_recorded_violations_survive_a_restore():
    """The checker's violation list is snapshotted by constructor
    arguments: invariant name, bare message and block all come back."""
    config = _config()
    first = DashSystem(config, _workload(), invariants="strict")
    first.run(max_events=150)
    planted = CoherenceViolation("watchdog", "planted for the test", block=7)
    assert str(planted) == "[watchdog] planted for the test"
    assert planted.message == "planted for the test"
    first.invariants._report(planted)

    ckpt = first.checkpoint()
    second = DashSystem(config, _workload(), invariants="strict")
    second.restore(ckpt)
    (restored,) = second.invariants.violations
    assert (restored.invariant, restored.message, restored.block) == (
        "watchdog", "planted for the test", 7,
    )
    assert str(restored) == str(planted)
    assert second.stats.invariant_violations == 1
    assert second.checkpoint().payload() == ckpt.payload()


@pytest.mark.parametrize(
    "writer, target, message",
    [
        ({"faults": 3}, {}, "fault plan mismatch"),
        ({}, {"faults": 3}, "fault plan mismatch"),
        ({"faults": 3}, {"faults": 4}, "fault plan parameter seed differs"),
        ({"invariants": "strict"}, {}, "invariant checker mismatch"),
        ({}, {"invariants": "strict"}, "invariant checker mismatch"),
        ({"obs": 1 << 10}, {}, "tracer mismatch"),
        ({}, {"obs": 1 << 10}, "tracer mismatch"),
        ({"obs": 1 << 10}, {"obs": 1 << 11},
         "tracer parameter capacity differs"),
    ],
)
def test_optional_component_mismatch_refused(writer, target, message):
    """A restore target must be built with the same fault plan, invariant
    checking and tracing setup as the run that wrote the checkpoint."""

    def build(kwargs):
        kwargs = dict(kwargs)
        if "obs" in kwargs:
            kwargs["obs"] = Tracer(kwargs["obs"])
        return DashSystem(_config(), _workload(), **kwargs)

    first = build(writer)
    first.run(max_events=100)
    with pytest.raises(CheckpointError, match=message):
        build(target).restore(first.checkpoint())


def test_used_or_hooked_restore_target_refused():
    first = DashSystem(_config(), _workload())
    first.run(max_events=100)
    ckpt = first.checkpoint()
    with pytest.raises(CheckpointError, match="freshly constructed"):
        first.restore(ckpt)
    hooked = DashSystem(_config(), _workload())
    hooked.trace_hook = lambda proc_id, op, now: None
    with pytest.raises(CheckpointError, match="trace hook"):
        hooked.restore(ckpt)
    with pytest.raises(CheckpointError, match="trace hook"):
        hooked.checkpoint()


# -- zero cost and instrumentation exclusion -------------------------------


def test_periodic_checkpointing_leaves_stats_identical(tmp_path):
    """Snapshotting every N events must not perturb the simulation: the
    checkpointed run's stats are byte-identical to the plain run's."""
    config = _config(scheme="DirLL")
    path = str(tmp_path / "periodic.ckpt")
    seen = []
    stats = DashSystem(config, _workload()).run(
        checkpoint_path=path,
        checkpoint_interval=100,
        on_checkpoint=lambda ckpt: seen.append(ckpt.header["events_run"]),
    )
    assert seen, "workload too small: no periodic snapshot was due"
    assert seen == sorted(seen)
    assert os.path.exists(path)
    assert _stats_json(stats) == _baseline(config)


def test_traced_run_identical_modulo_ckpt_instrumentation(tmp_path):
    """With tracing on, a checkpointed run differs from a clean one only
    by ``ckpt.*`` events and ``ckpt_*`` counters (the determinism
    contract's carve-out for harness activity)."""
    config = _config(scheme="Dir2B")

    plain = Tracer(1 << 17)
    DashSystem(config, _workload(), obs=plain).run()

    ckpt = Tracer(1 << 17)
    DashSystem(config, _workload(), obs=ckpt).run(
        checkpoint_path=str(tmp_path / "traced.ckpt"),
        checkpoint_interval=120,
    )
    assert ckpt.metrics.counter("ckpt_saves").to_dict() >= 1
    assert ckpt.metrics.counter("ckpt_bytes").to_dict() > 0

    def strip(tracer):
        return [e for e in tracer.events() if not e.name.startswith("ckpt.")]

    assert strip(ckpt) == strip(plain)

    def counters(tracer):
        return {
            k: c.to_dict()
            for k, c in tracer.metrics.counters.items()
            if not k.startswith("ckpt_")
        }

    assert counters(ckpt) == counters(plain)


def test_captured_snapshot_excludes_ckpt_instrumentation(tmp_path):
    """Snapshots taken at the same event count are identical no matter how
    many checkpoints preceded them: a restore + re-checkpoint reproduces
    the original payload byte for byte (untraced runs)."""
    config = _config()
    first = DashSystem(config, _workload())
    first.run(max_events=100)
    a = first.checkpoint()
    b = first.checkpoint()  # repeated capture of an untouched machine
    assert a.payload() == b.payload()

    second = DashSystem(config, _workload())
    second.restore(a)
    assert second.checkpoint().payload() == a.payload()


# -- integrity and compatibility gates -------------------------------------


def _write_checkpoint(tmp_path, name="gate.ckpt", **overrides):
    config = _config(**overrides)
    path = str(tmp_path / name)
    system = DashSystem(config, _workload())
    system.run(max_events=100)
    system.checkpoint(path)
    return config, path


def test_torn_checkpoint_detected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-20])  # lose the payload tail
    with pytest.raises(CheckpointIntegrityError, match="torn"):
        load_checkpoint(path)


def test_corrupted_payload_detected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[-10] ^= 0xFF  # same length, different bytes
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointIntegrityError, match="SHA-256"):
        load_checkpoint(path)


def test_non_checkpoint_file_rejected(tmp_path):
    path = tmp_path / "noise.ckpt"
    path.write_bytes(b"\x80\x04not a checkpoint\n" + os.urandom(64))
    with pytest.raises(CheckpointIntegrityError):
        read_header(str(path))


def test_unknown_schema_rejected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    header["schema"] = CKPT_SCHEMA + 999
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointSchemaError, match="schema"):
        load_checkpoint(path)


def test_dense_schema_1_file_refused_at_schema_gate(tmp_path):
    """Schema 1 carried one row per possible set; schema 2 carried occupied
    sets only, encoded by one central walker; schema 3 is written by the
    components themselves; schema 4 adds the invariant checker's
    ``blocks_checked``; schema 5 stores a traced run's ring as the
    tracer's flat rows; schema 6 drops the processor's encoded fence op
    (a flag; the cursor rests on the op); schema 7 drops the invariant
    checker's ``mode`` (``"sampled"`` is gone, so every schema-6 file that
    named it stops here).  An old file stops at the schema gate, before its
    payload is even read."""
    assert CKPT_SCHEMA == 7
    _, path = _write_checkpoint(tmp_path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    for old in (1, 2, 3, 4, 5, 6):
        header["schema"] = old
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + b"not even a payload")
        for gate in (read_header, load_checkpoint, verify_checkpoint):
            with pytest.raises(
                CheckpointSchemaError, match=f"schema {old} is not readable"
            ):
                gate(path)


def _sparse_lru_machine(max_events=300):
    system = DashSystem(
        _config(sparse_size_factor=1.0, sparse_policy="lru",
                l1_bytes=128, l2_bytes=256),
        _workload(),
    )
    if max_events:
        system.run(max_events=max_events)
    return system


def _l2(state):
    return state["caches"][0][0]["l2"]  # [(set, [(block, state), ...])]


def _dir(state):
    return state["dirs"][0]["store"]["sets"]  # [(set, [slot per way])]


def _stamps(state):
    return state["dirs"][0]["store"]["policy"]["stamps"]  # [(set, [stamps])]


def _rewrite_first(entries, index=lambda s: s, row=lambda r: r):
    """Corrupt the first ``(set index, row)`` pair of a sparse state list."""
    old_index, old_row = entries[0]
    entries[0] = (index(old_index), row(old_row))


CORRUPTIONS = {
    "cache-set-out-of-range": lambda st: _rewrite_first(_l2(st), index=lambda s: 10**9),
    "cache-too-many-ways": lambda st: _rewrite_first(_l2(st), row=lambda r: r * 5),
    "cache-wrong-set": lambda st: _rewrite_first(
        _l2(st), row=lambda r: [(r[0][0] + 1, r[0][1])]),
    "dir-set-out-of-range": lambda st: _rewrite_first(_dir(st), index=lambda s: -1),
    "dir-too-many-ways": lambda st: _rewrite_first(_dir(st), row=lambda r: r + [None]),
    "dir-wrong-set": lambda st: _rewrite_first(_dir(st), index=lambda s: s + 1),
    "stamps-set-out-of-range": lambda st: _rewrite_first(
        _stamps(st), index=lambda s: 10**9),
    "stamps-too-many-ways": lambda st: _rewrite_first(
        _stamps(st), row=lambda r: r + [0]),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_corrupted_sparse_payload_fails_geometry_check(corrupt):
    ckpt = _sparse_lru_machine().checkpoint()
    corrupt(ckpt.state)
    with pytest.raises(ValueError, match="geometry mismatch"):
        _sparse_lru_machine(max_events=0).restore(ckpt)


def test_payload_is_proportional_to_occupancy():
    """A just-built paper-size machine (32 clusters, 64 KB / 256 KB caches)
    has nothing cached, so its snapshot is a few KB — not one row per
    possible set.  With a size-factor-4 LRU sparse directory what remains
    is the 32 per-store policy RNG states (~3.7 KB each)."""
    workload = MP3DWorkload(32, num_particles=120, seed=3)
    full_map = DashSystem(MachineConfig(num_clusters=32), workload)
    assert len(SimCheckpoint.capture(full_map).payload()) < 64 * 1024
    sparse = DashSystem(
        MachineConfig(num_clusters=32, scheme="Dir3CV2",
                      sparse_size_factor=4.0, sparse_policy="lru"),
        workload,
    )
    assert len(SimCheckpoint.capture(sparse).payload()) < 256 * 1024


def test_config_mismatch_names_differing_fields(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    other = DashSystem(_config(seed=6), _workload())
    with pytest.raises(CheckpointError, match="seed"):
        other.restore(load_checkpoint(path))


def test_foreign_build_fingerprint_rejected(tmp_path):
    config, path = _write_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    ckpt.header["code_fingerprint"] = "0" * 64
    with pytest.raises(CheckpointSchemaError, match="different build"):
        DashSystem(config, _workload()).restore(ckpt)
    # but a foreign header must still be *inspectable*
    assert read_header(path)["magic"] == "repro-ckpt"


def test_unregistered_continuation_rejected():
    """A lambda smuggled into the event queue fails capture loudly (the
    tree-wide lint rule catches this statically; this is the runtime
    backstop)."""
    system = DashSystem(_config(), _workload())
    system.run(max_events=50)
    system.events.after(1.0, lambda: None)
    with pytest.raises(UnregisteredContinuationError):
        SimCheckpoint.capture(system)


# -- supervised sweeps: mid-run kill, mid-point resume ---------------------


@needs_fork
def test_supervised_midkill_resumes_byte_identical(tmp_path):
    """Chaos SIGKILLs workers right after their first periodic snapshot;
    retries must *resume* (events saved, ``resumed`` recorded) and the
    sweep's results must equal a clean serial run's, byte for byte."""
    base = MachineConfig(num_clusters=P, seed=3)

    def build():
        return Sweep(
            base, _workload, check_coherence=True
        ).add_axis("scheme", ["full", "DirLL"])

    clean = [
        (p.overrides, _stats_json(p.stats)) for p in build().run().points
    ]

    report = SweepReport()
    policy = SupervisorPolicy(
        timeout=60,
        chaos=ChaosPlan(actions={0: "midkill", 1: "midkill"}),
    )
    results = build().run(
        jobs=2,
        policy=policy,
        report=report,
        checkpoint_dir=tmp_path,
        checkpoint_interval=300,
    )
    chaotic = [
        (p.overrides, _stats_json(p.stats)) for p in results.points
    ]
    assert chaotic == clean

    counts = report.counts()
    assert counts["resumed_from_checkpoint"] == 2
    # each point was killed right after its first 300-event snapshot, so
    # each resume skipped exactly those already-simulated events
    assert counts["events_saved"] == 600
    assert counts["retries"] >= 2
    # completed points' snapshots are deleted (nothing left to resume)
    assert list(tmp_path.glob("*.ckpt")) == []


@needs_fork
def test_midkill_without_checkpointing_degrades_to_plain_kill(tmp_path):
    """``--chaos-midkill`` with checkpointing off still exercises the
    death path: the worker is killed immediately and the retry restarts
    the point from scratch (no resume recorded)."""
    base = MachineConfig(num_clusters=P, seed=3)
    sweep = Sweep(base, _workload).add_axis("scheme", ["full"])
    report = SweepReport()
    policy = SupervisorPolicy(
        timeout=60, chaos=ChaosPlan(actions={0: "midkill"})
    )
    results = sweep.run(jobs=1, policy=policy, report=report)
    assert len(results.points) == 1
    counts = report.counts()
    assert counts["resumed_from_checkpoint"] == 0
    assert counts["events_saved"] == 0
    assert counts["retries"] >= 1


def test_in_process_sweep_checkpoints_resumes_and_cleans_up(
    tmp_path, monkeypatch
):
    """The in-process driver honours ``checkpoint_dir``/``_interval``
    exactly as forked workers do: a snapshot an earlier (killed) attempt
    left behind is resumed, periodic snapshots are written while points
    run, results equal a plain run's byte for byte, and completing a
    point unlinks its snapshot."""
    monkeypatch.setattr("repro.analysis.sweeps.fork_context", lambda: None)
    base = MachineConfig(num_clusters=P, seed=3)

    def build():
        return Sweep(
            base, _workload, check_coherence=True
        ).add_axis("scheme", ["full", "DirLL"])

    clean = [
        (p.overrides, _stats_json(p.stats)) for p in build().run().points
    ]

    killed = DashSystem(base.with_(scheme="DirLL"), _workload())
    killed.run(max_events=300)
    killed.checkpoint(str(checkpoint_file(tmp_path, 1)))

    written = []
    real_checkpoint = DashSystem.checkpoint

    def spy(self, path=None, **kwargs):
        written.append(os.path.basename(path))
        return real_checkpoint(self, path, **kwargs)

    monkeypatch.setattr(DashSystem, "checkpoint", spy)
    report = SweepReport()
    results = build().run(
        report=report, checkpoint_dir=tmp_path, checkpoint_interval=300
    )
    assert [
        (p.overrides, _stats_json(p.stats)) for p in results.points
    ] == clean
    assert {"point00000.ckpt", "point00001.ckpt"} <= set(written)
    assert report.outcomes[0].resumed is False
    assert report.outcomes[1].resumed is True
    assert report.counts()["events_saved"] == 300
    assert list(tmp_path.glob("*.ckpt")) == []


def test_checkpoint_file_naming(tmp_path):
    """`checkpoint_file` yields stable per-point names."""
    assert checkpoint_file(tmp_path, 7).name == "point00007.ckpt"
    assert checkpoint_file(str(tmp_path), 12345).name == "point12345.ckpt"


# -- scheme-entry state round trips (hypothesis) ---------------------------

NUM_NODES = 32

SCHEME_BUILDERS = [
    lambda: FullBitVectorScheme(NUM_NODES),
    lambda: LimitedPointerBroadcastScheme(NUM_NODES, 3),
    lambda: LimitedPointerNoBroadcastScheme(NUM_NODES, 3, seed=11),
    lambda: SupersetScheme(NUM_NODES, 2),
    lambda: CoarseVectorScheme(NUM_NODES, 3, 4),
    lambda: LinkedListScheme(NUM_NODES),
    lambda: OverflowCacheScheme(NUM_NODES, 3, 4),
]

nodes = st.integers(min_value=0, max_value=NUM_NODES - 1)
histories = st.lists(st.tuples(nodes, st.booleans()), max_size=60)


def _apply(entry, true_sharers, history):
    """Replay add/remove-hint ops the way a machine would (as in
    test_properties_schemes), mutating ``true_sharers`` in place."""
    for node, is_add in history:
        if is_add:
            evicted = entry.record_sharer(node)
            true_sharers.add(node)
            for victim in evicted:
                true_sharers.discard(victim)
        else:
            if node in true_sharers:
                true_sharers.discard(node)
                entry.remove_sharer(node)


@settings(max_examples=60)
@given(
    history=histories,
    extra=histories,
    builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1),
)
def test_entry_state_round_trips(history, extra, builder_idx):
    """Every scheme's entry state survives to_state → entry_from_state:
    the clone reports the same targets and exactness, and — the strong
    form — *behaves identically* on further operations.  That covers
    overflow-cache LRU eviction order, linked-list chain order, and the
    NB victim RNG (scheme.to_state/load_state carry the shared state)."""
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry = scheme.make_entry()
    true_sharers = set()
    _apply(entry, true_sharers, history)

    entry_state = entry.to_state()
    scheme_state = scheme.to_state()

    clone_scheme = SCHEME_BUILDERS[builder_idx]()
    clone = clone_scheme.entry_from_state(entry_state)
    # scheme state is applied after entries, as restore_machine does: the
    # overflow wide store then holds exactly the saved LRU order
    clone_scheme.load_state(scheme_state)

    assert clone.to_state() == entry_state
    assert clone.invalidation_targets() == entry.invalidation_targets()
    assert clone.is_exact() == entry.is_exact()
    assert clone.is_empty() == entry.is_empty()

    # continued behavior: same evictions, same targets, same state
    clone_sharers = set(true_sharers)
    for node, is_add in extra:
        if is_add:
            evicted = entry.record_sharer(node)
            assert clone.record_sharer(node) == evicted
            true_sharers.add(node)
            clone_sharers.add(node)
            for victim in evicted:
                true_sharers.discard(victim)
                clone_sharers.discard(victim)
        else:
            if node in true_sharers:
                true_sharers.discard(node)
                entry.remove_sharer(node)
            if node in clone_sharers:
                clone_sharers.discard(node)
                clone.remove_sharer(node)
    assert clone.to_state() == entry.to_state()
    assert clone.invalidation_targets() == entry.invalidation_targets()


# -- the state contract: every component, every slot, no reaching in --------


def _component_states(system):
    """Each component's own ``to_state``, called the way the walker does."""
    codec = StateCodec(system)
    plan, checker, obs = system.fault_plan, system.invariants, system.obs
    states = {
        "stats": system.stats.to_state(),
        "caches": [
            cache.to_state()
            for cluster in system.clusters for cache in cluster.caches
        ],
        "system": system.to_state(codec),
        "dirs": [ctrl.to_state(codec) for ctrl in system.directories],
        "scheme": system.scheme.to_state(),
        "events": system.events.to_state(codec),
        "sync": system.sync.to_state(codec),
        "faults": plan.to_state() if plan is not None else None,
        "invariants": checker.to_state(codec) if checker is not None else None,
        "obs": obs.to_state() if obs.enabled else None,
    }
    states["txns"] = codec.txns
    return states


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(sorted(SCHEME_FAMILIES)),
    release_consistency=st.booleans(),
    faults=st.one_of(st.none(), st.integers(0, 50)),
    invariants=st.sampled_from(["off", "strict"]),
    traced=st.booleans(),
    cut=st.integers(1, 3000),
    more=st.integers(1, 400),
)
def test_component_state_round_trips(
    family, release_consistency, faults, invariants, traced, cut, more
):
    """The entry round trip, generalised to the machine: pause anywhere
    under any configuration, restore into a clone — every component's
    ``to_state`` equals its clone's, and still does after both have run
    on (so nothing that steers the simulation was left behind)."""
    config = _config(
        release_consistency=release_consistency, **SCHEME_FAMILIES[family]
    )

    def build():
        return DashSystem(
            config, _workload(), faults=faults, invariants=invariants,
            obs=Tracer(1 << 17) if traced else None,
        )

    original = build()
    original.run(max_events=cut)
    clone = build()
    clone.restore(original.checkpoint())
    for advance in (more, 0):
        restored = _component_states(clone)
        for name, state in _component_states(original).items():
            assert restored[name] == state, name
        for system in (original, clone):
            system.events.run(max_events=advance)


def test_every_slot_is_snapshotted_or_a_declared_binding():
    """A slot added to `Processor`, `Transaction` or `EventQueue` must
    either show up in ``to_state`` or be declared a construction-time
    binding — it cannot be silently dropped from snapshots."""
    system = DashSystem(
        _config(release_consistency=True), _workload(), invariants="strict"
    )
    system.run(max_events=150)
    codec = StateCodec(system)
    (txn, _t0), *_ = system.invariants._outstanding.values()
    for obj in (system.events, system.processors[0], txn):
        cls = type(obj)
        assert cls in (EventQueue, Processor, Transaction)
        snapshotted = set(obj.to_state(codec))
        bindings = set(getattr(cls, "_BINDINGS", ()))
        assert snapshotted | bindings == set(cls.__slots__), cls.__name__
        assert not snapshotted & bindings, cls.__name__
        assert not hasattr(obj, "__dict__"), cls.__name__


def test_every_continuation_owner_is_addressable():
    assert {kind for kind, _ in CONTINUATIONS} == set(checkpoint._ADDRESS)


def test_checkpoint_module_reads_no_foreign_private_state():
    """`checkpoint.py` is codec + walker + file gates: it may touch its
    own underscore attributes (``self._x``), never another object's, and
    it does not import the classes whose fields it used to spell out."""
    tree = ast.parse(Path(checkpoint.__file__).read_text())
    reached_into = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        )
    ]
    assert reached_into == []

    banned_names = {
        "Processor", "_END", "_LockState", "_BarrierState", "TraceEvent",
        "InvalCause",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "repro.trace.event"
            assert not banned_names & {a.name for a in node.names}
            assert not (
                node.module == "repro.trace"
                and "event" in {a.name for a in node.names}
            )
        elif isinstance(node, ast.Import):
            assert "repro.trace.event" not in {a.name for a in node.names}
