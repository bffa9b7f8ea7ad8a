"""Fault-injection suite: coherence must survive an unreliable network.

Seeded fault plans (drops, duplicates, delays, NAKs, directory
corruption) are run against every registered scheme family and the main
directory organizations.  For every combination the machine must finish
all processors, report **zero** invariant violations under a strict
checker, and pass the end-of-run coherence audit — while the fault
counters prove the plan actually did damage.  A fixed seed must replay
bit-identically, and a zero-probability plan must leave the statistics
byte-identical to a run with no fault layer at all.
"""

import pytest

from repro.apps import MP3DWorkload
from repro.machine import (
    FaultBudgetExceeded,
    FaultPlan,
    MachineConfig,
    run_workload,
)
from repro.machine.faults import FaultKind

NUM_CLUSTERS = 4

#: the three seeds CI smokes (keep in sync with .github/workflows/ci.yml)
FIXED_SEEDS = (1, 7, 23)

SCHEMES = ["full", "Dir2B", "Dir1NB", "Dir2X", "Dir1CV2", "DirLL", "Dir2OF2"]

SPARSE_OPTS = [None, (1.0, 1, "lru"), (0.5, 2, "random"), (0.5, 1, "lra")]


def _config(scheme, sparse=None, **extra):
    overrides = dict(extra)
    if sparse is not None:
        factor, assoc, policy = sparse
        overrides.update(
            sparse_size_factor=factor, sparse_assoc=assoc, sparse_policy=policy
        )
    return MachineConfig(
        num_clusters=NUM_CLUSTERS,
        scheme=scheme,
        l1_bytes=32,
        l2_bytes=64,  # 4 blocks: forces evictions and writebacks
        block_bytes=16,
        **overrides,
    )


def _workload():
    return MP3DWorkload(NUM_CLUSTERS, num_particles=24, steps=2, seed=3)


def _plan(seed, **overrides):
    """Probabilities well above the defaults, so short runs see faults."""
    params = dict(
        drop_prob=0.03,
        dup_prob=0.03,
        delay_prob=0.06,
        nak_prob=0.05,
        corrupt_prob=0.03,
    )
    params.update(overrides)
    return FaultPlan(seed, **params)


@pytest.mark.parametrize("sparse", SPARSE_OPTS, ids=lambda s: str(s))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_faulty_runs_stay_coherent(seed, scheme, sparse):
    stats = run_workload(
        _config(scheme, sparse),
        _workload(),
        check=True,
        strict=True,
        faults=_plan(seed),
        invariants="strict",
    )
    assert stats.invariant_violations == 0
    assert all(p.finish_time > 0 for p in stats.procs)


@pytest.mark.parametrize(
    "extra",
    [
        dict(shared_entry_group=2),
        dict(release_consistency=True),
    ],
    ids=["shared-entry", "release-consistency"],
)
@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_faulty_runs_stay_coherent_with_extensions(seed, extra):
    stats = run_workload(
        _config("Dir2B", **extra),
        _workload(),
        check=True,
        strict=True,
        faults=_plan(seed),
        invariants="strict",
    )
    assert stats.invariant_violations == 0


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_faults_actually_injected(seed):
    """The acceptance criterion's other half: the plan did real damage."""
    stats = run_workload(
        _config("Dir2B"), _workload(), check=True, faults=_plan(seed)
    )
    assert stats.faults_injected > 0
    assert stats.fault_retries > 0
    assert stats.fault_naks > 0
    assert stats.invariant_violations == 0
    summary = stats.fault_summary()
    assert summary["faults_injected"] == stats.faults_injected
    # the counters surface in to_dict once any fault fired
    assert stats.to_dict()["fault_retries"] == stats.fault_retries


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_deterministic_replay(seed):
    def go():
        return run_workload(
            _config("Dir1CV2", (0.5, 2, "random")),
            _workload(),
            faults=_plan(seed),
        ).to_dict()

    assert go() == go()


def test_zero_probability_plan_is_byte_identical():
    """An idle fault layer must not perturb a single statistic."""
    silent = FaultPlan(
        0, drop_prob=0, dup_prob=0, delay_prob=0, nak_prob=0, corrupt_prob=0
    )
    with_layer = run_workload(_config("full"), _workload(), faults=silent)
    without = run_workload(_config("full"), _workload(), faults=None)
    assert with_layer.to_dict() == without.to_dict()


def test_int_seed_builds_default_plan():
    stats = run_workload(_config("full"), _workload(), faults=11)
    assert stats.invariant_violations == 0


def test_fault_budget_exceeded_raises():
    """A request that can never land must fail loudly, not hang."""
    plan = FaultPlan(
        0, drop_prob=1.0, dup_prob=0, delay_prob=0, nak_prob=0,
        corrupt_prob=0, max_retries=2,
    )
    with pytest.raises(FaultBudgetExceeded) as exc:
        run_workload(_config("full"), _workload(), faults=plan)
    assert exc.value.attempts > 2
    assert exc.value.block is not None


def test_max_faults_caps_injection():
    plan = _plan(5, max_faults=3)
    stats = run_workload(_config("full"), _workload(), faults=plan)
    assert stats.faults_injected <= 3
    assert plan.injected == stats.faults_injected


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(0, drop_prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan(0, drop_prob=0.5, dup_prob=0.3, delay_prob=0.2, nak_prob=0.1)
    with pytest.raises(ValueError):
        FaultPlan(0, delay_max_legs=0)
    with pytest.raises(ValueError):
        FaultPlan(0, retry_timeout_cycles=0)
    with pytest.raises(ValueError):
        FaultPlan(0, max_retries=0)
    with pytest.raises(ValueError):
        FaultPlan(0, max_faults=-1)


def test_message_fault_partition_is_deterministic():
    def rolls():
        plan = FaultPlan(9)
        return [plan.message_fault() for _ in range(500)]

    a, b = rolls(), rolls()
    assert a == b
    kinds = {k for k in a if k is not None}
    assert kinds  # the default probabilities fire within 500 rolls


def test_backoff_is_exponential():
    plan = FaultPlan(0, retry_timeout_cycles=100.0)
    assert [plan.backoff(a) for a in (1, 2, 3)] == [100.0, 200.0, 400.0]
