"""Unit tests for the runtime coherence-invariant checker.

The fault suite proves healthy protocol runs never trip the checker;
these tests prove the checker actually *catches* broken states — each
invariant is violated by hand-tampering a finished machine, and the
checker must name it.
"""

import json

import pytest

from repro.apps import DWFWorkload, MP3DWorkload
from repro.cli import app_factory
from repro.core import FullBitVectorScheme, SparseDirectory
from repro.core.registry import SCHEME_FACTORIES, make_scheme
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import LineState
from repro.machine.invariants import (
    CoherenceViolation,
    InvariantChecker,
    machine_state_violations,
)

NUM_CLUSTERS = 4


def _system(**overrides):
    cfg = MachineConfig(
        num_clusters=NUM_CLUSTERS,
        l1_bytes=32,
        l2_bytes=64,
        block_bytes=16,
        **overrides,
    )
    wl = MP3DWorkload(NUM_CLUSTERS, num_particles=24, steps=2, seed=3)
    return DashSystem(cfg, wl)


def _ran_system(**overrides):
    system = _system(**overrides)
    system.run()
    return system


def _violations(system, **kw):
    return list(machine_state_violations(system, **kw))


def _shared_block(system):
    """Some (block, holder_cluster) with a clean cached copy."""
    for cluster in system.clusters:
        for cache in cluster.caches:
            for block, state in cache.l2.blocks():
                if state is LineState.SHARED:
                    return block, cluster.cluster_id
    raise RuntimeError("workload left no shared block to tamper with")


def _uncover(system):
    """Erase a live sharer from its home's presence entry; returns block."""
    block, holder = _shared_block(system)
    line = system.directories[system.home_of(block)].store.lookup(block)
    line.entry.remove_sharer(holder)
    return block


class TestViolationType:
    def test_fields_and_message(self):
        v = CoherenceViolation("single-writer", "two owners", block=7)
        assert v.invariant == "single-writer"
        assert v.block == 7
        assert "[single-writer]" in str(v)

    def test_is_assertion_error(self):
        # historical callers catch AssertionError from check_coherence
        assert issubclass(CoherenceViolation, AssertionError)


class TestMachineScan:
    def test_clean_run_has_no_violations(self):
        assert _violations(_ran_system()) == []

    def test_detects_uncovered_sharer(self):
        system = _ran_system()
        _uncover(system)
        found = _violations(system)
        assert any(v.invariant == "directory-coverage" for v in found)

    def test_detects_multiple_writers(self):
        system = _ran_system()
        block, holder = _shared_block(system)
        for cid in (holder, (holder + 1) % NUM_CLUSTERS):
            system.clusters[cid].caches[0].l2.install(block, LineState.DIRTY)
        found = _violations(system)
        assert any(v.invariant == "single-writer" for v in found)

    def test_detects_inclusion_breach(self):
        system = _ran_system()
        block, holder = _shared_block(system)
        cache = system.clusters[holder].caches[0]
        cache.l1.install(block, LineState.SHARED)
        cache.l2.invalidate(block)
        found = _violations(system)
        assert any(v.invariant == "cache-inclusion" for v in found)

    def test_skip_busy_ignores_in_flight_blocks(self):
        system = _ran_system()
        block = _uncover(system)
        system.directories[system.home_of(block)]._busy.add(block)
        assert _violations(system, skip_busy=True) == []
        assert _violations(system, skip_busy=False)


class TestPrecisionContract:
    def test_scheme_declarations(self):
        exact = {"full", "nonbroadcast", "linkedlist"}
        for name in SCHEME_FACTORIES:
            scheme = make_scheme(name, NUM_CLUSTERS)
            expected = "exact" if name in exact else "coarse"
            assert scheme.precision == expected, name

    def test_exact_scheme_with_degraded_entry_flags(self):
        class _DegradedEntry:
            def is_exact(self):
                return False

            def invalidation_targets(self, exclude=()):
                return range(NUM_CLUSTERS)

        system = _ran_system(scheme="full")
        block, _holder = _shared_block(system)
        home = system.home_of(block)
        line = system.directories[home].store.lookup(block)
        line.entry = _DegradedEntry()
        found = _violations(system)
        assert any(v.invariant == "precision-contract" for v in found)


class TestChecker:
    def test_invalid_mode_rejected(self):
        cfg = MachineConfig(num_clusters=NUM_CLUSTERS)
        wl = MP3DWorkload(NUM_CLUSTERS, num_particles=24, steps=2, seed=3)
        with pytest.raises(ValueError, match='"strict" or "off".*sampled'):
            DashSystem(cfg, wl, invariants="sampled")

    def test_strict_machine_raises_on_first_violation(self):
        system = _ran_system()
        system.strict = True
        checker = InvariantChecker(system)
        _uncover(system)
        with pytest.raises(CoherenceViolation):
            checker.check_machine(skip_busy=False)

    def test_lenient_machine_records_and_counts(self):
        system = _ran_system()
        checker = InvariantChecker(system)
        _uncover(system)
        checker.check_machine(skip_busy=False)
        assert checker.violations
        assert system.stats.invariant_violations == len(checker.violations)

    def test_finalize_reports_lost_transactions(self):
        from repro.machine.directory import READ, Transaction

        system = _system()
        checker = InvariantChecker(system)
        txn = Transaction(READ, 0, 1)
        checker.on_submit(txn, 10.0)
        checker.finalize(500.0)
        assert any(
            v.invariant == "lost-transaction" for v in checker.violations
        )

    def test_abandoned_transaction_is_not_lost(self):
        from repro.machine.directory import HINT, Transaction

        system = _system()
        checker = InvariantChecker(system)
        txn = Transaction(HINT, 0, 1)
        checker.on_submit(txn, 10.0)
        checker.on_abandon(txn)
        checker.finalize(500.0)
        assert checker.violations == []

    def test_watchdog_trips_on_slow_transaction(self):
        from repro.machine.directory import READ, Transaction

        system = _system()
        checker = InvariantChecker(system, watchdog_cycles=100.0)
        txn = Transaction(READ, 0, 1)
        checker.on_submit(txn, 0.0)
        checker.on_finish(txn, 99.0)
        assert checker.violations == []
        slow = Transaction(READ, 1, 1)
        checker.on_submit(slow, 0.0)
        checker.on_finish(slow, 101.0)
        assert any(v.invariant == "watchdog" for v in checker.violations)

    def test_watchdog_horizon_scales_with_retries(self):
        from repro.machine.directory import READ, Transaction

        system = _system()
        checker = InvariantChecker(system, watchdog_cycles=100.0)
        retried = Transaction(READ, 2, 1)
        retried.attempts = 2  # horizon: 100 * 2**2 = 400
        checker.on_submit(retried, 0.0)
        checker.on_finish(retried, 399.0)
        assert checker.violations == []

    def test_inval_round_conservation(self):
        system = _system()
        checker = InvariantChecker(system)
        checker.on_inval_round(
            home=0, recipient=1, targets=(0, 2, 3), invals=2, acks=3
        )
        assert checker.violations == []
        checker.on_inval_round(
            home=0, recipient=1, targets=(0, 2, 3), invals=2, acks=2
        )
        assert any(
            v.invariant == "inval-ack-conservation" for v in checker.violations
        )

    def test_check_coherence_delegates(self):
        system = _ran_system()
        system.check_coherence()  # healthy machine: no raise
        _uncover(system)
        with pytest.raises(AssertionError):
            system.check_coherence()


# -- the checker observes; it must not steer ----------------------------------


def _dwf4():
    return DWFWorkload(NUM_CLUSTERS, pattern_len=16, library_len=64, col_block=8)


#: (workload, machine): every way a read used to count as a use
OBSERVED = {
    # a sparse directory's replacement policy: a ``lookup`` reorders victims
    **{
        policy: (_dwf4, dict(
            num_clusters=NUM_CLUSTERS, scheme="Dir3CV2", l1_bytes=128,
            l2_bytes=256, sparse_size_factor=1.0, sparse_policy=policy,
        ))
        for policy in ("lru", "lra", "random")
    },
    # the overflow cache's shared wide-store LRU, one layer down: reading
    # an entry (``covered()`` and its views, ``is_exact()``) must not touch it
    **{
        f"{scheme}-{app}-{'sparse' if sparse else 'fullmap'}": (
            lambda app=app: app_factory(app, 32, 0.5, 0), dict(
                num_clusters=32, scheme=scheme, l1_bytes=128, l2_bytes=512,
                sparse_size_factor=sparse, sparse_policy="lru",
            ))
        for scheme in ("Dir1OF2", "Dir2OF2")
        for app in ("MP3D", "LocusRoute")
        for sparse in (None, 0.25)
    },
}


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_checking_does_not_change_the_result(name):
    """The strict checker reads the machine without side effects, so the
    checked run is byte-for-byte the run it checks."""
    workload, machine = OBSERVED[name]

    def stats_json(mode):
        stats = DashSystem(MachineConfig(**machine), workload(), invariants=mode).run()
        if machine["sparse_size_factor"]:
            assert stats.sparse_replacements > 100
        assert not stats.invariant_violations
        return json.dumps(stats.to_state(), sort_keys=True)

    off = stats_json("off")
    assert stats_json("strict") == off


def test_peek_has_no_replacement_side_effect():
    store = SparseDirectory(FullBitVectorScheme(4), 2, 2, policy="lru")
    store.get_or_allocate(0)
    store.get_or_allocate(1)
    before = store.policy.to_state()
    assert store.peek(0) is store.lookup(0) and store.peek(2) is None
    assert store.policy.to_state() != before  # lookup touched ...
    before = store.policy.to_state()
    store.peek(0)
    assert store.policy.to_state() == before  # ... peek does not
    _, evictions = store.get_or_allocate(2)
    assert [ev.block for ev in evictions] == [1]
