"""Strict mode audits the blocks a transaction disturbed — is that enough?

``invariants="strict"`` used to sweep the whole machine after every
transaction; it now applies the same per-block predicate
(:func:`repro.machine.invariants.block_violations`) to the block a
finishing transaction was for and to the blocks an invalidation round
killed.  These tests hold the two to each other:

* a test-only *shadow* checker also runs the whole-machine sweep at every
  ``on_finish`` and compares the first violation each path reports — on
  the three planted mutants driven by real workloads, and on healthy runs
  across scheme families x directory organisations x fault seeds;
* one planted bug per source of the touched set (sparse-replacement
  victim, pooled group-mate, Dir_iNB eviction victim, L2 victim left in
  an L1) must be caught by the per-block path, before any sweep runs;
* the cost is asserted as a count on the 32-cluster paper machine.
"""

import json
from collections import Counter

import pytest

from repro.apps import LocusRouteWorkload, MP3DWorkload
from repro.core import protocol
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import LineState, ProcessorCache
from repro.machine.invariants import (
    CoherenceViolation,
    InvariantChecker,
    machine_state_violations,
)

from tests.verify_mutants import (
    ForgetfulScheme,
    LyingCoarseScheme,
    MissedInvalScheme,
)

#: the invariants both paths evaluate (the rest — watchdog, conservation,
#: lost transactions — are event checks the sweep never saw)
STATE_INVARIANTS = {
    "single-writer", "directory-coverage", "precision-contract",
    "cache-inclusion",
}

_SMALL_CACHES = {"l1_bytes": 128, "l2_bytes": 256}


class ShadowChecker(InvariantChecker):
    """Strict checker that also sweeps the machine at every ``on_finish``.

    Records the first state violation each path reports as ``(invariant,
    block, transactions finished)`` and the first transaction count at
    which the two disagree.  A violation the per-block path reports from
    an invalidation round counts for the next ``on_finish``: that is the
    first moment the parent's sweep could have seen it.
    """

    def __init__(self, system):
        super().__init__(system)
        self.first_touched = None
        self.first_swept = None
        self.disagreed_at = None

    def on_finish(self, txn, now):
        super().on_finish(txn, now)
        if self.first_touched is None:
            for v in self.violations:
                if v.invariant in STATE_INVARIANTS:
                    self.first_touched = (v.invariant, v.block, self._finished)
                    break
        if self.first_swept is None:
            for v in machine_state_violations(self.system, skip_busy=True):
                self.first_swept = (v.invariant, v.block, self._finished)
                break
        if self.disagreed_at is None and self.first_touched != self.first_swept:
            self.disagreed_at = self._finished


def _shadowed(config, workload, **kwargs):
    system = DashSystem(config, workload, invariants="off", **kwargs)
    system.invariants = checker = ShadowChecker(system)
    checker.stats = system.run()
    return checker


def _mp3d(procs):
    return MP3DWorkload(procs, num_particles=48, steps=2, seed=3)


# -- equivalence with the whole-machine sweep ---------------------------------


@pytest.mark.parametrize("clusters", [4, 8])
@pytest.mark.parametrize(
    "factory, invariant",
    [
        pytest.param(ForgetfulScheme, "directory-coverage", id="forgetful"),
        pytest.param(MissedInvalScheme, "single-writer", id="missed-inval"),
        pytest.param(LyingCoarseScheme, "precision-contract", id="lying-coarse"),
    ],
)
def test_mutant_is_first_caught_where_the_sweep_catches_it(
    factory, invariant, clusters
):
    checker = _shadowed(
        MachineConfig(num_clusters=clusters, **_SMALL_CACHES),
        _mp3d(clusters), scheme=factory(clusters),
    )
    assert checker.first_touched is not None, "per-block path missed the bug"
    assert checker.first_touched[0] == invariant
    assert checker.first_touched == checker.first_swept
    assert checker.disagreed_at is None


SCHEME_FAMILIES = {
    "full-map": "full",
    "broadcast": "Dir2B",
    "no-broadcast": "Dir1NB",
    "superset": "Dir4X",
    "coarse-vector": "Dir4CV4",
    "linked-list": "DirLL",
    "overflow": "Dir2OF8",
}

ORGANISATIONS = {
    "full-map": {},
    "sparse-lru": {"sparse_size_factor": 0.5, "sparse_policy": "lru"},
    "sparse-lra": {"sparse_size_factor": 0.5, "sparse_policy": "lra"},
    "sparse-random": {"sparse_size_factor": 0.5, "sparse_policy": "random"},
    "shared-entry": {"shared_entry_group": 2},
    "hints": {"replacement_hints": True},
    "release-consistency": {"release_consistency": True},
    "two-procs": {"procs_per_cluster": 2, "num_clusters": 4},
}

FAULT_SEEDS = (1, 7, 23)

#: the cell the whole-machine sweep itself flags — ROADMAP hole 1(b), a
#: protocol gap outside the paper's one-processor configurations, left for
#: its own PR.  Both paths must still agree on it; silence is not asserted.
#: The hole is not a property of this cell or of faults: two processors of
#: one cluster with requests in flight for the same block (the later-
#: serviced read takes row R3, "re-read during own writeback", and cleans a
#: line its sibling holds dirty) is reached fault-free on every scheme
#: tried once clusters have two processors and the workload is big enough
#: (test_hole_1b_is_reached_without_faults).  This grid's small MP3D
#: happens to reach it only here.
KNOWN_INCOHERENT = {
    ("no-broadcast", "two-procs"),
}


@pytest.mark.parametrize("organisation", ORGANISATIONS)
@pytest.mark.parametrize("family", SCHEME_FAMILIES)
def test_healthy_runs_keep_both_paths_silent(family, organisation):
    fields = {"num_clusters": 8, **_SMALL_CACHES, **ORGANISATIONS[organisation]}
    config = MachineConfig(scheme=SCHEME_FAMILIES[family], **fields)
    if (family, organisation) == ("no-broadcast", "shared-entry"):
        # a pointer eviction kills the victim's copy of one block while the
        # pooled entry forgets it for the whole group: refused, not run
        with pytest.raises(ValueError, match="Dir1NB.*shared_entry_group=2"):
            DashSystem(config, _mp3d(8))
        return
    for seed in FAULT_SEEDS:
        checker = _shadowed(config, _mp3d(8), faults=seed)
        assert checker.disagreed_at is None, seed
        assert checker.blocks_checked >= checker._finished
        if organisation.startswith("sparse"):
            assert checker.stats.sparse_replacements > 10, seed
        if (family, organisation) not in KNOWN_INCOHERENT:
            assert checker.first_swept is None, seed
            assert checker.violations == [], seed


def test_hole_1b_is_reached_without_faults():
    """ROADMAP hole 1(b) as a fault-free fact: full-map LocusRoute at its
    default size on 8 clusters of 2 processors.  Pinned, not endorsed —
    the PR that closes 1(b) must turn this into zero violations."""
    config = MachineConfig(num_clusters=8, procs_per_cluster=2, scheme="full")
    system = DashSystem(
        config, LocusRouteWorkload(16, seed=0), invariants="strict"
    )
    system.run()
    found = Counter(v.invariant for v in system.invariants.violations)
    assert found == {"single-writer": 8, "directory-coverage": 6}


# -- one planted bug per source of the touched set ------------------------------


def _strict_system(**fields):
    config = MachineConfig(num_clusters=8, **{**_SMALL_CACHES, **fields})
    return DashSystem(config, _mp3d(8), strict=True, invariants="strict")


def _deafen_once(monkeypatch, system, row, *, during=None):
    """Make the kernel's node ``row`` (an invalidation) skip the first
    node it would have killed a live copy at — only while a controller is
    inside its ``during`` method, when one is named.  Returns the list
    that receives ``(block, transactions finished)`` when the bug is
    planted."""
    planted = []
    armed = [during is None]
    if during is not None:
        for ctrl in system.directories:
            def window(*args, _inner=getattr(ctrl, during), **kwargs):
                armed[0] = True
                try:
                    return _inner(*args, **kwargs)
                finally:
                    armed[0] = False
            setattr(ctrl, during, window)

    def deaf(procs, block, txn_id=None, _inner=getattr(protocol, row)):
        if armed[0] and not planted and protocol.copies_besides_wb(procs, block):
            planted.append((block, system.invariants._finished))
            return
        _inner(procs, block, txn_id)

    monkeypatch.setattr(protocol, row, deaf)
    return planted


def _caught(system):
    """Run to the first violation; it must come from the per-block path."""
    with pytest.raises(CoherenceViolation) as caught:
        system.run()
    assert system.invariants.checks_run == 0, "caught only by a sweep"
    assert system.events, "caught only once the run had drained"
    return caught.value


def test_missed_invalidation_of_a_sparse_replacement_victim(monkeypatch):
    system = _strict_system(sparse_size_factor=0.5)
    planted = _deafen_once(
        monkeypatch, system, "invalidate", during="_process_sparse_evictions"
    )
    violation = _caught(system)
    (block, finished), = planted
    assert (violation.invariant, violation.block) == ("directory-coverage", block)
    # the victim is not the triggering transaction's block: only the
    # round's own audit looks at it, before anything else finishes
    assert system.invariants._finished == finished


def test_missed_invalidation_of_a_pooled_group_mate(monkeypatch):
    system = _strict_system(shared_entry_group=2)
    planted = _deafen_once(monkeypatch, system, "invalidate_if_clean")
    violation = _caught(system)
    (block, finished), = planted
    assert (violation.invariant, violation.block) == ("directory-coverage", block)
    assert system.invariants._finished == finished


def test_missed_invalidation_of_a_pointer_eviction_victim(monkeypatch):
    system = _strict_system(scheme="Dir1NB")
    planted = _deafen_once(
        monkeypatch, system, "invalidate", during="_record_sharer"
    )
    violation = _caught(system)
    (block, _finished), = planted
    # the block is the in-flight transaction's own: audited as it finishes
    assert (violation.invariant, violation.block) == ("directory-coverage", block)


def test_l2_victim_left_in_an_l1(monkeypatch):
    planted = []
    install = ProcessorCache.install

    def leaky_install(self, block, state):
        eviction = install(self, block, state)
        if not planted and eviction is not None and eviction[1]:
            # the inclusion purge "failed": the dirty victim is back in the L1
            self.l1.install(eviction[0], LineState.SHARED)
            planted.append(eviction[0])
        return eviction

    monkeypatch.setattr(ProcessorCache, "install", leaky_install)
    violation = _caught(_strict_system())
    # announced by the victim's own WRITEBACK transaction
    assert (violation.invariant, violation.block) == ("cache-inclusion", planted[0])


# -- cost, as a count ---------------------------------------------------------------


def test_strict_paper_machine_run_is_clean_cheap_and_changes_nothing():
    """The whole 32-cluster MP3D run under strict checking: no violation,
    the statistics of the unchecked run, one whole-machine sweep (the
    final one) and a bounded number of block audits per transaction."""
    config = MachineConfig(num_clusters=32, scheme="Dir3CV2")

    def run(mode):
        workload = MP3DWorkload(
            32, num_particles=4096, space_cells=96, steps=6, seed=0
        )
        system = DashSystem(config, workload, invariants=mode)
        stats = system.run()
        return json.dumps(stats.to_dict(), sort_keys=True), system.invariants

    plain, _ = run("off")
    checked, checker = run("strict")
    assert checked == plain
    assert checker.violations == []
    assert checker.checks_run == 1
    transactions = checker._finished
    assert transactions > 30_000
    # one audit per transaction, plus the rounds' non-busy blocks (none on
    # a full-map, per-block store)
    assert transactions <= checker.blocks_checked <= 2 * transactions
