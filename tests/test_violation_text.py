"""The exact text of every state violation, from both audit paths.

Each case tampers a finished machine into one state violation and pins
the ``(invariant, block, message)`` list that the whole-machine sweep
(:func:`~repro.machine.invariants.machine_state_violations`) and the
per-block audit (:meth:`~repro.machine.invariants.InvariantChecker.check_block`)
report.  The cluster lists in the messages, their order, and the order
of the violations themselves are part of what is pinned.

The machines cover a cluster of two caches (a DIRTY and a clean copy in
one cluster, and an L1 orphan in each of its caches), more than 64
clusters (node masks wider than one machine word), and a strict machine
restored from a checkpoint, whose audit must read the restored caches.
"""

import pytest

from repro.apps import MP3DWorkload
from repro.core.registry import make_scheme
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import LineState
from repro.machine.invariants import InvariantChecker, machine_state_violations

DIRTY, SHARED = LineState.DIRTY, LineState.SHARED


def _machine(clusters=4, procs_per_cluster=1, **kw):
    config = MachineConfig(
        num_clusters=clusters,
        procs_per_cluster=procs_per_cluster,
        l1_bytes=32,
        l2_bytes=64,
        block_bytes=16,
        **kw,
    )
    procs = clusters * procs_per_cluster
    return config, MP3DWorkload(procs, num_particles=6 * procs, steps=2, seed=3)


def _finished(clusters=4, procs_per_cluster=1, **kw):
    system = DashSystem(*_machine(clusters, procs_per_cluster, **kw))
    system.run()
    return system


def _clean_holders(system):
    """block -> clusters whose L2 holds it SHARED, in first-seen order."""
    holders = {}
    for cluster in system.clusters:
        for cache in cluster.caches:
            for block, state in cache.l2.blocks():
                if state is SHARED:
                    holders.setdefault(block, []).append(cluster.cluster_id)
    return holders


def _sole_clean_copy(system):
    """The first (block, cluster) whose clean copy is the block's only one."""
    for block, ids in _clean_holders(system).items():
        if len(ids) == 1:
            return block, ids[0]
    raise RuntimeError("no block with a single clean copy")


def _line(system, block):
    return system.directories[system.home_of(block)].store.lookup(block)


def _text(violations):
    return [
        (v.invariant, v.block, v.message) for v in violations
    ]


def _both(system, blocks):
    """What the sweep reports, and what auditing ``blocks`` one at a time
    reports on a fresh checker."""
    checker = InvariantChecker(system)
    for block in blocks:
        checker.check_block(block)
    return _text(machine_state_violations(system)), _text(checker.violations)


# -- the tampering, one violation each ------------------------------------------


def two_dirty_clusters():
    system = _finished()
    block, holder = _sole_clean_copy(system)
    for cid in (holder, (holder + 1) % 4):
        system.clusters[cid].caches[0].l2.install(block, DIRTY)
    return _both(system, [block])


def dirty_here_clean_elsewhere():
    system = _finished()
    block, holder = _sole_clean_copy(system)
    system.clusters[(holder + 2) % 4].caches[0].l2.install(block, DIRTY)
    return _both(system, [block])


def dirty_line_without_owner():
    system = _finished()
    block, holder = _sole_clean_copy(system)
    system.clusters[holder].caches[0].l2.set_state(block, DIRTY)
    return _both(system, [block])


def uncovered_clean_copy():
    system = _finished()
    block, holder = _sole_clean_copy(system)
    _line(system, block).entry.mask &= ~(1 << holder)
    return _both(system, [block])


def degraded_exact_entry():
    """A full-map line given a coarse vector that has degraded: every
    holder stays covered, so only the precision contract breaks."""
    system = _finished(scheme="full")
    block, holder = _sole_clean_copy(system)
    entry = make_scheme("Dir1CV2", 4).make_entry()
    for node in (holder, (holder + 1) % 4):
        entry.record_sharer(node)
    assert not entry.is_exact()
    _line(system, block).entry = entry
    return _both(system, [block])


def l1_line_without_l2_line():
    system = _finished()
    block, holder = _sole_clean_copy(system)
    cache = system.clusters[holder].caches[0]
    cache.l1.install(block, SHARED)
    cache.l2.invalidate(block)
    return _both(system, [block])


def two_caches_in_one_cluster():
    """Cluster ``c`` holds ``block`` DIRTY in one cache and clean in the
    other, the directory not knowing; every cache of cluster ``c + 1``
    holds ``orphan`` in its L1 only."""
    system = _finished(procs_per_cluster=2)
    block, holder = _sole_clean_copy(system)
    caches = system.clusters[holder].caches
    other = caches[1] if caches[0].l2.peek(block) is SHARED else caches[0]
    other.l2.install(block, DIRTY)
    orphan, _ = next(
        (b, ids) for b, ids in _clean_holders(system).items() if b != block
    )
    for cache in system.clusters[(holder + 1) % 4].caches:
        cache.l1.install(orphan, SHARED)
        cache.l2.invalidate(orphan)
    return _both(system, [block, orphan])


def wider_than_a_word():
    """72 clusters: a block DIRTY in clusters 3 and 70; a block shared by
    two clusters gains clean copies in clusters 66 and 69, and its entry
    records only 66."""
    system = _finished(clusters=72)
    holders = _clean_holders(system)
    block = next(b for b, ids in holders.items() if len(ids) == 1)
    for cid in (3, 70):
        system.clusters[cid].caches[0].l2.install(block, DIRTY)
    shared = next(b for b, ids in holders.items() if len(ids) > 1)
    for cid in (66, 69):
        system.clusters[cid].caches[0].l2.install(shared, SHARED)
    _line(system, shared).entry.record_sharer(66)
    return _both(system, [block, shared])


def restored_strict_machine():
    """The machine's own strict checker, built before a checkpoint's
    restore replaced every cache's contents, audits the restored caches."""
    config, workload = _machine()
    original = DashSystem(config, workload, invariants="strict")
    original.run(max_events=400)
    system = DashSystem(config, workload, invariants="strict")
    system.restore(original.checkpoint())
    system.run()
    checker = system.invariants
    assert checker.violations == []
    block, holder = _sole_clean_copy(system)
    _line(system, block).entry.mask &= ~(1 << holder)
    checker.check_block(block)
    return _text(machine_state_violations(system)), _text(checker.violations)


CASES = [
    two_dirty_clusters,
    dirty_here_clean_elsewhere,
    dirty_line_without_owner,
    uncovered_clean_copy,
    degraded_exact_entry,
    l1_line_without_l2_line,
    two_caches_in_one_cluster,
    wider_than_a_word,
    restored_strict_machine,
]

PINNED = {
    "two_dirty_clusters": (
        [
            ("cache-inclusion", 10, "block 10 present in an L1 of cluster 1 without an L2 backing line"),
            ("single-writer", 30, "block 30 dirty in clusters [0, 1]"),
        ],
        [
            ("single-writer", 30, "block 30 dirty in clusters [0, 1]"),
        ],
    ),
    "dirty_here_clean_elsewhere": (
        [
            ("cache-inclusion", 46, "block 46 present in an L1 of cluster 2 without an L2 backing line"),
            ("single-writer", 30, "block 30 dirty in cluster 2 but also cached in [0]"),
        ],
        [
            ("single-writer", 30, "block 30 dirty in cluster 2 but also cached in [0]"),
        ],
    ),
    "dirty_line_without_owner": (
        [
            ("directory-coverage", 30, "directory does not record cluster 0 as owner of dirty block 30 (line covers [0], dirty=False, owner=None)"),
        ],
        [
            ("directory-coverage", 30, "directory does not record cluster 0 as owner of dirty block 30 (line covers [0], dirty=False, owner=None)"),
        ],
    ),
    "uncovered_clean_copy": (
        [
            ("directory-coverage", 30, "clean block 30 cached in [0], which the directory does not cover (line covers [], dirty=False, owner=None)"),
        ],
        [
            ("directory-coverage", 30, "clean block 30 cached in [0], which the directory does not cover (line covers [], dirty=False, owner=None)"),
        ],
    ),
    "degraded_exact_entry": (
        [
            ("precision-contract", 30, "the scheme declares itself exact but block 30's entry degraded to an inexact representation"),
        ],
        [
            ("precision-contract", 30, "the scheme declares itself exact but block 30's entry degraded to an inexact representation"),
        ],
    ),
    "l1_line_without_l2_line": (
        [
            ("cache-inclusion", 30, "block 30 present in an L1 of cluster 0 without an L2 backing line"),
        ],
        [
            ("cache-inclusion", 30, "block 30 present in an L1 of cluster 0 without an L2 backing line"),
        ],
    ),
    "two_caches_in_one_cluster": (
        [
            ("cache-inclusion", 66, "block 66 present in an L1 of cluster 2 without an L2 backing line"),
            ("cache-inclusion", 66, "block 66 present in an L1 of cluster 2 without an L2 backing line"),
            ("directory-coverage", 59, "directory does not record cluster 1 as owner of dirty block 59 (line covers [1], dirty=False, owner=None)"),
        ],
        [
            ("directory-coverage", 59, "directory does not record cluster 1 as owner of dirty block 59 (line covers [1], dirty=False, owner=None)"),
            ("cache-inclusion", 66, "block 66 present in an L1 of cluster 2 without an L2 backing line"),
            ("cache-inclusion", 66, "block 66 present in an L1 of cluster 2 without an L2 backing line"),
        ],
    ),
    "wider_than_a_word": (
        [
            ("cache-inclusion", 23, "block 23 present in an L1 of cluster 3 without an L2 backing line"),
            ("single-writer", 439, "block 439 dirty in clusters [3, 70]"),
            ("directory-coverage", 448, "clean block 448 cached in [69], which the directory does not cover (line covers [35, 37, 66], dirty=False, owner=None)"),
        ],
        [
            ("single-writer", 439, "block 439 dirty in clusters [3, 70]"),
            ("directory-coverage", 448, "clean block 448 cached in [69], which the directory does not cover (line covers [35, 37, 66], dirty=False, owner=None)"),
        ],
    ),
    "restored_strict_machine": (
        [
            ("directory-coverage", 30, "clean block 30 cached in [0], which the directory does not cover (line covers [], dirty=False, owner=None)"),
        ],
        [
            ("directory-coverage", 30, "clean block 30 cached in [0], which the directory does not cover (line covers [], dirty=False, owner=None)"),
        ],
    ),
}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_violation_text_is_pinned(case):
    sweep, audit = case()
    assert (sweep, audit) == PINNED[case.__name__]
