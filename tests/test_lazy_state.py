"""Machine state is proportional to occupancy, and behaves as if it were not.

``CacheLevel`` holds one block -> state map of its lines plus a record
per occupied set and snapshots them as two packed columns (an
``array('q')`` of blocks and one state byte each), ``ProcessorCache``
probes those maps directly, and ``SparseDirectory`` and the LRU/LRA stamp
rows materialise a set on first install.  The property tests drive them
and the dense models in ``eager_reference.py`` with the same random
operation sequences and require every return value, victim,
whole-structure walk and snapshot to agree (walks in ascending set order,
which is the dense order).  The geometry tests build structures no dense
layout could hold, refuse snapshots that do not fit, and price a resident
line of the paper machine's direct-mapped caches, live and snapshotted.
"""

import gc
import pickle
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import MP3DWorkload
from repro.core import FullBitVectorScheme, SparseDirectory
from repro.core.sparse import AllWaysBusy
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import CacheLevel, LineState, ProcessorCache

from tests.eager_reference import (
    EagerCacheLevel,
    EagerProcessorCache,
    EagerSparseDirectory,
)

# -- CacheLevel --------------------------------------------------------------

CACHE_GEOMETRIES = [(64, 1), (64, 2), (128, 4), (16, 8)]  # (bytes, assoc), 16 B blocks

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "peek", "install", "set_state", "invalidate"]),
        st.integers(0, 23),
        st.sampled_from(list(LineState)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CACHE_GEOMETRIES), cache_ops)
def test_cache_level_matches_eager_model(geometry, ops):
    capacity, assoc = geometry
    lazy = CacheLevel(capacity, 16, assoc)
    eager = EagerCacheLevel(capacity, 16, assoc)
    assert (lazy.num_sets, lazy.assoc) == (eager.num_sets, eager.assoc)
    for op, block, state in ops:
        args = (block, state) if op in ("install", "set_state") else (block,)
        assert getattr(lazy, op)(*args) == getattr(eager, op)(*args), (op, block)
        assert list(lazy.blocks()) == list(eager.blocks())
        assert lazy.occupancy() == eager.occupancy()
    # the snapshot is the same walk, and restores to the same machine
    clone = CacheLevel(capacity, 16, assoc)
    clone.load_state(lazy.to_state())
    assert list(clone.blocks()) == list(eager.blocks())
    assert clone.to_state() == lazy.to_state() == eager.to_state()


# (L1 bytes, L1 assoc, L2 bytes, L2 assoc), 16 B blocks
HIERARCHIES = [(64, 1, 128, 1), (64, 1, 128, 2), (64, 2, 128, 4)]

hierarchy_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "probe_read", "probe_write", "install", "clean", "invalidate",
            "release_ghost",
        ]),
        st.integers(0, 23),
        st.sampled_from(list(LineState)),
    ),
    min_size=20, max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HIERARCHIES), hierarchy_ops)
def test_processor_cache_matches_eager_model(geometry, ops):
    lazy = ProcessorCache(16, *geometry)
    eager = EagerProcessorCache(16, *geometry)
    for op, block, state in ops:
        args = (block, state) if op == "install" else (block,)
        assert getattr(lazy, op)(*args) == getattr(eager, op)(*args), (op, block)
        assert lazy.wb_buffer == eager.wb_buffer
        assert list(lazy.l1.blocks()) == list(eager.l1.blocks())
        assert list(lazy.l2.blocks()) == list(eager.l2.blocks())
        assert lazy.to_state() == eager.to_state()


# -- SparseDirectory + replacement policies ----------------------------------

NODES = 4
STRIDE, OFFSET = 2, 1  # home-interleaved addressing, as a DASH cluster uses
home_blocks = st.integers(0, 19).map(lambda i: i * STRIDE + OFFSET)

dir_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), home_blocks),
        st.tuples(st.just("peek"), home_blocks),
        st.tuples(
            st.just("alloc"),
            home_blocks,
            st.frozensets(home_blocks, max_size=4),  # pinned by transactions
            st.one_of(
                st.none(),
                st.tuples(st.just("share"), st.integers(0, NODES - 1)),
                st.tuples(st.just("own"), st.integers(0, NODES - 1)),
            ),
        ),
        st.tuples(st.just("release"), home_blocks, st.booleans()),
    ),
    max_size=80,
)


def _line_view(line):
    if line is None:
        return None
    return (line.entry.to_state(), line.dirty, line.owner)


def _store_view(store):
    return (
        [(block, _line_view(line)) for block, line in store.lines()],
        store.layout(),
        store.occupancy(),
        store.allocations,
        store.replacements,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["lru", "lra", "random"]),
    st.sampled_from([(4, 1), (8, 2), (8, 4)]),  # (entries, associativity)
    dir_ops,
)
def test_sparse_directory_matches_eager_model(policy, geometry, ops):
    entries, assoc = geometry
    kwargs = dict(policy=policy, seed=7, stride=STRIDE, offset=OFFSET)
    stores = (
        SparseDirectory(FullBitVectorScheme(NODES), entries, assoc, **kwargs),
        EagerSparseDirectory(FullBitVectorScheme(NODES), entries, assoc, **kwargs),
    )
    for op in ops:
        outcomes = []
        for store in stores:
            if op[0] in ("lookup", "peek"):
                outcomes.append(_line_view(getattr(store, op[0])(op[1])))
            elif op[0] == "alloc":
                _, block, avoid, action = op
                try:
                    line, evictions = store.get_or_allocate(block, avoid=avoid)
                except AllWaysBusy:
                    outcomes.append("busy")
                    continue
                if action is not None and action[0] == "share":
                    line.entry.record_sharer(action[1])
                elif action is not None:
                    line.dirty, line.owner = True, action[1]
                outcomes.append((_line_view(line), evictions))
            else:
                _, block, reset_first = op
                line = store.peek(block)
                if reset_first and line is not None:
                    line.reset()
                outcomes.append(store.release(block))
        assert outcomes[0] == outcomes[1], op
        assert _store_view(stores[0]) == _store_view(stores[1]), op
    lazy = stores[0]
    assert lazy.occupancy() == sum(1 for _ in lazy.lines())
    clone = SparseDirectory(FullBitVectorScheme(NODES), entries, assoc, **kwargs)
    clone.load_state(lazy.to_state())
    assert _store_view(clone) == _store_view(stores[1])
    assert clone.to_state() == lazy.to_state()


# -- geometry no dense layout could hold -------------------------------------


def test_construction_cost_is_independent_of_capacity():
    t0 = time.perf_counter()
    cache = CacheLevel(2**34, 16, 1)  # 2^30 sets
    store = SparseDirectory(FullBitVectorScheme(8), 2**28, 4, policy="lru")
    system = DashSystem(
        MachineConfig(
            num_clusters=1024, scheme="Dir3CV8",
            sparse_size_factor=4, sparse_policy="lru",
        ),
        MP3DWorkload(1024, num_particles=1024, steps=1),
    )
    elapsed = time.perf_counter() - t0
    assert cache.num_sets == 2**30 and cache.occupancy() == 0
    assert list(cache.blocks()) == [] and cache.to_state() == (array("q"), b"")
    assert store.num_sets == 2**26 and store.occupancy() == 0
    assert list(store.lines()) == [] and store.to_state()["sets"] == []
    assert sum(c.store.occupancy() for c in system.directories) == 0
    assert elapsed < 1.0, f"construction took {elapsed:.2f} s"
    # first touch materialises exactly the touched set
    assert cache.install(2**30 + 5, LineState.DIRTY) is None
    assert list(cache.blocks()) == [(2**30 + 5, LineState.DIRTY)]
    assert cache.to_state() == (array("q", [2**30 + 5]), bytes([LineState.DIRTY]))
    line, evictions = store.get_or_allocate(3 * 2**26 + 9)
    assert evictions == [] and store.occupancy() == 1
    assert [b for b, _ in store.lines()] == [3 * 2**26 + 9]


def _full_paper_caches():
    """Four paper-machine caches (direct-mapped 64 KB over 256 KB), full."""
    caches = []
    for p in range(4):
        cache = ProcessorCache(16, 64 * 1024, 1, 256 * 1024, 1)
        for i in range(16384):
            cache.install((p << 20) + i, LineState.SHARED)
        caches.append(cache)
    return caches


def test_direct_mapped_line_cost():
    # a resident line costs its map entries, not a container per set
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        caches = _full_paper_caches()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lines = sum(c.l1.occupancy() + c.l2.occupancy() for c in caches)
    assert lines == 4 * (4096 + 16384)
    assert used / lines <= 200, f"{used / lines:.0f} B per resident line"


def test_snapshot_line_cost():
    # capturing and pickling a resident line costs its packed columns,
    # not a tuple per line: peak and payload are a few bytes a line
    caches = _full_paper_caches()
    lines = sum(c.l1.occupancy() + c.l2.occupancy() for c in caches)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payload = pickle.dumps([c.to_state() for c in caches], protocol=4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert lines == 4 * (4096 + 16384)
    assert peak / lines <= 64, f"{peak / lines:.0f} B per line at peak"
    assert len(payload) / lines <= 12, f"{len(payload) / lines:.1f} B per line"


SNAPSHOT_CORRUPTIONS = {
    "duplicate-block": lambda b, s: (b + b[:1], s + s[:1]),
    "column-lengths": lambda b, s: (b, s + s[:1]),
    "bad-state": lambda b, s: (b, b"\x00" + s[1:]),
    "too-many-ways": lambda b, s: (b + array("q", [b[0] + 4 * 8]), s + s[:1]),
}


@pytest.mark.parametrize("assoc", [1, 2])
@pytest.mark.parametrize(
    "corrupt", SNAPSHOT_CORRUPTIONS.values(), ids=SNAPSHOT_CORRUPTIONS.keys())
def test_malformed_snapshot_is_refused(assoc, corrupt):
    # 8 sets of `assoc` ways; set 0 full, so one more block overfills it
    cache = CacheLevel(16 * 8 * assoc, 16, assoc)
    for block in range(0, 8 * assoc, 8):
        cache.install(block, LineState.DIRTY)
    cache.install(3, LineState.SHARED)
    clone = CacheLevel(16 * 8 * assoc, 16, assoc)
    with pytest.raises(ValueError, match="geometry mismatch"):
        clone.load_state(corrupt(*cache.to_state()))
    assert clone.occupancy() == 0


@pytest.mark.parametrize("policy", ["lru", "lra", "random"])
def test_walks_are_in_set_order_not_touch_order(policy):
    store = SparseDirectory(FullBitVectorScheme(4), 16, 2, policy=policy)
    cache = CacheLevel(16 * 8, 16, 1)
    for block in (7, 2, 5, 10, 0):  # 8 sets: 10 lands behind 2 in set 2
        store.get_or_allocate(block)
        cache.install(block, LineState.SHARED)
    assert [b for b, _ in store.lines()] == [0, 2, 10, 5, 7]
    assert [s for s, _ in store.to_state()["sets"]] == [0, 2, 5, 7]
    assert [s for s, _ in store.policy.to_state()["stamps"]] == (
        [] if policy == "random" else [0, 2, 5, 7]
    )
    assert [b for b, _ in cache.blocks()] == [0, 10, 5, 7]  # 10 evicted 2
