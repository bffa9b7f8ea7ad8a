"""Property-based tests: invariants every directory format must obey.

These are the coherence-safety arguments from DESIGN.md §6, checked with
hypothesis across random add / invalidation-round histories.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoarseVectorScheme,
    FullBitVectorScheme,
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
    LinkedListScheme,
    OverflowCacheScheme,
    SupersetScheme,
)

NUM_NODES = 32

SCHEME_BUILDERS = [
    lambda: FullBitVectorScheme(NUM_NODES),
    lambda: LimitedPointerBroadcastScheme(NUM_NODES, 3),
    lambda: LimitedPointerNoBroadcastScheme(NUM_NODES, 3, seed=11),
    lambda: SupersetScheme(NUM_NODES, 2),
    lambda: CoarseVectorScheme(NUM_NODES, 3, 2),
    lambda: CoarseVectorScheme(NUM_NODES, 3, 4),
    lambda: LinkedListScheme(NUM_NODES),
    lambda: OverflowCacheScheme(NUM_NODES, 3, 4),
]

nodes = st.integers(min_value=0, max_value=NUM_NODES - 1)
# an operation history: add (node, True) or an invalidation round that
# reaches node (node, False)
histories = st.lists(st.tuples(nodes, st.booleans()), max_size=60)


def replay(scheme, history):
    """Apply a history; track the true sharer set the way a machine would.

    Returns (entry, true_sharers).  NB-evictions remove their victims from
    the true set (the machine invalidates them immediately).  A round that
    reaches a sharer kills every copy and resets the entry, the machine's
    only shrinking operation.
    """
    entry = scheme.make_entry()
    true_sharers = set()
    for node, is_add in history:
        if is_add:
            evicted = entry.record_sharer(node)
            true_sharers.add(node)
            for victim in evicted:
                true_sharers.discard(victim)
        elif node in true_sharers:
            true_sharers.clear()
            entry.reset()
    return entry, true_sharers


@settings(max_examples=60)
@given(history=histories, builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1))
def test_targets_always_superset_of_true_sharers(history, builder_idx):
    """No scheme may ever miss a real sharer — coherence safety."""
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry, true_sharers = replay(scheme, history)
    assert true_sharers <= entry.invalidation_targets()


@settings(max_examples=60)
@given(history=histories)
def test_full_vector_is_exact(history):
    entry, true_sharers = replay(FullBitVectorScheme(NUM_NODES), history)
    assert entry.invalidation_targets() == true_sharers


@settings(max_examples=60)
@given(history=histories)
def test_linked_list_is_exact(history):
    entry, true_sharers = replay(LinkedListScheme(NUM_NODES), history)
    assert entry.invalidation_targets() == true_sharers


@settings(max_examples=60)
@given(history=histories)
def test_nb_never_exceeds_pointer_count(history):
    entry, true_sharers = replay(
        LimitedPointerNoBroadcastScheme(NUM_NODES, 3, seed=5), history
    )
    assert len(true_sharers) <= 3
    assert entry.invalidation_targets() == true_sharers  # NB stays exact


@settings(max_examples=60)
@given(history=histories, builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1))
def test_exactness_claim_is_honest(history, builder_idx):
    """When is_exact() returns True, the targets equal the true sharers."""
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry, true_sharers = replay(scheme, history)
    if entry.is_exact():
        assert entry.invalidation_targets() == true_sharers


@settings(max_examples=60)
@given(history=histories, builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1))
def test_full_vector_lower_bounds_conservative_schemes(history, builder_idx):
    """Dir_N's write-time invalidation count is minimal among schemes that
    keep every sharer.  Dir_iNB is excluded: it sheds sharers at *record*
    time (paying with eviction invalidations then), so its write-time set
    can legitimately be smaller than the true sharer set.
    """
    scheme = SCHEME_BUILDERS[builder_idx]()
    if isinstance(scheme, LimitedPointerNoBroadcastScheme):
        return
    entry, _ = replay(scheme, history)
    exact_entry, _ = replay(FullBitVectorScheme(NUM_NODES), history)
    assert len(exact_entry.invalidation_targets()) <= len(entry.invalidation_targets())


@settings(max_examples=60)
@given(history=histories, builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1))
def test_reset_empties(history, builder_idx):
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry, _ = replay(scheme, history)
    entry.reset()
    assert entry.is_empty()
    assert entry.invalidation_targets() == frozenset()


@settings(max_examples=60)
@given(history=histories, builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1))
def test_targets_within_machine(history, builder_idx):
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry, _ = replay(scheme, history)
    assert all(0 <= t < NUM_NODES for t in entry.invalidation_targets())


@settings(max_examples=60)
@given(
    sharers=st.sets(nodes, max_size=NUM_NODES),
    exclude=st.sets(nodes, max_size=4),
    builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1),
)
def test_exclude_is_respected(sharers, exclude, builder_idx):
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry = scheme.make_entry()
    for n in sorted(sharers):
        entry.record_sharer(n)
    targets = entry.invalidation_targets(exclude=exclude)
    assert not (targets & exclude)


@settings(max_examples=40)
@given(sharers=st.lists(nodes, min_size=1, max_size=40))
def test_coarse_vector_never_beats_full_but_never_worse_than_broadcast(sharers):
    """The paper's headline: Dir_iCV is between Dir_N and Dir_iB."""
    cv_entry = CoarseVectorScheme(NUM_NODES, 3, 2).make_entry()
    b_entry = LimitedPointerBroadcastScheme(NUM_NODES, 3).make_entry()
    full_entry = FullBitVectorScheme(NUM_NODES).make_entry()
    for n in sharers:
        cv_entry.record_sharer(n)
        b_entry.record_sharer(n)
        full_entry.record_sharer(n)
    n_full = len(full_entry.invalidation_targets())
    n_cv = len(cv_entry.invalidation_targets())
    n_b = len(b_entry.invalidation_targets())
    assert n_full <= n_cv <= n_b


@settings(max_examples=40)
@given(sharers=st.lists(nodes, min_size=1, max_size=40))
def test_superset_at_least_as_wide_as_true_set(sharers):
    x_entry = SupersetScheme(NUM_NODES, 2).make_entry()
    for n in sharers:
        x_entry.record_sharer(n)
    assert set(sharers) <= x_entry.invalidation_targets()
