"""Property test: every scheme is observationally equivalent to a set model.

The directory controller consults entries through a tiny surface —
``record_sharer`` / ``remove_sharer`` / ``reset`` to write, and to read
the one bitmask ``covered()`` with the views ``core/base.py`` derives
from it (``targets_sorted`` / ``invalidation_targets`` / ``is_empty`` /
``might_share``) plus ``is_exact``.  This test drives every registered
scheme notation through random add / remove / reset sequences next to a
plain-set reference model and checks, after every step:

* **coverage** — ``invalidation_targets()`` is a superset of the true
  sharers (the base-protocol contract; a proper subset would lose an
  invalidation and break coherence);
* **exactness** — whenever the entry claims ``is_exact()``, its targets
  equal the true sharer set exactly (and schemes whose declared
  ``precision`` is ``"exact"`` must claim it always);
* **one statement** — ``targets_sorted(exclude)`` returns exactly
  ``sorted(invalidation_targets(exclude))`` for several exclude sets and
  both name the set bits of ``covered()``;
* **purity** — reading is not a use: ``scheme.to_state()`` and
  ``entry.to_state()`` are the same before and after all five views and
  ``is_exact()``, with a second entry of the scheme more recently
  written (a read of an overflow-cache entry that touched the shared
  wide-store LRU would reorder the two and move later victims — what
  made a strict run differ from the run it checked);
* **overflow behaviour** — ``record_sharer``'s forced-eviction tuple
  (``Dir_iNB``'s room-making invalidations) is honored by removing the
  victims from the reference model, after which coverage must hold
  again — so an NB entry staying exact while shedding sharers is
  checked, not assumed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_scheme

#: one spelling of every registered scheme family (see core.registry),
#: with small pointer counts so random sequences actually overflow
NOTATIONS = (
    "DirN",       # full bit vector
    "Dir1B",      # limited pointers + broadcast, immediate overflow
    "Dir3B",
    "Dir1NB",     # limited pointers, forced eviction on overflow
    "Dir3NB",
    "Dir2X",      # composite-pointer superset
    "Dir1CV4",    # coarse vector, wide regions
    "Dir3CV2",
    "Dir3CV1",    # coarse vector whose coarse mode is still exact
    "DirLL",      # SCI-style linked list
    "Dir2OF2",    # wide-entry overflow cache
)


@st.composite
def _op_sequences(draw):
    """A machine size plus a random op sequence over its node ids."""
    num_nodes = draw(st.integers(min_value=1, max_value=16))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), node),
                st.tuples(st.just("remove"), node),
                st.tuples(st.just("reset"), st.just(0)),
            ),
            max_size=40,
        )
    )
    exclude = draw(st.lists(node, max_size=3))
    return num_nodes, ops, exclude


def _check_state(scheme, entry, sharers, exclude) -> None:
    """All observational invariants for one (entry, reference) state."""
    before = (scheme.to_state(), entry.to_state())
    targets = entry.invalidation_targets()
    assert sharers <= targets, (
        f"coverage violated: true sharers {sorted(sharers)} not covered "
        f"by targets {sorted(targets)}"
    )
    if scheme.precision == "exact":
        assert entry.is_exact(), (
            f"{scheme.name} declares precision='exact' but entry reports "
            f"is_exact()=False"
        )
    if entry.is_exact():
        assert targets == frozenset(sharers), (
            f"is_exact() but targets {sorted(targets)} != true sharers "
            f"{sorted(sharers)}"
        )
    assert entry.is_empty() == (not targets)
    for n in sharers:
        assert entry.might_share(n)
    mask = entry.covered()
    assert targets == {n for n in range(scheme.num_nodes) if mask >> n & 1}
    # the two derivations of covered() agree, for every exclude shape
    for ex in ((), tuple(exclude), tuple(sorted(sharers))):
        assert entry.targets_sorted(ex) == sorted(
            entry.invalidation_targets(ex)
        ), f"targets_sorted{ex!r} diverged from sorted(invalidation_targets)"
    assert before == (scheme.to_state(), entry.to_state()), (
        "purity violated: reading the entry changed entry or scheme state"
    )


def _drive(scheme, ops, exclude) -> None:
    """Run ``ops`` on one entry next to the set model, checking each state."""
    entry = scheme.make_entry()
    # a second entry of the same scheme, written after every step so that
    # `entry` is never the most recently used: a read that counted as a
    # use would then show in scheme.to_state()
    bystander = scheme.make_entry()
    sharers: set[int] = set()
    _check_state(scheme, entry, sharers, exclude)
    for op, node in ops:
        if op == "add":
            victims = entry.record_sharer(node)
            # overflow behaviour: forced evictions (Dir_iNB making room)
            # invalidate real sharers right now — mirror that in the model
            for victim in victims:
                assert victim != node, "record_sharer evicted the newcomer"
                sharers.discard(victim)
            sharers.add(node)
        elif op == "remove":
            # best-effort removal: the model forgets the sharer; the entry
            # may keep it covered (coarse modes) but must never drop others
            entry.remove_sharer(node)
            sharers.discard(node)
        else:
            entry.reset()
            sharers.clear()
        bystander.record_sharer(node)
        _check_state(scheme, entry, sharers, exclude)


@pytest.mark.parametrize("notation", NOTATIONS)
@settings(max_examples=60, deadline=None)
@given(data=_op_sequences())
def test_scheme_matches_set_model(notation, data):
    num_nodes, ops, exclude = data
    scheme = make_scheme(
        notation if notation != "DirN" else f"Dir{num_nodes}", num_nodes
    )
    _drive(scheme, ops, exclude)


def test_a_read_that_counts_as_a_use_fails_the_property(monkeypatch):
    """The pre-``covered()`` overflow cache, re-planted: its reads went
    through a wide-store ``get`` that moved the mask to the MRU end."""
    from repro.core.overflow_cache import OverflowCacheEntry

    pure = OverflowCacheEntry.covered

    def touching(self):
        if self.wide:
            self.scheme.wide_store._masks.move_to_end(self.key)
        return pure(self)

    ops = [("add", n) for n in range(4)]
    _drive(make_scheme("Dir2OF2", 8), ops, ())
    monkeypatch.setattr(OverflowCacheEntry, "covered", touching)
    with pytest.raises(AssertionError, match="purity violated"):
        _drive(make_scheme("Dir2OF2", 8), ops, ())
