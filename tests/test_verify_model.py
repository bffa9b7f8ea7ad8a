"""The bounded model checker on correct schemes: exhaustion, soundness knobs."""

from collections import deque

import pytest

from repro.core.registry import make_scheme
from repro.verify.explorer import encode_state, explore, symmetry_permutations
from repro.verify.model import (
    ModelConfig,
    apply_action,
    enabled_actions,
    initial_state,
    state_violations,
)


def _cfg(name="full", n=3, **kw):
    return ModelConfig(scheme=make_scheme(name, n), num_nodes=n, **kw)


def test_initial_state_is_all_invalid():
    cfg = _cfg()
    state = initial_state(cfg)
    assert all(st == "I" for row in state.caches for st in row)
    assert state.msgs == []
    assert len(state.stores) == 3


def test_enabled_actions_respect_inflight_bound():
    cfg = _cfg(max_inflight=1)
    state = initial_state(cfg)
    state.msgs.append(("read", 0, 0))
    kinds = {a[0] for a in enabled_actions(state, cfg)}
    # the network is full: only delivery can make progress
    assert kinds == {"deliver"}


def test_one_outstanding_request_per_node():
    cfg = _cfg(max_inflight=4)
    state = initial_state(cfg)
    state.msgs.append(("read", 0, 2))  # node 2 already has a request out
    issuers = {a[1] for a in enabled_actions(state, cfg) if a[0] == "read"}
    assert 2 not in issuers and {0, 1} <= issuers


def _walk(cfg, limit):
    """Up to ``limit`` concrete states, breadth first from the initial one,
    each as ``(snapshot, identity encoding)`` taken from one scratch."""
    identity = tuple(range(cfg.num_nodes))
    scratch = initial_state(cfg)
    root = scratch.to_state()
    seen = {encode_state(scratch, cfg, identity): root}
    queue = deque([root])
    while queue and len(seen) < limit:
        snapshot = queue.popleft()
        scratch.load_state(snapshot)
        for action in enabled_actions(scratch, cfg):
            scratch.load_state(snapshot)
            apply_action(scratch, action, cfg)
            key = encode_state(scratch, cfg, identity)
            if key not in seen:
                seen[key] = scratch.to_state()
                queue.append(seen[key])
    return [(snapshot, key) for key, snapshot in seen.items()]


ROUND_TRIP_CONFIGS = {
    "full": dict(name="full"),
    "Dir1B": dict(name="Dir1B"),
    "Dir1NB": dict(name="Dir1NB"),
    "Dir1CV2": dict(name="Dir1CV2", n=4),
    "Dir2X": dict(name="Dir2X"),
    "DirLL": dict(name="DirLL"),
    # wide entries plus the LRU they share across lines (one message in
    # flight and no drops keep the whole space to ~1,400 states)
    "Dir1OF2-2lines": dict(
        name="Dir1OF2", blocks=(0, 1), max_inflight=1, include_drop=False
    ),
    "sparse-1way": dict(name="full", sparse_ways=1, blocks=(0, 3)),
}


@pytest.mark.parametrize("config", sorted(ROUND_TRIP_CONFIGS))
def test_snapshots_round_trip_through_a_fresh_state(config):
    cfg = _cfg(**ROUND_TRIP_CONFIGS[config])
    identity = tuple(range(cfg.num_nodes))
    walked = _walk(cfg, 1500)
    assert len(walked) > 100
    fresh = initial_state(cfg)
    for snapshot, key in walked:
        fresh.load_state(snapshot)
        assert encode_state(fresh, cfg, identity) == key
        assert fresh.to_state() == snapshot
    if cfg.scheme.couples_entries:
        widest = 0
        for snapshot, _key in walked:
            widest = max(widest, len(snapshot.scheme["wide_masks"]))
        assert widest == 2  # both lines overflowed into the shared store


@pytest.mark.parametrize("config", ["Dir1NB", "Dir1CV2", "Dir1OF2-2lines",
                                    "sparse-1way"])
def test_stepping_a_loaded_state_leaves_its_snapshot_alone(config):
    cfg = _cfg(**ROUND_TRIP_CONFIGS[config])
    scratch = initial_state(cfg)
    for snapshot, _key in _walk(cfg, 300):
        scratch.load_state(snapshot)
        before = scratch.to_state()
        for action in enabled_actions(scratch, cfg):
            scratch.load_state(snapshot)
            apply_action(scratch, action, cfg)
        assert snapshot == before


@pytest.mark.parametrize("name", ["Dir1NB", "Dir2NB"])
def test_loads_of_one_snapshot_evict_the_same_victim(name):
    """The RNG is pinned, not carried: whatever the scratch drew before a
    load, the same overflowing read picks the same victim."""
    cfg = _cfg(name, n=4)
    state = initial_state(cfg)
    pointers = cfg.scheme.num_pointers
    for node in range(1, pointers + 1):
        for action in (("read", node, 0), ("deliver", "read", 0, node)):
            assert apply_action(state, action, cfg) == []
    reader = pointers + 1
    apply_action(state, ("read", reader, 0), cfg)
    snapshot = state.to_state()
    survivors = []
    for draws in (0, 7):
        state.load_state(snapshot)
        for _ in range(draws):
            state.stores[0].scheme.rng.random()
        apply_action(state, ("deliver", "read", 0, reader), cfg)
        survivors.append([row[0] for row in state.caches])
    assert survivors[0] == survivors[1]
    assert survivors[0].count("S") == pointers  # one sharer was evicted


def test_auditing_a_state_does_not_change_its_encoding():
    """The model-side twin of ``test_checking_does_not_change_the_result``:
    two wide overflow-cache entries share one LRU, and the audit reads the
    older one last — a read that counted as a use would swap them."""
    cfg = _cfg("Dir1OF2", blocks=(0, 1))
    state = initial_state(cfg)
    for line in (1, 0):
        for node in (1, 2):  # a second sharer overflows the one pointer
            for action in (("read", node, line), ("deliver", "read", line, node)):
                assert apply_action(state, action, cfg) == []
    assert len(state.stores[0].scheme.wide_store) == 2
    identity = tuple(range(cfg.num_nodes))
    before = encode_state(state, cfg, identity)
    assert state_violations(state, cfg) == []
    assert encode_state(state, cfg, identity) == before


def test_full_bit_vector_explores_clean():
    result = explore(_cfg())
    assert result.ok and not result.truncated
    assert result.violation is None
    assert result.states > 100
    assert result.transitions > result.states


def test_symmetry_merges_states_without_changing_the_verdict():
    with_sym = explore(_cfg())
    without = explore(_cfg(symmetry=False))
    assert with_sym.violation is None and without.violation is None
    assert with_sym.states < without.states


def test_symmetry_group_fixes_the_home_node():
    cfg = _cfg()
    home = cfg.home(0)
    for perm in symmetry_permutations(cfg):
        assert perm[home] == home


def test_truncation_reports_incomplete():
    result = explore(_cfg(max_states=10))
    assert result.truncated and not result.ok


@pytest.mark.parametrize("name", ["Dir1B", "Dir1NB", "Dir2X", "DirLL"])
def test_small_configs_exhaust_quickly(name):
    result = explore(_cfg(name))
    assert result.ok, result.violation and result.violation.format()


def test_sparse_directory_config_explores_clean():
    result = explore(_cfg(sparse_ways=1, max_states=50_000))
    assert result.violation is None
