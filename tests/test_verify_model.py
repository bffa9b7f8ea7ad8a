"""The bounded model checker on correct schemes: exhaustion, soundness knobs."""

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


def test_clone_shares_pinned_rngs():
    cfg = _cfg("Dir1NB")
    state = initial_state(cfg)
    copy = state.clone()
    assert copy.stores[0].scheme is not state.stores[0].scheme
    assert copy.stores[0].scheme.rng is state.stores[0].scheme.rng


def test_apply_action_leaves_source_state_untouched():
    cfg = _cfg()
    state = initial_state(cfg)
    successor, violations = apply_action(state, ("write", 1, 0), cfg)
    assert violations == []
    assert state.msgs == [] and successor.msgs == [("write", 0, 1)]


def test_auditing_a_state_does_not_change_its_encoding():
    """The model-side twin of ``test_checking_does_not_change_the_result``:
    two wide overflow-cache entries share one LRU, and the audit reads the
    older one last — a read that counted as a use would swap them."""
    cfg = _cfg("Dir1OF2", blocks=(0, 1))
    state = initial_state(cfg)
    for line in (1, 0):
        for node in (1, 2):  # a second sharer overflows the one pointer
            for action in (("read", node, line), ("deliver", "read", line, node)):
                state, violations = apply_action(state, action, cfg)
                assert violations == []
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
