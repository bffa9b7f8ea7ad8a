"""Scheme-name parsing (`make_scheme`) and the registry's coverage."""

import gc
import importlib
import pkgutil

import pytest

import repro.core
from repro.core import (
    SCHEME_FACTORIES,
    CoarseVectorScheme,
    DirectoryScheme,
    FullBitVectorScheme,
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
    LinkedListScheme,
    OverflowCacheScheme,
    SupersetScheme,
    make_scheme,
)


@pytest.mark.parametrize(
    "name, cls",
    [
        ("full", FullBitVectorScheme),
        ("Dir32", FullBitVectorScheme),
        ("DirN", FullBitVectorScheme),
        ("Dir3B", LimitedPointerBroadcastScheme),
        ("dir3b", LimitedPointerBroadcastScheme),
        ("Dir3NB", LimitedPointerNoBroadcastScheme),
        ("Dir2X", SupersetScheme),
        ("Dir3CV2", CoarseVectorScheme),
        ("Dir8CV4", CoarseVectorScheme),
        ("DirLL", LinkedListScheme),
        ("Dir3OF16", OverflowCacheScheme),
        ("linkedlist", LinkedListScheme),
        ("coarse", CoarseVectorScheme),
    ],
)
def test_parses(name, cls):
    assert isinstance(make_scheme(name, 32), cls)


def test_parameters_extracted():
    cv = make_scheme("Dir8CV4", 256)
    assert cv.num_pointers == 8 and cv.region_size == 4
    nb = make_scheme("Dir5NB", 64)
    assert nb.num_pointers == 5
    of = make_scheme("Dir3OF128", 64)
    assert of.overflow_entries == 128


def test_dir_k_must_match_node_count():
    with pytest.raises(ValueError, match="full-bit-vector"):
        make_scheme("Dir16", 32)


def test_unknown_name():
    with pytest.raises(ValueError, match="unrecognized"):
        make_scheme("Dir3QQ", 32)


def test_seed_forwarded():
    s1 = make_scheme("Dir3NB", 32, seed=4)
    s2 = make_scheme("Dir3NB", 32, seed=4)
    assert [s1.rng.random() for _ in range(3)] == [s2.rng.random() for _ in range(3)]


def test_names_roundtrip():
    for name in ["Dir3B", "Dir3NB", "Dir2X", "Dir3CV2"]:
        assert make_scheme(name, 32).name == name


# -- every public scheme under repro.core is registered ------------------------


def _core_schemes():
    """Public ``DirectoryScheme`` descendants defined under ``repro.core``,
    at any depth; a ``_Private`` helper base is not a scheme."""
    for info in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
        importlib.import_module(info.name)
    found, stack = set(), [DirectoryScheme]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.core.") and not (
                sub.__name__.startswith("_")
            ):
                found.add(sub)
    return found


def _unregistered():
    registered = set(SCHEME_FACTORIES.values())
    return sorted(c.__name__ for c in _core_schemes() - registered)


@pytest.fixture
def plant():
    """Define scheme classes as if in a ``repro.core`` module; they are
    collected again on teardown so no later test sees them."""
    planted = []

    def define(name, base):
        cls = type(name, (base,), {"__module__": "repro.core.planted"})
        planted.append(cls)
        return cls

    yield define
    planted.clear()
    gc.collect()


def test_every_core_scheme_is_registered():
    assert _unregistered() == []
    # and nothing else: the seven families are the registry's entries
    assert _core_schemes() == set(SCHEME_FACTORIES.values())


def test_orphan_scheme_is_flagged(plant):
    plant("OrphanScheme", DirectoryScheme)
    assert _unregistered() == ["OrphanScheme"]


def test_transitive_subclass_is_also_checked(plant):
    plant("ChildScheme", FullBitVectorScheme)
    helper = plant("_HelperBase", DirectoryScheme)
    plant("GrandchildScheme", helper)
    assert _unregistered() == ["ChildScheme", "GrandchildScheme"]


def test_private_helper_base_is_exempt(plant):
    plant("_HelperScheme", DirectoryScheme)
    assert _unregistered() == []
