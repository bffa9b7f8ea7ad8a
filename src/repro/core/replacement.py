"""Replacement policies for set-associative structures (§6.3.2).

The paper compares three policies for the sparse directory: LRU (best,
hardest to build), random (easiest, surprisingly good), and LRA
(least-recently-allocated, worse than random because an early-allocated
but hot entry keeps getting victimized).

The same policy objects drive the processor caches, so one implementation
is exercised everywhere.  State is kept per (set, way) as integer
timestamps from a monotonic counter — cheap, deterministic, and
sufficient to order accesses/allocations.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Sequence


class ReplacementPolicy(ABC):
    """Victim selection over a ``num_sets`` x ``associativity`` structure."""

    name: str = "base"

    def __init__(self, num_sets: int, associativity: int, *, seed: int = 0) -> None:
        if num_sets < 1 or associativity < 1:
            raise ValueError("num_sets and associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self.rng = random.Random(seed)
        self._clock = 0
        #: set index -> per-way timestamp row, for sets stamped at least
        #: once (a way never stamped reads 0, older than any tick)
        self._stamps: Dict[int, List[int]] = {}

    def _stamp(self, set_index: int, way: int) -> None:
        self._clock += 1
        row = self._stamps.get(set_index)
        if row is None:
            row = self._stamps[set_index] = [0] * self.associativity
        row[way] = self._clock

    def _oldest(self, set_index: int, ways: Sequence[int]) -> int:
        row = self._stamps.get(set_index) or [0] * self.associativity
        return min(ways, key=lambda w: row[w])

    def touch(self, set_index: int, way: int) -> None:
        """Record a (read or write) access to an occupied way."""

    def allocate(self, set_index: int, way: int) -> None:
        """Record that a way was (re)filled with a new tag."""

    @abstractmethod
    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        """Pick the way to evict among the candidate ``ways`` (all valid)."""

    def to_state(self) -> Dict[str, Any]:
        """Snapshot of mutable policy state (simulation checkpointing);
        stamp rows as ``(set index, row)`` in ascending set order."""
        return {
            "rng": self.rng.getstate(),
            "clock": self._clock,
            "stamps": [(s, list(self._stamps[s])) for s in sorted(self._stamps)],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore onto a policy built with identical parameters."""
        stamps = {s: list(row) for s, row in state["stamps"]}
        if any(
            not 0 <= s < self.num_sets or len(row) != self.associativity
            for s, row in stamps.items()
        ):
            raise ValueError(
                "replacement-policy geometry mismatch: snapshot rows do not "
                f"fit {self.num_sets} sets of {self.associativity} ways"
            )
        self.rng.setstate(state["rng"])
        self._clock = state["clock"]
        self._stamps = stamps


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the way with the oldest access."""

    name = "lru"
    touch = ReplacementPolicy._stamp
    allocate = ReplacementPolicy._stamp
    choose_victim = ReplacementPolicy._oldest


class LRAPolicy(ReplacementPolicy):
    """Least-recently-allocated: ignores accesses, orders by fill time."""

    name = "lra"
    allocate = ReplacementPolicy._stamp
    choose_victim = ReplacementPolicy._oldest


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, from a seeded RNG for reproducibility."""

    name = "random"

    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        return ways[self.rng.randrange(len(ways))]


_POLICIES = {
    "lru": LRUPolicy,
    "lra": LRAPolicy,
    "random": RandomPolicy,
    "rand": RandomPolicy,
}


def make_policy(
    name: str, num_sets: int, associativity: int, *, seed: int = 0
) -> ReplacementPolicy:
    """Build a policy by name (``"lru"``, ``"lra"``, ``"random"``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(set(_POLICIES))}"
        ) from None
    return cls(num_sets, associativity, seed=seed)
