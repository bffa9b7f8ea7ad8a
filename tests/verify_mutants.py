"""Deliberately broken directory schemes for exercising ``repro.verify``.

Each mutant plants one protocol-representation bug that the model checker
must find as a minimal counterexample, and whose replay through the full
simulator must raise the matching
:class:`~repro.machine.invariants.CoherenceViolation`.  They live next to
the tests (not under ``core/``) so the ``unregistered-scheme`` lint rule
does not flag them.
"""

from typing import Iterable, Tuple

from repro.core.coarse_vector import CoarseVectorScheme
from repro.core.full_bit_vector import FullBitVectorEntry, FullBitVectorScheme


class ForgetfulEntry(FullBitVectorEntry):
    """Remembers only the most recent sharer — drops everyone else."""

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        self.mask = 0
        return super().record_sharer(node)


class ForgetfulScheme(FullBitVectorScheme):
    """Directory-coverage mutant: the second reader erases the first."""

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"Forgetful{num_nodes}"

    def make_entry(self) -> ForgetfulEntry:
        return ForgetfulEntry(self.num_nodes)


class MissedInvalEntry(FullBitVectorEntry):
    """Truthful to the auditor, a liar to the controller.

    The views of ``covered()`` with no exclusions (how the invariant
    checkers audit coverage) are correct, but the write path's
    ``targets_sorted(exclude=(writer,))`` silently hides the lowest
    sharer — so one live copy never receives its invalidation.
    ``invalidation_targets`` is derived from ``targets_sorted``, so the
    two lie consistently.
    """

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        targets = super().targets_sorted(exclude)
        return targets[1:] if tuple(exclude) else targets


class MissedInvalScheme(FullBitVectorScheme):
    """Inval/ack-conservation mutant: one sharer always dodges the write."""

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"MissedInval{num_nodes}"

    def make_entry(self) -> MissedInvalEntry:
        return MissedInvalEntry(self.num_nodes)


class LyingCoarseScheme(CoarseVectorScheme):
    """Precision-contract mutant: coarse representation sold as exact.

    The entries behave exactly like ``Dir_iCV_r`` (conservative supersets
    after pointer overflow), but the scheme claims ``precision="exact"``
    — the contract the full bit vector, Dir_iNB, and the linked list
    actually honor.  The first overflowed entry breaks the claim.
    """

    precision = "exact"

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, num_pointers=1, region_size=2, seed=seed)
        self.name = f"LyingCV{num_nodes}"
