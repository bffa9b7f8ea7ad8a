"""Deterministic fault injection for the DASH coherence engine.

The paper's protocol (§4-§5) assumes a lossless, in-order interconnect;
the simulator's directory controller additionally serializes transactions
per block.  To demonstrate that the coherence schemes stay correct when
those assumptions are stressed, a :class:`FaultPlan` decides — message by
message, from one seeded RNG consumed in event order — whether a
coherence request is delivered cleanly, dropped, duplicated, delayed
(and thereby reordered), or refused with a busy NAK, and whether a
serviced directory line suffers a transient corruption.

Corruption is injected *conservatively* (a phantom sharer is recorded
through the normal protocol path): the directory contract only requires
the presence entry to be a superset of the true sharers, so the protocol
must absorb it with extra invalidations, never with incoherence.  The
invariant checker (:mod:`repro.machine.invariants`) verifies exactly
that.

Everything here is zero-cost when disabled: a machine built without a
plan never touches this module on its hot path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


class FaultKind(str, Enum):
    """The injectable fault classes, in roll order."""

    DROP = "drop"  # message lost in the interconnect
    DUPLICATE = "duplicate"  # message delivered twice
    DELAY = "delay"  # message held back (may reorder)
    NAK = "nak"  # home refuses service (busy retry)
    CORRUPT = "corrupt"  # transient directory-line corruption


class FaultInjectionError(RuntimeError):
    """Base class for structured fault-layer failures."""


class FaultBudgetExceeded(FaultInjectionError):
    """A transaction burned through its retry budget without delivery.

    Raised instead of silently corrupting statistics: the run is not
    trustworthy once a request can no longer make progress.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "",
        block: Optional[int] = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.block = block
        self.attempts = attempts


@dataclass(frozen=True)
class Delivery:
    """Outcome of sending one request message through a faulty network.

    ``arrivals`` holds zero (dropped), one, or two (duplicated) absolute
    arrival times; ``nak`` means the message arrives but the home refuses
    it and the requester must retry.
    """

    arrivals: Tuple[float, ...]
    nak: bool = False
    fault: Optional[FaultKind] = None


class FaultPlan:
    """Seeded, deterministic schedule of injected faults.

    One plan drives one simulation: every decision draws from
    ``random.Random(seed)`` in event order, so a fixed seed replays the
    identical fault sequence (property-tested).  Probabilities are per
    inter-cluster request message (drop/duplicate/delay/nak are mutually
    exclusive per message) and per serviced request (corrupt).

    ``max_faults`` caps the total number of injected faults; once spent
    the plan goes quiet, which bounds how far a run can degrade.
    ``max_retries`` bounds per-transaction redelivery: exceeding it
    raises :class:`FaultBudgetExceeded`.
    """

    #: construction parameters a checkpoint's restore target must share
    #: (the RNG stream and the retry schedule depend on them)
    MUST_MATCH = (
        "seed", "drop_prob", "dup_prob", "delay_prob", "nak_prob",
        "corrupt_prob", "delay_max_legs", "retry_timeout_cycles",
        "max_retries", "max_faults",
    )

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_prob: float = 0.01,
        dup_prob: float = 0.01,
        delay_prob: float = 0.04,
        nak_prob: float = 0.03,
        corrupt_prob: float = 0.01,
        delay_max_legs: int = 3,
        retry_timeout_cycles: float = 400.0,
        max_retries: int = 12,
        max_faults: Optional[int] = None,
    ) -> None:
        probs = {
            "drop_prob": drop_prob,
            "dup_prob": dup_prob,
            "delay_prob": delay_prob,
            "nak_prob": nak_prob,
            "corrupt_prob": corrupt_prob,
        }
        for name, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if drop_prob + dup_prob + delay_prob + nak_prob > 1.0 + 1e-12:
            raise ValueError(
                "drop+dup+delay+nak probabilities must not exceed 1"
            )
        if delay_max_legs < 1:
            raise ValueError("delay_max_legs must be >= 1")
        if retry_timeout_cycles <= 0:
            raise ValueError("retry_timeout_cycles must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if max_faults is not None and max_faults < 0:
            raise ValueError("max_faults must be >= 0 (or None)")
        self.seed = seed
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.delay_prob = delay_prob
        self.nak_prob = nak_prob
        self.corrupt_prob = corrupt_prob
        self.delay_max_legs = delay_max_legs
        self.retry_timeout_cycles = retry_timeout_cycles
        self.max_retries = max_retries
        self.max_faults = max_faults
        self.rng = random.Random(seed)
        #: total faults injected so far (all kinds)
        self.injected = 0

    # -- checkpoint state ----------------------------------------------------

    def to_state(self) -> dict:
        """RNG stream position and the spent budget."""
        return {"rng": self.rng.getstate(), "injected": self.injected}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`to_state` onto a plan built with equal parameters."""
        self.rng.setstate(state["rng"])
        self.injected = state["injected"]

    # -- budget ------------------------------------------------------------

    def budget_left(self) -> bool:
        """True while the plan may still inject faults."""
        return self.max_faults is None or self.injected < self.max_faults

    def _spend(self) -> None:
        self.injected += 1

    # -- per-message decisions ---------------------------------------------

    def message_fault(self) -> Optional[FaultKind]:
        """Roll the fate of one inter-cluster request message."""
        if not self.budget_left():
            return None
        roll = self.rng.random()
        edge = self.drop_prob
        if roll < edge:
            self._spend()
            return FaultKind.DROP
        edge += self.dup_prob
        if roll < edge:
            self._spend()
            return FaultKind.DUPLICATE
        edge += self.delay_prob
        if roll < edge:
            self._spend()
            return FaultKind.DELAY
        edge += self.nak_prob
        if roll < edge:
            self._spend()
            return FaultKind.NAK
        return None

    def corruption(self) -> bool:
        """Roll whether the request being serviced corrupts its line."""
        if not self.budget_left():
            return False
        if self.rng.random() < self.corrupt_prob:
            self._spend()
            return True
        return False

    # -- fault parameters ---------------------------------------------------

    def delay_legs(self) -> int:
        """Extra network legs a delayed message is held back."""
        return self.rng.randint(1, self.delay_max_legs)

    def spurious_sharer(self, num_nodes: int) -> int:
        """The phantom node a corruption records as a sharer."""
        return self.rng.randrange(num_nodes)

    def backoff(self, attempt: int) -> float:
        """Exponential retry backoff for the ``attempt``-th resend (1-based)."""
        return self.retry_timeout_cycles * (2.0 ** (attempt - 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FaultPlan seed={self.seed} drop={self.drop_prob} "
            f"dup={self.dup_prob} delay={self.delay_prob} "
            f"nak={self.nak_prob} corrupt={self.corrupt_prob} "
            f"injected={self.injected}>"
        )
