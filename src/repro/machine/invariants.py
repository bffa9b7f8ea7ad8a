"""Runtime coherence-invariant checking for the DASH simulator.

The protocol engine applies state effects atomically, so between any two
events the machine should satisfy the invariants the paper's protocol
guarantees (§2, §4):

* **single-writer** — a DIRTY block lives in exactly one cluster, and its
  home directory records that cluster as the owner;
* **directory-coverage** — every cluster holding a clean copy is covered
  by the home's (possibly conservative) presence entry: the directory
  may over-approximate sharers, never under-approximate;
* **precision-contract** — schemes declaring
  :attr:`~repro.core.base.DirectoryScheme.precision` ``"exact"`` (full
  bit vector, Dir_iNB, the SCI list) must keep every entry's
  representation exact at all times; ``"coarse"`` schemes (Dir_iB,
  Dir_iCV_r, Dir_iX, overflow cache) may degrade to a superset;
* **cache-inclusion** — every primary-cache line has a secondary-cache
  backing line (the L2 is the coherence point);
* **inval-ack-conservation** — every invalidation round sends exactly
  one inter-cluster invalidation per remote target and collects exactly
  one acknowledgement per target other than the awaiting recipient;
* **watchdog / lost-transaction** — no transaction takes longer than a
  (backoff-scaled) horizon, and none is still outstanding when the event
  queue drains.

The checker runs ``"strict"`` (a full machine scan after every completed
transaction) or ``"sampled"`` (every ``sample_interval``-th completion
plus a final scan).  Violations are recorded and counted in
:class:`~repro.machine.stats.SimStats`; with ``DashSystem(strict=True)``
the first violation raises a structured :class:`CoherenceViolation`
instead, so a faulty run can never silently corrupt statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.directory import Transaction
    from repro.machine.system import DashSystem

#: recognised checker modes
MODES = ("strict", "sampled")


class CoherenceViolation(AssertionError):
    """A machine-wide coherence invariant failed.

    Subclasses :class:`AssertionError` so existing callers of
    ``DashSystem.check_coherence()`` keep working; carries the violated
    invariant's name and the offending block for structured handling.
    """

    def __init__(
        self, invariant: str, message: str, *, block: Optional[int] = None
    ) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message
        self.block = block


def machine_state_violations(
    system: "DashSystem", *, skip_busy: bool = False
) -> Iterator[CoherenceViolation]:
    """Yield every invariant violation in the machine's current state.

    ``skip_busy`` ignores blocks with a transaction in flight at their
    home: their caches and directory are legitimately mid-transition
    (e.g. a write's requester installs its dirty copy only at
    completion).  Mid-run checks pass ``True``; end-of-run checks can
    afford the full scan because the queues are empty.
    """
    # -- cache inclusion (independent of directories) ----------------------
    for cluster in system.clusters:
        for cache in cluster.caches:
            for block in cache.check_inclusion():
                yield CoherenceViolation(
                    "cache-inclusion",
                    f"block {block} present in an L1 of cluster "
                    f"{cluster.cluster_id} without an L2 backing line",
                    block=block,
                )

    # -- who caches what ----------------------------------------------------
    holders: Dict[int, List[Tuple[int, bool]]] = {}
    for cluster in system.clusters:
        for cache in cluster.caches:
            for block, state in cache.l2.blocks():
                holders.setdefault(block, []).append(
                    (cluster.cluster_id, state.name == "DIRTY")
                )

    for block, copies in holders.items():
        home = system.home_of(block)
        controller = system.directories[home]
        if skip_busy and block in controller._busy:
            continue
        dirty_clusters = {c for c, d in copies if d}
        all_clusters = {c for c, _ in copies}
        line = controller.store.peek(block)
        if dirty_clusters:
            if len(dirty_clusters) > 1:
                yield CoherenceViolation(
                    "single-writer",
                    f"block {block} dirty in clusters {sorted(dirty_clusters)}",
                    block=block,
                )
                continue
            (owner,) = dirty_clusters
            if len(all_clusters) > 1:
                # other copies must be in the same cluster as the owner
                yield CoherenceViolation(
                    "single-writer",
                    f"dirty block {block} also cached in {sorted(all_clusters)}",
                    block=block,
                )
                continue
            if line is None or not line.dirty or line.owner != owner:
                # a writeback may be in flight; then the cache line is a
                # wb-buffer ghost, not an L2 line, so reaching here is a
                # real violation
                yield CoherenceViolation(
                    "directory-coverage",
                    f"directory does not record cluster {owner} as owner "
                    f"of dirty block {block} (line={line})",
                    block=block,
                )
        else:
            if line is None:
                yield CoherenceViolation(
                    "directory-coverage",
                    f"clean block {block} cached in {sorted(all_clusters)} "
                    f"but home has no directory line",
                    block=block,
                )
                continue
            if line.dirty:
                yield CoherenceViolation(
                    "directory-coverage",
                    f"directory marks block {block} dirty (owner "
                    f"{line.owner}) but only clean copies exist in "
                    f"{sorted(all_clusters)}",
                    block=block,
                )
                continue
            covered = set(line.entry.invalidation_targets())
            if not all_clusters <= covered:
                yield CoherenceViolation(
                    "directory-coverage",
                    f"clean block {block} cached in {sorted(all_clusters)} "
                    f"but directory only covers {sorted(covered)}",
                    block=block,
                )

    # -- the scheme's precise-vs-coarse contract ---------------------------
    if system.scheme.precision == "exact":
        for controller in system.directories:
            for block, line in controller.store.lines():
                if not line.entry.is_exact():
                    yield CoherenceViolation(
                        "precision-contract",
                        f"scheme {system.scheme.name} declares itself exact "
                        f"but block {block}'s entry degraded to an inexact "
                        f"representation",
                        block=block,
                    )


class InvariantChecker:
    """Online invariant monitor attached to one :class:`DashSystem`.

    The directory controllers report transaction lifecycle events and
    invalidation rounds; the checker cross-checks them and periodically
    scans the whole machine.  ``system.strict`` decides whether a
    violation raises immediately or is recorded (and counted in
    ``SimStats.invariant_violations``) for post-run inspection.
    """

    #: construction parameter a checkpoint's restore target must share
    MUST_MATCH = ("mode",)
    #: counters snapshotted verbatim through the checkpoint codec
    _STATE = ("_finished", "inval_rounds", "checks_run")

    def __init__(
        self,
        system: "DashSystem",
        mode: str = "sampled",
        *,
        sample_interval: int = 64,
        watchdog_cycles: Optional[float] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.system = system
        self.mode = mode
        self.sample_interval = sample_interval
        self.watchdog_cycles = (
            system.config.watchdog_cycles
            if watchdog_cycles is None
            else watchdog_cycles
        )
        #: id(txn) -> (txn, first submit time); the txn reference keeps the
        #: object alive so ids cannot be recycled while outstanding
        self._outstanding: Dict[int, Tuple["Transaction", float]] = {}
        self._finished = 0
        self.inval_rounds = 0
        self.checks_run = 0
        self.violations: List[CoherenceViolation] = []

    # -- checkpoint state ---------------------------------------------------

    def to_state(self, codec) -> dict:
        """``_STATE`` plus the two tables the codec cannot walk: the
        outstanding map (keyed by ``id``, so only its values travel) and
        the recorded violations (exceptions, saved by constructor args)."""
        state = codec.fields(self, self._STATE)
        state["outstanding"] = codec.encode(list(self._outstanding.values()))
        state["violations"] = [
            (v.invariant, v.message, v.block) for v in self.violations
        ]
        return state

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state`; outstanding entries resolve to the
        transactions the codec has already materialised."""
        codec.load_fields(self, self._STATE, state)
        self._outstanding = {
            id(txn): (txn, t0)
            for txn, t0 in codec.decode(state["outstanding"])
        }
        self.violations = [
            CoherenceViolation(invariant, message, block=block)
            for invariant, message, block in state["violations"]
        ]

    # -- violation handling -------------------------------------------------

    def _report(self, violation: CoherenceViolation) -> None:
        self.system.stats.invariant_violations += 1
        self.violations.append(violation)
        if self.system.strict:
            raise violation

    # -- transaction lifecycle ---------------------------------------------

    def on_submit(self, txn: "Transaction", now: float) -> None:
        """First submission of a transaction (retries keep the entry)."""
        self._outstanding.setdefault(id(txn), (txn, now))

    def on_abandon(self, txn: "Transaction") -> None:
        """A best-effort request (replacement hint) was dropped for good."""
        self._outstanding.pop(id(txn), None)

    def on_finish(self, txn: "Transaction", now: float) -> None:
        """A transaction's last effect landed; watchdog + periodic scan."""
        entry = self._outstanding.pop(id(txn), None)
        if entry is not None:
            _, t0 = entry
            # each retry doubles the allowance, mirroring the fault
            # layer's exponential backoff
            horizon = self.watchdog_cycles * (2.0 ** txn.attempts)
            if now - t0 > horizon:
                self._report(
                    CoherenceViolation(
                        "watchdog",
                        f"{txn.kind} transaction on block {txn.block} took "
                        f"{now - t0:.0f} cycles (> {horizon:.0f} after "
                        f"{txn.attempts} retries)",
                        block=txn.block,
                    )
                )
        self._finished += 1
        if self.mode == "strict" or self._finished % self.sample_interval == 0:
            self.check_machine()

    # -- invalidation accounting --------------------------------------------

    def on_inval_round(
        self,
        *,
        home: int,
        recipient: int,
        targets: Iterable[int],
        invals: int,
        acks: int,
    ) -> None:
        """One invalidation round's message accounting.

        ``invals`` / ``acks`` are the inter-cluster messages the
        controller actually counted; conservation requires one
        invalidation per target other than the home (which invalidates
        over its own bus) and one acknowledgement per target other than
        the awaiting ``recipient``.
        """
        targets = tuple(targets)
        expect_invals = sum(1 for t in targets if t != home)
        expect_acks = sum(1 for t in targets if t != recipient)
        self.inval_rounds += 1
        if invals != expect_invals or acks != expect_acks:
            self._report(
                CoherenceViolation(
                    "inval-ack-conservation",
                    f"round over targets {sorted(targets)} (home {home}, "
                    f"recipient {recipient}) counted {invals} invalidations "
                    f"/ {acks} acks, expected {expect_invals} / "
                    f"{expect_acks}",
                )
            )

    # -- machine scans -------------------------------------------------------

    def check_machine(self, *, skip_busy: bool = True) -> None:
        """Scan caches and directories; report every violation found."""
        self.checks_run += 1
        for violation in machine_state_violations(
            self.system, skip_busy=skip_busy
        ):
            self._report(violation)

    def finalize(self, now: float) -> None:
        """End-of-run audit: nothing outstanding, state fully coherent."""
        for txn, t0 in self._outstanding.values():
            self._report(
                CoherenceViolation(
                    "lost-transaction",
                    f"{txn.kind} transaction on block {txn.block} submitted "
                    f"at {t0:.0f} never completed (event queue drained at "
                    f"{now:.0f})",
                    block=txn.block,
                )
            )
        self.check_machine(skip_busy=False)
