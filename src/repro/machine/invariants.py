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

The three state invariants are stated once, per block, in
:func:`block_violations`; the whole-machine sweep here, the online
checker's per-block audit and the model checker
(:func:`repro.verify.model.state_violations`) only build the block view
it reads.  That view speaks node masks, as a directory entry's
``covered()`` does: bit ``c`` of ``dirty`` / ``clean`` is set when
cluster ``c``'s coherence-point cache holds the block DIRTY / clean, so
coverage is ``clean & ~covered()`` and a second writer is
``dirty & (dirty - 1)``.  The caches are read only through
:class:`~repro.machine.cache.CacheCensus`: an audit reads one slot per
cache level in place, the sweep walks each level once; nothing here
touches a cache's layout, and nothing is kept between audits, so the
audit trusts neither the directory nor any record of its own.

The checker audits every block a transaction disturbed — the block it
was for when it finishes, the blocks an invalidation round killed when
the round is issued — and ends the run with one whole-machine sweep.
Violations are recorded and counted in
:class:`~repro.machine.stats.SimStats`; with ``DashSystem(strict=True)``
the first violation raises a structured :class:`CoherenceViolation`
instead, so a faulty run can never silently corrupt statistics.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core import protocol
from repro.core.base import mask_nodes
from repro.machine.cache import CacheCensus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sparse import DirLine
    from repro.machine.directory import Transaction
    from repro.machine.system import DashSystem

#: watchdog horizon in cycles: a transaction outstanding longer than this
#: (doubled per fault-layer retry) trips the watchdog invariant
WATCHDOG_CYCLES = 50_000.0


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


def _line_text(line: Optional["DirLine"]) -> str:
    """A directory line as violation text: whom it covers, and its owner."""
    if line is None:
        return "no line"
    return (
        f"line covers {mask_nodes(line.entry.covered())}, "
        f"dirty={line.dirty}, owner={line.owner}"
    )


def block_violations(
    block: int,
    dirty: int,
    clean: int,
    line: Optional["DirLine"],
    precision: str,
) -> List[Tuple[str, str]]:
    """``(invariant, message)`` for every state invariant one block breaks
    (empty when it breaks none) — the only statement of single-writer,
    directory-coverage and the precision contract.

    The view is what the protocol guarantees between transactions on the
    block: ``dirty`` / ``clean`` are the masks of the clusters (nodes, in
    the model) whose coherence-point cache holds it DIRTY / clean, ``line``
    is the home's directory line or ``None``, ``precision`` the scheme's
    declared contract.  A cluster may be in both masks (two caches on one
    bus); a block nobody caches can only break the precision contract.
    """
    found: List[Tuple[str, str]] = []
    if dirty:
        if dirty & (dirty - 1):
            return [(
                "single-writer",
                f"block {block} dirty in clusters {mask_nodes(dirty)}",
            )]
        owner = dirty.bit_length() - 1
        others = clean & ~dirty
        if others:
            return [(
                "single-writer",
                f"block {block} dirty in cluster {owner} but also cached "
                f"in {mask_nodes(others)}",
            )]
        if line is None or not line.dirty or line.owner != owner:
            # an in-flight writeback leaves no dirty *cache* line (the
            # copy is a writeback-buffer ghost), so this is never that
            found.append((
                "directory-coverage",
                f"directory does not record cluster {owner} as owner of "
                f"dirty block {block} ({_line_text(line)})",
            ))
    elif clean:
        # only a clean line's entry covers anyone: while a line is dirty
        # its entry records no sharers of the block
        covered = 0 if line is None or line.dirty else line.entry.covered()
        missed = clean & ~covered
        if missed:
            found.append((
                "directory-coverage",
                f"clean block {block} cached in {mask_nodes(missed)}, which "
                f"the directory does not cover ({_line_text(line)})",
            ))
    if precision == "exact" and line is not None and not line.entry.is_exact():
        found.append((
            "precision-contract",
            f"the scheme declares itself exact but block {block}'s entry "
            f"degraded to an inexact representation",
        ))
    return found


def _inclusion_violation(block: int, cluster_id: int) -> CoherenceViolation:
    return CoherenceViolation(
        "cache-inclusion",
        f"block {block} present in an L1 of cluster {cluster_id} without "
        f"an L2 backing line",
        block=block,
    )


def _view_violations(
    system: "DashSystem",
    block: int,
    dirty: int,
    clean: int,
    line: Optional["DirLine"],
) -> List[Tuple[str, str]]:
    """:func:`block_violations` on the machine's view of one block.

    One thing the L2 slots that built ``dirty`` cannot show: an evicted
    dirty line lives in its cluster's writeback buffer until the home
    absorbs the writeback, and a sibling cache may re-read it over the bus
    meanwhile.  While the home still records that cluster as owner, the
    buffered copy *is* the dirty copy (the model's in-flight ``wb``).
    """
    if not dirty and line is not None and line.dirty and line.owner is not None:
        if protocol.holds_dirty(system.nodes[line.owner], block):
            dirty = 1 << line.owner
    return block_violations(block, dirty, clean, line, system.scheme.precision)


def machine_state_violations(
    system: "DashSystem", *, skip_busy: bool = False
) -> Iterator[CoherenceViolation]:
    """Yield every invariant violation in the machine's current state:
    cache inclusion first, by cluster, cache and set, then the state
    invariants of each block in the order the caches' walk meets it.

    ``skip_busy`` ignores blocks with a transaction in flight at their
    home: their caches and directory are legitimately mid-transition
    (e.g. a write's requester installs its dirty copy only at
    completion).  Mid-run checks pass ``True``; end-of-run checks can
    afford the full scan because the queues are empty.
    """
    orphans, holders = CacheCensus(system.nodes).sweep()
    for block, cluster_id in orphans:
        yield _inclusion_violation(block, cluster_id)
    directories = system.directories
    if system.scheme.precision == "exact":
        # a line nobody caches can still break the precision contract
        for controller in directories:
            for block, _line in controller.store.lines():
                if block not in holders:
                    holders[block] = [0, 0]

    home_of = system.config.home_of
    for block, (dirty, clean) in holders.items():
        controller = directories[home_of(block)]
        if skip_busy and block in controller._busy:
            continue
        for invariant, message in _view_violations(
            system, block, dirty, clean, controller.store.peek(block)
        ):
            yield CoherenceViolation(invariant, message, block=block)


class InvariantChecker:
    """Online invariant monitor attached to one :class:`DashSystem`.

    The directory controllers report transaction lifecycle events and
    invalidation rounds; the checker cross-checks them and audits the
    machine's state, block by block as each report names them.
    ``system.strict`` decides whether a violation raises immediately or
    is recorded (and counted in ``SimStats.invariant_violations``) for
    post-run inspection.
    """

    #: nothing a checkpoint's restore target must share beyond presence
    MUST_MATCH = ()
    #: counters snapshotted verbatim through the checkpoint codec
    _STATE = ("_finished", "inval_rounds", "checks_run", "blocks_checked")

    def __init__(
        self,
        system: "DashSystem",
        *,
        watchdog_cycles: float = WATCHDOG_CYCLES,
    ) -> None:
        self.system = system
        self.watchdog_cycles = watchdog_cycles
        #: id(txn) -> (txn, first submit time); the txn reference keeps the
        #: object alive so ids cannot be recycled while outstanding
        self._outstanding: Dict[int, Tuple["Transaction", float]] = {}
        self._finished = 0
        self.inval_rounds = 0
        #: whole-machine sweeps / per-block audits performed
        self.checks_run = 0
        self.blocks_checked = 0
        self.violations: List[CoherenceViolation] = []
        # what an audit reads, bound once: none of it is ever rebound (the
        # census holds the cache levels, never their contents)
        self._census = CacheCensus(system.nodes)
        self._directories = system.directories
        self._home_of = system.config.home_of

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

    def on_finish(self, txn: "Transaction", now: float) -> None:
        """A transaction's last effect landed: watchdog, then audit its
        block."""
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
        self.check_block(txn.block)

    # -- invalidation accounting --------------------------------------------

    def on_inval_round(
        self,
        *,
        home: int,
        recipient: int,
        targets: Collection[int],
        invals: int,
        acks: int,
        blocks: Iterable[int] = (),
    ) -> None:
        """One invalidation round's message accounting.

        ``invals`` / ``acks`` are the inter-cluster messages the
        controller actually counted; conservation requires one
        invalidation per target other than the home (which invalidates
        over its own bus) and one acknowledgement per target other than
        the awaiting ``recipient``.  ``blocks`` are the blocks whose
        copies the round killed, audited now — the round
        was not necessarily issued by a transaction *on* them (sparse
        replacement victims, pooled group-mates), so no later
        ``on_finish`` would.
        """
        expect_invals = len(targets) - (home in targets)
        expect_acks = len(targets) - (recipient in targets)
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
        for block in blocks:
            self.check_block(block)

    # -- state audits -------------------------------------------------------

    def check_block(self, block: int) -> None:
        """Audit one block against the state invariants and inclusion.

        A block in flight at its home is skipped, as ``skip_busy`` skips
        it in the sweep: its own ``on_finish`` audits the settled state.
        """
        controller = self._directories[self._home_of(block)]
        if block in controller._busy:
            return
        self.blocks_checked += 1
        dirty, clean, orphans = self._census.holders(block)
        for cluster_id in orphans:
            self._report(_inclusion_violation(block, cluster_id))
        for invariant, message in _view_violations(
            self.system, block, dirty, clean, controller.store.peek(block)
        ):
            self._report(CoherenceViolation(invariant, message, block=block))

    def check_machine(self, *, skip_busy: bool = True) -> None:
        """Sweep every cache and directory; report every violation found."""
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
